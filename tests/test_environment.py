import dataclasses
import itertools

import numpy as np
import pytest

from uavmec import computation as comp, objective as obj
from uavmec.config import MOVES, ConfigError, SimConfig
from uavmec.environment import (STAY, Lockstep, MecEnvironment,
                                action_catalog, observation_size)
from uavmec.objective import reward as reward_fn
from uavmec.queueing import QueueTriple, compute_splits, step_queues


def device(container, k):
    """Device k's view of a container of per-device arrays, as floats."""
    return type(container)(*(float(getattr(container, f.name)[k])
                             for f in dataclasses.fields(container)))


def device_fractions(fractions, i):
    """Catalog entry i's (x_uav, x_cloud, w_uav, w_cloud) tuple per device."""
    return tuple(tuple(row) for row in fractions[i].T.tolist())


def small_config(**kw):
    base = dict(num_devices=1, n_intervals=5)
    base.update(kw)
    return SimConfig(**base)


class TestActionCatalog:
    def test_single_device_count(self):
        fractions, moves = action_catalog(small_config())
        assert len(moves) == 80
        assert fractions.shape == (80, 4, 1)

    def test_two_device_count(self):
        fractions, moves = action_catalog(SimConfig(num_devices=2))
        assert len(moves) == 1280
        assert fractions.shape == (1280, 4, 2)

    def test_moves_iterate_innermost(self):
        fr, moves = action_catalog(small_config())
        assert device_fractions(fr, 0) == ((0.3, 0.3, 0.3, 0.3),)
        assert moves[0] == STAY
        assert moves[:5].tolist() == [0, 1, 2, 3, 4]
        # after a full move cycle the last fraction coordinate flips
        assert device_fractions(fr, 5) == ((0.3, 0.3, 0.3, 0.6),)
        assert moves[5] == STAY
        assert device_fractions(fr, -1) == ((0.6, 0.6, 0.6, 0.6),)
        assert moves[-1] == 4

    def test_entries_unique(self):
        fr, moves = action_catalog(SimConfig(num_devices=2))
        entries = {(device_fractions(fr, i), int(moves[i]))
                   for i in range(len(moves))}
        assert len(entries) == len(moves)

    def test_catalog_cap(self):
        with pytest.raises(ValueError, match="cap"):
            action_catalog(SimConfig(num_devices=3))

    @pytest.mark.parametrize("cfg", [
        SimConfig(num_devices=1), SimConfig(num_devices=2),
        SimConfig(num_devices=1, frac_levels=(0.0, 0.3, 0.6))])
    def test_size_matches_config(self, cfg):
        fractions, moves = action_catalog(cfg)
        assert len(moves) == len(fractions) == cfg.catalog_size

    def test_move_tables_consistent(self):
        assert len(MOVES) == 5
        assert MOVES[STAY] == (0.0, 0.0)


class TestObservation:
    def test_size(self):
        assert observation_size(SimConfig(num_devices=2)) == 6
        assert observation_size(
            SimConfig(num_devices=2, include_uav_position=True)) == 8

    def test_reset_gives_zero_levels(self):
        env = MecEnvironment(small_config(), seed=0)
        assert env.observe().tolist() == [0.0, 0.0, 0.0]

    def test_discretization(self):
        env = MecEnvironment(small_config(), seed=0)
        cap = env.config.queue_cap
        env.queues = QueueTriple(np.array([0.0]), np.array([0.55 * cap]),
                                 np.array([2.0 * cap]))
        assert env.observe().tolist() == [0.0, 5.0, 9.0]

    def test_device_major_order(self):
        env = MecEnvironment(SimConfig(num_devices=2), seed=0)
        cap = env.config.queue_cap
        env.queues = QueueTriple(np.array([0.05 * cap, 0.0]),
                                 np.array([0.15 * cap, 0.95 * cap]),
                                 np.array([0.25 * cap, 0.35 * cap]))
        assert env.observe().tolist() == [0.0, 1.0, 2.0, 0.0, 9.0, 3.0]

    def test_zero_cap_puts_any_backlog_on_top(self):
        env = MecEnvironment(small_config(i_max=0.0), seed=0)
        env.queues = QueueTriple(np.array([0.0]), np.array([1.0]),
                                 np.array([5e9]))
        assert env.observe().tolist() == [0.0, 9.0, 9.0]

    def test_uav_position_suffix(self):
        env = MecEnvironment(small_config(include_uav_position=True), seed=0)
        obs = env.observe()
        assert obs.shape == (5,)
        assert obs[3:].tolist() == [0.5, 0.5]


class TestReset:
    def test_initial_state(self):
        cfg = small_config()
        env = MecEnvironment(cfg, seed=1)
        assert env.n == 0 and not env.done
        assert (env.uav_pos.x, env.uav_pos.y) == cfg.area_center
        for dev in env.device_positions:
            assert 0.0 <= dev.x <= cfg.area_size
            assert 0.0 <= dev.y <= cfg.area_size

    def test_same_seed_same_devices(self):
        a = MecEnvironment(small_config(), seed=7)
        b = MecEnvironment(small_config(), seed=7)
        assert a.device_positions == b.device_positions

    def test_different_seeds_differ(self):
        a = MecEnvironment(small_config(), seed=7)
        b = MecEnvironment(small_config(), seed=8)
        assert a.device_positions != b.device_positions

    def test_default_construction_is_seeded(self):
        a = MecEnvironment(small_config())
        b = MecEnvironment(small_config())
        assert a.device_positions == b.device_positions


class TestConstraintsAtConstruction:
    def test_default_configs_pass(self):
        for cfg in (small_config(), SimConfig(num_devices=2),
                    small_config(frac_levels=(0.0, 1.0), area_size=10.0,
                                 sweep_policies=("dqn", "random"))):
            MecEnvironment(cfg.validate())

    @pytest.mark.parametrize("overrides, name", [
        (dict(p_max=-0.1), "c1_power"),
        (dict(frac_levels=(0.3, 1.2)), "c2_offload_fracs"),
        (dict(w_local=-0.1), "c3_compute_fracs"),
        (dict(local_cpu_max=-1.0), "c4_local_cpu"),
    ])
    def test_unvalidated_violation_raises(self, overrides, name):
        # the environment validates the config it is given, so values that
        # would break c1-c4 are rejected with validate()'s own message
        message = {"c1_power": "p_max must be positive",
                   "c2_offload_fracs": "frac_levels",
                   "c3_compute_fracs": "w_local",
                   "c4_local_cpu": "local_cpu_max"}[name]
        cfg = small_config(**overrides)
        with pytest.raises(ConfigError, match=message):
            MecEnvironment(cfg)

    def test_step_does_not_recheck(self, monkeypatch):
        env = MecEnvironment(small_config(), seed=0)

        def fail(*args, **kwargs):
            raise AssertionError("check_feasibility called by step()")

        monkeypatch.setattr(obj, "check_feasibility", fail)
        while not env.done:
            env.step(0)


class TestConstraintsOnEveryStep:
    """Under a validated config, c1-c9 hold on every step by construction."""

    @pytest.mark.parametrize("cfg", [
        SimConfig(n_intervals=40),
        # a move is longer than the area, so every step's clip is active
        small_config(n_intervals=40, frac_levels=(0.0, 1.0), area_size=10.0,
                     sweep_policies=("dqn", "random")),
        SimConfig(n_intervals=40, p_max=0.05),
    ])
    def test_validated_config_meets_c1_to_c9(self, cfg):
        env = MecEnvironment(cfg.validate(), seed=4)
        rng = np.random.default_rng(8)
        # the fixed powers and CPU shares step() applies to every device
        cpu_local, cpu_uav, cpu_cloud = np.broadcast_to(
            env._tier_cpus, (3, cfg.num_devices))
        while not env.done:
            idx = int(rng.integers(0, len(env.moves)))
            prev = env.uav_pos
            rec = env.step(idx).record
            rows = env.fractions[idx].T   # x_uav, x_cloud, w_uav, w_cloud
            report = obj.check_feasibility(
                fractions=np.insert(rows, 2, cfg.w_local, axis=1),
                tx_powers=env._tx_powers, cpu_local=cpu_local,
                cpu_uav=cpu_uav, cpu_cloud=cpu_cloud,
                prev_pos=prev, new_pos=rec.uav_pos,
                total_delays=comp.total_task_delay(rec.delays), config=cfg)
            failed = [name for name, ok in vars(report).items()
                      if name.startswith("c") and name != "c10_delay"
                      and not ok]
            assert failed == []


class TestStepContracts:
    def test_zero_arrivals_stay_empty(self):
        env = MecEnvironment(small_config(i_max=0.0), seed=0)
        t = env.step(0)
        assert t.reward == 0.0
        assert device(env.queues, 0) == QueueTriple(0.0, 0.0, 0.0)
        assert t.record.b_tot.tolist() == [0.0]

    def test_episode_termination(self):
        env = MecEnvironment(small_config(), seed=0)
        for i in range(5):
            t = env.step(0)
            assert t.done == (i == 4)
        assert env.done
        with pytest.raises(RuntimeError):
            env.step(0)

    def test_bad_action_index(self):
        env = MecEnvironment(small_config(), seed=0)
        with pytest.raises(IndexError):
            env.step(80)
        with pytest.raises(IndexError):
            env.step(-1)

    def test_uav_moves_and_clips(self):
        cfg = small_config(n_intervals=100)
        env = MecEnvironment(cfg, seed=0)
        start = env.uav_pos
        env.step(1)  # +x
        assert env.uav_pos.x == pytest.approx(start.x + cfg.v_max * cfg.tau)
        assert env.uav_pos.y == start.y
        rng = np.random.default_rng(0)
        while not env.done:
            env.step(int(rng.integers(0, len(env.moves))))
            assert 0.0 <= env.uav_pos.x <= cfg.area_size
            assert 0.0 <= env.uav_pos.y <= cfg.area_size

    def test_speed_constraint_always_met(self):
        cfg = small_config(n_intervals=50)
        env = MecEnvironment(cfg, seed=3)
        rng = np.random.default_rng(1)
        while not env.done:
            prev = env.uav_pos
            env.step(int(rng.integers(0, len(env.moves))))
            # c7 (speed) and c9 (area), measured on the move itself
            assert prev.displacement(env.uav_pos) <= (
                cfg.v_max * cfg.tau * (1 + 1e-12))
            assert 0.0 <= env.uav_pos.x <= cfg.area_size
            assert 0.0 <= env.uav_pos.y <= cfg.area_size

    def test_terminal_distance(self):
        env = MecEnvironment(small_config(), seed=0)
        assert env.terminal_distance() == 0.0
        env.step(1)
        assert env.terminal_distance() == pytest.approx(30.0)


class TestStepPhysics:
    def test_reward_recomputable_from_record(self):
        env = MecEnvironment(SimConfig(num_devices=2, n_intervals=20), seed=5)
        rng = np.random.default_rng(2)
        while not env.done:
            t = env.step(int(rng.integers(0, len(env.moves))))
            rec = t.record
            for k in range(2):
                want = reward_fn(device(rec.queues_before, k),
                                 device(rec.splits, k),
                                 float(rec.t_comm[k]), float(rec.hist_pde[k]),
                                 env.config, int(rec.eta[k]))
                assert rec.reward_per_device[k] == pytest.approx(want,
                                                                 rel=1e-12)
            assert t.reward == pytest.approx(float(np.sum(
                rec.reward_per_device)))

    def test_queue_trajectory_matches_external_replay(self):
        # replay the episode's queue dynamics outside the environment using
        # only the recorded arrivals and the chosen fraction tuples
        cfg = SimConfig(num_devices=2, n_intervals=30)
        env = MecEnvironment(cfg, seed=9)
        rng = np.random.default_rng(4)
        shadow = [QueueTriple(0.0, 0.0, 0.0) for _ in range(2)]
        while not env.done:
            idx = int(rng.integers(0, len(env.moves)))
            t = env.step(idx)
            for k in range(2):
                assert device(t.record.queues_before, k) == shadow[k]
                xu, xc, wu, wc = env.fractions[idx][:, k].tolist()
                s = compute_splits(shadow[k], xu, xc, cfg.w_local, wu, wc)
                shadow[k] = step_queues(s=s, q=shadow[k],
                                        arrival=float(t.record.arrivals[k]))
            assert [device(env.queues, k) for k in range(2)] == shadow

    def test_record_holds_device_arrays(self):
        env = MecEnvironment(SimConfig(num_devices=2, n_intervals=5), seed=1)
        rec = env.step(7).record
        for container in (rec.queues_before, rec.splits, rec.delays):
            for f in dataclasses.fields(container):
                assert getattr(container, f.name).shape == (2,)
        for name in ("power_gains", "sinrs", "rates", "t_comm", "b_tot",
                     "eta", "hist_pde", "reward_per_device", "arrivals"):
            assert getattr(rec, name).shape == (2,)
        assert comp.total_task_delay(rec.delays).shape == (2,)

    def test_fraction_table_matches_catalog(self):
        # the tables against the nested enumeration they encode: every
        # device's fraction tuple, last device fastest, moves innermost
        cfg = SimConfig(num_devices=2)
        env = MecEnvironment(cfg, seed=0)
        assert env.fractions.shape == (len(env.moves), 4, 2)
        per_device = itertools.product(cfg.frac_levels, repeat=4)
        nested = [(fracs, move)
                  for fracs in itertools.product(per_device, repeat=2)
                  for move in range(len(MOVES))]
        assert len(nested) == len(env.moves)
        for i, (fracs, move) in enumerate(nested):
            assert device_fractions(env.fractions, i) == fracs
            assert env.moves[i] == move

    def test_rates_follow_shannon(self):
        cfg = small_config()
        env = MecEnvironment(cfg, seed=11)
        t = env.step(0)
        rec = t.record
        g = float(rec.power_gains[0])
        want_sinr = cfg.p_max * g / cfg.noise_power
        assert rec.sinrs[0] == pytest.approx(want_sinr, rel=1e-12)
        assert rec.rates[0] == pytest.approx(
            cfg.bandwidth * np.log2(1.0 + want_sinr), rel=1e-12)

    def test_cloud_install_delay_gating(self):
        env = MecEnvironment(small_config(), seed=2)
        env.queues = QueueTriple(np.array([1000.0]), np.array([1000.0]),
                                 np.array([0.0]))
        t = env.step(0)  # x_cloud = 0.3 > 0 pays the install delay
        assert t.record.delays.t_cloud_comm[0] == env.config.install_delay

    def test_determinism_full_episode(self):
        def run():
            env = MecEnvironment(SimConfig(num_devices=2, n_intervals=25),
                                 seed=13)
            rng = np.random.default_rng(6)
            out = []
            while not env.done:
                t = env.step(int(rng.integers(0, len(env.moves))))
                out.append((t.reward, tuple(t.record.power_gains),
                            tuple(t.record.arrivals), env.uav_pos))
            return out

        assert run() == run()


def assert_same_values(a, b):
    """Every field of two records (nested dataclasses of arrays) bit for bit."""
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_same_values(getattr(a, f.name), getattr(b, f.name))
    else:
        assert np.array_equal(a, b), (a, b)


def qs_row(queues, r):
    """Realization r's queues from lockstep (R, K) queues."""
    return type(queues)(*(getattr(queues, f.name)[r]
                          for f in dataclasses.fields(queues)))


class TestLockstep:
    """R realizations stepped together match R single-realization runs."""

    @pytest.mark.parametrize("cfg", [
        SimConfig(num_devices=2, n_intervals=30),
        small_config(n_intervals=30, include_uav_position=True,
                     area_size=50.0),
    ])
    def test_matches_separate_realizations(self, cfg):
        seeds = [11, 12, 13]
        actions = np.random.default_rng(4).integers(
            0, cfg.catalog_size, size=(cfg.n_intervals, len(seeds)))
        batch = Lockstep(MecEnvironment(cfg), seeds)
        obs = batch.observe()
        singles = [MecEnvironment(cfg, seed=s) for s in seeds]
        assert np.array_equal(obs, [env.observe() for env in singles])
        for n in range(cfg.n_intervals):
            t = batch.step(actions[n])
            for r, env in enumerate(singles):
                u = env.step(int(actions[n, r]))
                assert t.reward[r] == u.reward
                assert np.array_equal(t.next_observation[r],
                                      u.next_observation)
                assert_same_values(t.record.realization(r), u.record)
                assert_same_values(qs_row(batch.queues, r), env.queues)
                assert batch.uav_pos.x[r] == env.uav_pos.x
                assert batch.uav_pos.y[r] == env.uav_pos.y
            assert t.done == u.done
        assert batch.terminal_distance() == [env.terminal_distance()
                                             for env in singles]
        assert batch.device_positions == [env.device_positions
                                          for env in singles]

    def test_one_action_per_realization(self):
        env = Lockstep(MecEnvironment(small_config()), [1, 2])
        with pytest.raises(ValueError, match="shape"):
            env.step(0)
        with pytest.raises(ValueError, match="shape"):
            env.step([0, 0, 0])
        with pytest.raises(IndexError):
            env.step([0, 80])
        assert env.step([0, 79]).reward.shape == (2,)
