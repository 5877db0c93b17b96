import dataclasses

import numpy as np
import pytest

from uavmec import computation as comp, objective as obj
from uavmec.config import MOVE_NAMES, MOVES, ConfigError, SimConfig
from uavmec.environment import (STAY, ActionVector, MecEnvironment,
                                action_catalog, observation_size)
from uavmec.objective import reward as reward_fn
from uavmec.queueing import QueueTriple, compute_splits, step_queues


def device(container, k):
    """Device k's view of a container of per-device arrays, as floats."""
    return type(container)(*(float(getattr(container, f.name)[k])
                             for f in dataclasses.fields(container)))


def small_config(**kw):
    base = dict(num_devices=1, n_intervals=5)
    base.update(kw)
    return SimConfig(**base)


class TestActionCatalog:
    def test_single_device_count(self):
        assert len(action_catalog(small_config())) == 80

    def test_two_device_count(self):
        assert len(action_catalog(SimConfig(num_devices=2))) == 1280

    def test_moves_iterate_innermost(self):
        cat = action_catalog(small_config())
        assert cat[0].device_fractions == ((0.3, 0.3, 0.3, 0.3),)
        assert cat[0].move == STAY
        assert [a.move for a in cat[:5]] == [0, 1, 2, 3, 4]
        # after a full move cycle the last fraction coordinate flips
        assert cat[5].device_fractions == ((0.3, 0.3, 0.3, 0.6),)
        assert cat[5].move == STAY
        assert cat[-1].device_fractions == ((0.6, 0.6, 0.6, 0.6),)
        assert cat[-1].move == 4

    def test_entries_unique(self):
        cat = action_catalog(SimConfig(num_devices=2))
        assert len({(a.device_fractions, a.move) for a in cat}) == len(cat)

    def test_catalog_cap(self):
        with pytest.raises(ValueError, match="cap"):
            action_catalog(SimConfig(num_devices=3))

    @pytest.mark.parametrize("cfg", [
        SimConfig(num_devices=1), SimConfig(num_devices=2),
        SimConfig(num_devices=1, frac_levels=(0.0, 0.3, 0.6))])
    def test_size_matches_config(self, cfg):
        assert len(action_catalog(cfg)) == cfg.catalog_size

    def test_move_tables_consistent(self):
        assert len(MOVES) == len(MOVE_NAMES) == 5
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
                    small_config(frac_levels=(0.0, 1.0), area_size=10.0)):
            MecEnvironment(cfg.validate())

    @pytest.mark.parametrize("overrides, name", [
        (dict(tx_power=0.2), "c1_power"),
        (dict(frac_levels=(0.3, 1.2)), "c2_offload_fracs"),
        (dict(w_local=-0.1), "c3_compute_fracs"),
        (dict(local_cpu_max=-1.0), "c4_local_cpu"),
    ])
    def test_unvalidated_violation_raises(self, overrides, name):
        # validate() would reject these values; the environment must too
        cfg = small_config(**overrides)
        with pytest.raises(ConfigError, match=name):
            MecEnvironment(cfg)

    def test_report_of_every_failure(self):
        cfg = small_config(tx_power=0.2, frac_levels=(0.3, 1.2))
        with pytest.raises(ConfigError, match="c1_power, c2_offload_fracs"):
            MecEnvironment(cfg)

    def test_step_does_not_recheck(self, monkeypatch):
        env = MecEnvironment(small_config(), seed=0)

        def fail(*args, **kwargs):
            raise AssertionError("check_feasibility called by step()")

        monkeypatch.setattr(obj, "check_feasibility", fail)
        while not env.done:
            env.step(0)


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
            env.step(int(rng.integers(0, len(env.catalog))))
            assert 0.0 <= env.uav_pos.x <= cfg.area_size
            assert 0.0 <= env.uav_pos.y <= cfg.area_size

    def test_speed_constraint_always_met(self):
        cfg = small_config(n_intervals=50)
        env = MecEnvironment(cfg, seed=3)
        rng = np.random.default_rng(1)
        while not env.done:
            prev = env.uav_pos
            env.step(int(rng.integers(0, len(env.catalog))))
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
            t = env.step(int(rng.integers(0, len(env.catalog))))
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
            idx = int(rng.integers(0, len(env.catalog)))
            action = env.catalog[idx]
            t = env.step(idx)
            for k in range(2):
                assert device(t.record.queues_before, k) == shadow[k]
                xu, xc, wu, wc = action.device_fractions[k]
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
        env = MecEnvironment(SimConfig(num_devices=2), seed=0)
        assert env.fractions.shape == (len(env.catalog), 4, 2)
        for i in (0, 1, 77, 640, len(env.catalog) - 1):
            for k in range(2):
                assert tuple(env.fractions[i][:, k]) == (
                    env.catalog[i].device_fractions[k])

    def test_rates_follow_shannon(self):
        cfg = small_config()
        env = MecEnvironment(cfg, seed=11)
        t = env.step(0)
        rec = t.record
        g = float(rec.power_gains[0])
        want_sinr = cfg.fixed_tx_power * g / cfg.noise_power
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
                t = env.step(int(rng.integers(0, len(env.catalog))))
                out.append((t.reward, tuple(t.record.power_gains),
                            tuple(t.record.arrivals), env.uav_pos))
            return out

        assert run() == run()


class TestActionVector:
    def test_frozen(self):
        a = ActionVector(device_fractions=((0.3, 0.3, 0.3, 0.3),), move=0)
        with pytest.raises(AttributeError):
            a.move = 1
