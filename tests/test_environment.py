import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

from uavmec import (channel as ch, computation as comp, environment, harness,
                    objective as obj, phy_link as phy, queueing as qs)
from uavmec.agent import QNetwork, fixed_action, train
from uavmec.config import MAX_INDEXED_CATALOG, MOVES, ConfigError, SimConfig
from uavmec.environment import (STAY, IntervalRecord, Lockstep,
                                MecEnvironment, action_catalog,
                                normalize_observation, observation_size)
from uavmec.objective import reward as reward_fn
from uavmec.queueing import (QueueTriple, compute_splits, split_stack,
                             step_queues)


def device(container, k):
    """Device k's view of a container of per-device arrays, as floats."""
    return type(container)(*(float(getattr(container, f.name)[k])
                             for f in dataclasses.fields(container)))


def reference_catalog(config):
    """The joint catalog as (fractions, moves) tables: fractions[:, i] holds
    entry i's x_uav, x_cloud, w_uav, w_cloud rows over the K devices, (4, n,
    K), moves[i] its UAV move. Entries run through every device's fraction
    tuple, the last device's fastest, with the five moves innermost."""
    k = config.num_devices
    grid = np.array(list(itertools.product(config.frac_levels,
                                           repeat=4 * k)))
    fractions = np.repeat(grid.reshape(-1, k, 4).transpose(0, 2, 1),
                          len(MOVES), axis=0)
    moves = np.tile(np.arange(len(MOVES)), len(grid))
    return fractions.transpose(1, 0, 2), moves


def device_fractions(fractions, i):
    """Catalog entry i's (x_uav, x_cloud, w_uav, w_cloud) tuple per device."""
    return tuple(tuple(row) for row in fractions[:, i].T.tolist())


def every_entry(config):
    return action_catalog(config, np.arange(config.catalog_size))


def one(config, seed=0):
    """A one-realization Lockstep, as training steps."""
    return Lockstep(config, [seed])


def step_entry(batch, index):
    """One interval of a one-realization Lockstep under catalog entry index:
    the realization's record, of (K,) arrays."""
    return batch.step(*action_catalog(batch.config, [index])).realization(0)


def untouched(batch, seeds):
    """No realization of batch has drawn from its stream."""
    return [e.rng.bit_generator.state for e in batch.envs] == \
        [MecEnvironment(batch.config, s).rng.bit_generator.state
         for s in seeds]


def small_config(**kw):
    base = dict(num_devices=1, n_intervals=5)
    base.update(kw)
    return SimConfig(**base)


class TestActionCatalog:
    """action_catalog decodes indices into the values of the enumeration."""

    def test_single_device_count(self):
        fractions, moves = every_entry(small_config())
        assert moves.shape == (80,)
        assert fractions.shape == (4, 80, 1)

    def test_two_device_count(self):
        fractions, moves = every_entry(SimConfig(num_devices=2))
        assert moves.shape == (1280,)
        assert fractions.shape == (4, 1280, 2)

    def test_one_entry(self):
        fractions, move = action_catalog(SimConfig(num_devices=2), 7)
        assert fractions.shape == (4, 2)
        assert fractions.T.tolist() == [[0.3] * 4, [0.3, 0.3, 0.3, 0.6]]
        assert move == 2

    def test_moves_iterate_innermost(self):
        fr, moves = every_entry(small_config())
        assert device_fractions(fr, 0) == ((0.3, 0.3, 0.3, 0.3),)
        assert moves[0] == STAY
        assert moves[:5].tolist() == [0, 1, 2, 3, 4]
        # after a full move cycle the last fraction coordinate flips
        assert device_fractions(fr, 5) == ((0.3, 0.3, 0.3, 0.6),)
        assert moves[5] == STAY
        assert device_fractions(fr, -1) == ((0.6, 0.6, 0.6, 0.6),)
        assert moves[-1] == 4

    def test_entries_unique(self):
        fr, moves = every_entry(SimConfig(num_devices=2))
        entries = {(device_fractions(fr, i), int(moves[i]))
                   for i in range(len(moves))}
        assert len(entries) == len(moves)

    @pytest.mark.parametrize("cfg", [
        small_config(), SimConfig(num_devices=2), SimConfig(num_devices=3),
        small_config(frac_levels=(0.0, 0.3, 0.6)),
        SimConfig(num_devices=2, frac_levels=(0.0, 0.3, 0.6))])
    def test_matches_reference_table(self, cfg):
        fractions, moves = every_entry(cfg)
        ref_fractions, ref_moves = reference_catalog(cfg)
        assert np.array_equal(fractions, ref_fractions)
        assert np.array_equal(moves, ref_moves)

    def test_catalog_cap(self):
        # max_catalog_size caps the dqn's head only: the decoder reaches
        # every entry of a larger catalog, up to what int64 indexes
        cfg = SimConfig(num_devices=3)
        assert cfg.catalog_size > cfg.max_catalog_size
        fractions, move = action_catalog(cfg, cfg.catalog_size - 1)
        assert fractions.tolist() == [[0.6] * 3] * 4 and move == 4
        cfg = SimConfig(num_devices=15)
        assert cfg.catalog_size <= MAX_INDEXED_CATALOG
        fractions, move = action_catalog(cfg, cfg.catalog_size - 1)
        assert fractions.tolist() == [[0.6] * 15] * 4 and move == 4
        with pytest.raises(IndexError, match="int64"):
            action_catalog(SimConfig(num_devices=16), 0)

    @pytest.mark.parametrize("cfg", [
        SimConfig(num_devices=1), SimConfig(num_devices=2),
        SimConfig(num_devices=1, frac_levels=(0.0, 0.3, 0.6))])
    def test_size_matches_config(self, cfg):
        action_catalog(cfg, cfg.catalog_size - 1)
        for outside in (cfg.catalog_size, -1, [0, cfg.catalog_size]):
            with pytest.raises(IndexError, match="outside catalog"):
                action_catalog(cfg, outside)

    def test_cached_tables_follow_the_levels(self):
        # the decoder keeps its level values and place values per
        # (frac_levels, K, rank); each config still decodes to its own
        for levels in ((0.3, 0.6), (0.0, 0.5, 1.0), (0.3, 0.6)):
            cfg = SimConfig(frac_levels=levels)
            fractions, moves = every_entry(cfg)
            want_fractions, want_moves = reference_catalog(cfg)
            assert np.array_equal(fractions, want_fractions)
            assert np.array_equal(moves, want_moves)
            index = 5 * len(levels) ** 8 - 1
            assert np.array_equal(action_catalog(cfg, index)[0],
                                  want_fractions[:, index])
        tables = environment._catalog_digits((0.3, 0.6), 2, 1)
        for table in tables:
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0

    def test_no_index(self):
        # an empty batch of indices decodes to empty rows, not a bounds error
        fractions, moves = action_catalog(SimConfig(num_devices=2), [])
        assert fractions.shape == (4, 0, 2) and moves.shape == (0,)
        assert moves.dtype == np.int64
        fractions, moves = action_catalog(small_config(),
                                          np.zeros(0, np.int64))
        assert fractions.shape == (4, 0, 1) and moves.shape == (0,)

    def test_move_tables_consistent(self):
        assert len(MOVES) == 5
        assert MOVES[STAY] == (0.0, 0.0)


class TestObservation:
    """observe() gives the network's input: levels over queue_levels - 1."""

    def test_size(self):
        assert observation_size(SimConfig(num_devices=2)) == 6
        assert observation_size(
            SimConfig(num_devices=2, include_uav_position=True)) == 8

    def test_reset_gives_zero_levels(self):
        env = one(small_config())
        assert env.observe().tolist() == [[0.0, 0.0, 0.0]]

    def test_discretization(self):
        env = one(small_config())
        cap = env.config.queue_cap
        env.backlog[:, 0] = [[0.0], [0.55 * cap], [2.0 * cap]]
        assert env.observe()[0].tolist() == [0.0, 5 / 9, 1.0]

    def test_device_major_order(self):
        env = one(SimConfig(num_devices=2))
        cap = env.config.queue_cap
        env.backlog[:, 0] = [[0.05 * cap, 0.0],
                             [0.15 * cap, 0.95 * cap],
                             [0.25 * cap, 0.35 * cap]]
        assert env.observe()[0].tolist() == [0.0, 1 / 9, 2 / 9,
                                             0.0, 1.0, 3 / 9]

    def test_zero_cap_puts_any_backlog_on_top(self):
        env = one(small_config(i_max=0.0))
        env.backlog[:, 0] = [[0.0], [1.0], [5e9]]
        assert env.observe()[0].tolist() == [0.0, 1.0, 1.0]
        # the top level is 1 whatever queue_levels is
        env = one(small_config(i_max=0.0, queue_levels=4))
        env.backlog[:, 0] = [[3.0], [0.0], [1.0]]
        assert env.observe()[0].tolist() == [1.0, 0.0, 1.0]

    def test_uav_position_suffix(self):
        # the levels are scaled, the suffix is the position over the area
        # size; a realization's own observe() gives the suffix alone
        env = one(small_config(include_uav_position=True, queue_levels=5))
        cap = env.config.queue_cap
        env.backlog[:, 0] = [[0.3 * cap], [0.0], [cap]]
        obs = env.observe()[0]
        assert obs.tolist() == [1 / 4, 0.0, 1.0, 0.5, 0.5]
        assert env.envs[0].observe().tolist() == [0.5, 0.5]
        assert one(small_config()).envs[0].observe().shape == (0,)

    def test_levels_scaled_by_normalize_observation(self):
        # observe() scales the bucketed levels with the one scaling the
        # rest of the package names
        cfg = small_config(include_uav_position=True, queue_levels=7)
        env = one(cfg)
        cap = cfg.queue_cap
        env.backlog[:, 0] = [[0.2 * cap], [0.5 * cap], [0.9 * cap]]
        raw = np.array([[1.0, 3.0, 6.0, 0.5, 0.5]])
        assert np.array_equal(env.observe(), normalize_observation(raw, cfg))

    @pytest.mark.parametrize("cfg", [
        SimConfig(num_devices=2, n_intervals=60, q_cap=2e5),
        small_config(n_intervals=60, include_uav_position=True,
                     area_size=50.0, q_cap=1e5, queue_levels=3),
    ])
    def test_every_row_in_unit_interval(self, cfg):
        batch = Lockstep(cfg, [1, 2, 3])
        actions = np.random.default_rng(2).integers(
            0, cfg.catalog_size, size=(cfg.n_intervals, 3))
        seen = set()
        for row in actions:
            batch.step(*action_catalog(cfg, row))
            obs = batch.observe()
            assert obs.shape == (3, observation_size(cfg))
            assert np.all((obs >= 0.0) & (obs <= 1.0))
            seen.update(obs[:, :3 * cfg.num_devices].ravel().tolist())
        assert {0.0, 1.0} <= seen


class TestReset:
    def test_initial_state(self):
        cfg = small_config()
        batch = one(cfg, seed=1)
        env = batch.envs[0]
        assert batch.n == 0 and not batch.done
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
        # a config is validated when built, so values that would break c1-c4
        # never reach an environment: validate() rejects them with its own
        # message
        message = {"c1_power": "p_max must be positive",
                   "c2_offload_fracs": "frac_levels",
                   "c3_compute_fracs": "w_local",
                   "c4_local_cpu": "local_cpu_max"}[name]
        with pytest.raises(ConfigError, match=message):
            MecEnvironment(small_config(**overrides))

    def test_step_does_not_recheck(self, monkeypatch):
        env = one(small_config())

        def fail(*args, **kwargs):
            raise AssertionError("check_feasibility called by step()")

        monkeypatch.setattr(obj, "check_feasibility", fail)
        while not env.done:
            step_entry(env, 0)


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
        env = one(cfg.validate(), seed=4)
        rng = np.random.default_rng(8)
        # the fixed powers and CPU shares step() applies to every device
        cpu_local, cpu_uav, cpu_cloud = np.broadcast_to(
            env._tier_cpus, (3, cfg.num_devices))
        while not env.done:
            fractions, move = action_catalog(
                cfg, [rng.integers(0, cfg.catalog_size)])
            prev = env.envs[0].uav_pos
            rec = env.step(fractions, move).realization(0)
            new = env.envs[0].uav_pos
            rows = fractions[:, 0].T   # x_uav, x_cloud, w_uav, w_cloud
            report = obj.check_feasibility(
                fractions=np.insert(rows, 2, cfg.w_local, axis=1),
                tx_powers=np.full(cfg.num_devices, cfg.p_max),
                cpu_local=cpu_local,
                cpu_uav=cpu_uav, cpu_cloud=cpu_cloud,
                prev_pos=prev, new_pos=new,
                total_delays=comp.total_task_delay(rec.delays), config=cfg)
            failed = [name for name, ok in vars(report).items()
                      if name.startswith("c") and name != "c10_delay"
                      and not ok]
            assert failed == []


class TestStepContracts:
    def test_zero_arrivals_stay_empty(self):
        env = one(small_config(i_max=0.0))
        rec = step_entry(env, 0)
        assert rec.reward_per_device.tolist() == [0.0]
        assert env.backlog[:, 0].tolist() == [[0.0], [0.0], [0.0]]
        assert rec.b_tot.tolist() == [0.0]

    def test_episode_termination(self):
        env = one(small_config())
        for i in range(5):
            step_entry(env, 0)
            assert env.done == (i == 4)
        assert env.done
        with pytest.raises(RuntimeError):
            step_entry(env, 0)

    def test_bad_action_index(self):
        # the decoder checks the range; step() takes values
        env = one(small_config())
        with pytest.raises(IndexError):
            step_entry(env, 80)
        with pytest.raises(IndexError):
            step_entry(env, -1)
        assert env.n == 0

    @pytest.mark.parametrize("move", [-1, len(MOVES)])
    def test_bad_move(self, move):
        # a negative move must not wrap around to the last one
        env = one(small_config())
        fractions = action_catalog(env.config, [0])[0]
        pos = env.envs[0].uav_pos
        with pytest.raises(IndexError, match="move"):
            env.step(fractions, [move])
        assert env.n == 0 and env.envs[0].uav_pos == pos
        assert untouched(env, [0])

    def test_uav_moves_and_clips(self):
        cfg = small_config(n_intervals=100)
        batch = one(cfg)
        env = batch.envs[0]
        start = env.uav_pos
        step_entry(batch, 1)  # +x
        assert env.uav_pos.x == pytest.approx(start.x + cfg.v_max * cfg.tau)
        assert env.uav_pos.y == start.y
        rng = np.random.default_rng(0)
        while not batch.done:
            step_entry(batch, rng.integers(0, cfg.catalog_size))
            assert 0.0 <= env.uav_pos.x <= cfg.area_size
            assert 0.0 <= env.uav_pos.y <= cfg.area_size

    def test_speed_constraint_always_met(self):
        cfg = small_config(n_intervals=50)
        batch = one(cfg, seed=3)
        env = batch.envs[0]
        rng = np.random.default_rng(1)
        while not batch.done:
            prev = env.uav_pos
            step_entry(batch, rng.integers(0, cfg.catalog_size))
            # c7 (speed) and c9 (area), measured on the move itself
            assert prev.displacement(env.uav_pos) <= (
                cfg.v_max * cfg.tau * (1 + 1e-12))
            assert 0.0 <= env.uav_pos.x <= cfg.area_size
            assert 0.0 <= env.uav_pos.y <= cfg.area_size

    def test_stay_keeps_the_position(self):
        env = MecEnvironment(small_config(), seed=1)
        batch = Lockstep(small_config(), [1, 2])
        pos, ranges = env.uav_pos, env._ranges
        env.step(STAY)
        batch.step(*action_catalog(env.config, [STAY, STAY]))
        assert env.uav_pos is pos and env._ranges is ranges
        stayed, moved = batch.envs
        pos, ranges, start = stayed.uav_pos, stayed._ranges, moved.uav_pos
        batch.step(*action_catalog(env.config, [STAY, 1]))
        assert stayed.uav_pos is pos and stayed._ranges is ranges
        assert moved.uav_pos == ch.Position2D(start.x + 30.0, start.y)

    def test_terminal_distance(self):
        env = one(small_config())
        assert env.terminal_distance() == [0.0]
        step_entry(env, 1)
        assert env.terminal_distance() == [pytest.approx(30.0)]


class TestStepPhysics:
    def test_reward_recomputable_from_record(self):
        env = one(SimConfig(num_devices=2, n_intervals=20), seed=5)
        rng = np.random.default_rng(2)
        while not env.done:
            rec = step_entry(env, rng.integers(0, env.config.catalog_size))
            for k in range(2):
                want = reward_fn(device(rec.queues_before, k),
                                 device(rec.splits, k),
                                 float(rec.t_comm[k]), float(rec.hist_pde[k]),
                                 env.config, int(rec.eta[k]))
                assert rec.reward_per_device[k] == pytest.approx(want,
                                                                 rel=1e-12)

    def test_queue_trajectory_matches_external_replay(self):
        # replay the episode's queue dynamics outside the environment using
        # only the recorded arrivals and the chosen fraction tuples
        cfg = SimConfig(num_devices=2, n_intervals=30)
        env = one(cfg, seed=9)
        rng = np.random.default_rng(4)
        shadow = [QueueTriple(0.0, 0.0, 0.0) for _ in range(2)]
        while not env.done:
            fractions, move = action_catalog(
                cfg, [rng.integers(0, cfg.catalog_size)])
            rec = env.step(fractions, move).realization(0)
            for k in range(2):
                assert device(rec.queues_before, k) == shadow[k]
                xu, xc, wu, wc = fractions[:, 0, k].tolist()
                s = compute_splits(shadow[k], xu, xc, cfg.w_local, wu, wc)
                shadow[k] = QueueTriple(*step_queues(
                    np.array(dataclasses.astuple(shadow[k])), split_stack(s),
                    float(rec.arrivals[k])).tolist())
            assert [QueueTriple(*tiers)
                    for tiers in env.backlog[:, 0].T.tolist()] == shadow

    def test_record_holds_device_arrays(self):
        # (R, K) arrays in the Lockstep's record, (K,) in a realization's
        env = one(SimConfig(num_devices=2, n_intervals=5), seed=1)
        batch_rec = env.step(*action_catalog(env.config, [7]))
        for rec, shape in ((batch_rec, (1, 2)),
                           (batch_rec.realization(0), (2,))):
            for container in (rec.queues_before, rec.splits, rec.delays):
                for f in dataclasses.fields(container):
                    assert getattr(container, f.name).shape == shape
            for name in ("power_gains", "sinrs", "rates", "t_comm", "b_tot",
                         "eta", "hist_pde", "reward_per_device", "arrivals"):
                assert getattr(rec, name).shape == shape
            assert comp.total_task_delay(rec.delays).shape == shape

    def test_fraction_table_matches_catalog(self):
        # the decoder against the nested enumeration it encodes: every
        # device's fraction tuple, last device fastest, moves innermost
        cfg = SimConfig(num_devices=2)
        fractions, moves = every_entry(cfg)
        per_device = itertools.product(cfg.frac_levels, repeat=4)
        nested = [(fracs, move)
                  for fracs in itertools.product(per_device, repeat=2)
                  for move in range(len(MOVES))]
        assert len(nested) == len(moves)
        for i, (fracs, move) in enumerate(nested):
            assert device_fractions(fractions, i) == fracs
            assert moves[i] == move

    def test_fractions_outside_levels(self):
        # step() takes any fraction values, not only the catalog's levels
        cfg = small_config(frac_levels=(0.3, 0.6))
        env = one(cfg, seed=2)
        env.backlog[:, 0] = [[1000.0], [1000.0], [1000.0]]
        rec = env.step(np.array([[[0.5]], [[0.0]], [[0.25]], [[1.0]]]),
                       [STAY]).realization(0)
        assert rec.splits.d_uav.tolist() == [500.0]
        assert rec.splits.b_local.tolist() == [cfg.w_local * 500.0]
        assert rec.splits.d_cloud.tolist() == [0.0]
        assert rec.splits.b_uav.tolist() == [250.0]
        assert rec.splits.b_cloud.tolist() == [1000.0]
        assert rec.delays.t_cloud_comm.tolist() == [0.0]

    def test_split_stack_follows_compute_splits(self):
        # the record's split stack equals compute_splits' amounts, bit for
        # bit, for every entry and random backlogs
        cfg = SimConfig(num_devices=2, frac_levels=(0.0, 0.3, 0.6, 1.0),
                        w_local=0.35)
        fractions, moves = action_catalog(
            cfg, np.random.default_rng(3).integers(0, cfg.catalog_size, 400))
        batch = Lockstep(cfg, range(400))
        batch.backlog = np.random.default_rng(4).uniform(
            0.0, 1e6, (3, 400, 2))
        want = split_stack(compute_splits(
            QueueTriple(*batch.backlog), *fractions[:2], cfg.w_local,
            *fractions[2:]))
        rec = batch.step(fractions, moves)
        got = split_stack(rec.splits)
        assert np.array_equal(got, want)
        assert np.array_equal(rec.delays.t_cloud_comm, phy.cloud_comm_delay(
            fractions[1], cfg.install_delay))

    def test_one_compute_splits_call_per_step(self, monkeypatch):
        # the step runs the split law that criteria 1 and 2 check, once per
        # interval for a Lockstep's R realizations, one as in training
        calls = []

        def spy(queues, *fractions):
            calls.append(queues.q_local.shape)
            return compute_splits(queues, *fractions)

        monkeypatch.setattr(qs, "compute_splits", spy)
        cfg = small_config(num_devices=2)
        step_entry(one(cfg, seed=1), 0)
        Lockstep(cfg, range(3)).step(*action_catalog(cfg, np.zeros(3, int)))
        assert calls == [(1, 2), (3, 2)]

    @pytest.mark.parametrize("realizations", [None, 2])
    def test_one_delay_pass_matches_separate_calls(self, realizations):
        # the compute delays and the uplink delay come from one comp_delay
        # pass: each equals its own call bit for bit. Device 0 has nothing
        # to do, devices 1 and 2 a zero rate, with and without uplink traffic.
        # None is the one realization of training.
        cfg = SimConfig(num_devices=4, n_intervals=5)
        batch = Lockstep(cfg, range(realizations or 1))
        shape = batch.backlog.shape[1:]
        batch.backlog = np.full((3,) + shape, 1e5)
        batch.backlog[..., 0] = 0.0
        fractions = np.empty((4,) + shape)
        fractions.T[...] = (0.6, 0.3, 0.3, 0.6)
        fractions[0, ..., 2] = 0.0
        gains = np.full(shape, 1e-9)
        gains[..., 1:3] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = batch._advance(fractions, gains, np.zeros(shape))
        d, s = rec.delays, rec.splits
        assert np.array_equal(d.t_uplink_comm,
                              phy.uplink_comm_delay(s.d_uav, rec.rates))
        for delay, bits, cpu in (
                (d.t_local_comp, s.b_local, cfg.local_cpu_max),
                (d.t_uav_comp, s.b_uav, cfg.uav_cpu_per_device),
                (d.t_cloud_comp, s.b_cloud, cfg.cloud_cpu_per_device)):
            assert np.array_equal(
                delay, comp.comp_delay(bits, cpu, cfg.cycles_per_bit))
        assert np.all(rec.rates[..., 1:3] == 0.0)
        assert np.all(d.t_uplink_comm[..., :3] == [0.0, math.inf, 0.0])
        for delay in (d.t_local_comp, d.t_uav_comp, d.t_cloud_comp):
            assert np.all(delay[..., 0] == 0.0)

    def test_rates_follow_shannon(self):
        cfg = small_config()
        env = one(cfg, seed=11)
        rec = step_entry(env, 0)
        g = float(rec.power_gains[0])
        want_sinr = cfg.p_max * g / cfg.noise_power
        assert rec.sinrs[0] == pytest.approx(want_sinr, rel=1e-12)
        assert rec.rates[0] == pytest.approx(
            cfg.bandwidth * np.log2(1.0 + want_sinr), rel=1e-12)

    def test_cloud_install_delay_gating(self):
        env = one(small_config(), seed=2)
        env.backlog[:, 0] = [[1000.0], [1000.0], [0.0]]
        rec = step_entry(env, 0)  # x_cloud = 0.3 > 0 pays the install delay
        assert rec.delays.t_cloud_comm[0] == env.config.install_delay

    @pytest.mark.parametrize("rice_k", [10.0, 0.0, math.inf])
    def test_draws_through_the_one_sampler(self, rice_k):
        # the gains price rician_sample's amplitudes at the slant ranges,
        # and the arrivals are the stream's next draw
        cfg = SimConfig(num_devices=3, rician_k=rice_k)
        env = MecEnvironment(cfg, seed=5)
        twin = np.random.default_rng()
        twin.bit_generator.state = env.rng.bit_generator.state
        for move in (1, STAY, 3, 2):
            gains, arrivals = env.step(move)
            ranges = [ch.distance(env.uav_pos, dev, cfg.altitude)
                      for dev in env.device_positions]
            fading = ch.rician_sample(twin, cfg.rician_k, cfg.num_devices)
            assert gains == [ch.channel_gain(d, cfg, rho)
                             for d, rho in zip(ranges, fading)]
            assert arrivals.tolist() == qs.draw_arrival(
                twin, cfg.i_max, cfg.num_devices).tolist()
        assert env.rng.bit_generator.state == twin.bit_generator.state

    def test_determinism_full_episode(self):
        def run():
            env = one(SimConfig(num_devices=2, n_intervals=25), seed=13)
            rng = np.random.default_rng(6)
            out = []
            while not env.done:
                rec = step_entry(env, rng.integers(0, env.config.catalog_size))
                out.append((tuple(rec.reward_per_device),
                            tuple(rec.power_gains), tuple(rec.arrivals),
                            env.envs[0].uav_pos))
            return out

        assert run() == run()


class TestRewardWhenRead:
    """A record computes its reward when it is first read; evaluation
    reads none."""

    def _spy(self, monkeypatch):
        calls = []
        reward = obj.reward

        def spy(*args):
            calls.append(args)
            return reward(*args)
        monkeypatch.setattr(obj, "reward", spy)
        return calls

    @pytest.mark.parametrize("policy", ["dqn", "random", "uav_heavy"])
    def test_evaluation_computes_no_reward(self, monkeypatch, policy):
        cfg = SimConfig(n_intervals=5)
        net = QNetwork(observation_size(cfg), cfg.hidden_sizes,
                       cfg.catalog_size, rng=np.random.default_rng(0))
        calls = self._spy(monkeypatch)
        harness.run_eval(policy, cfg, seed=0, realizations=3,
                         net=net if policy == "dqn" else None)
        assert calls == []

    def test_training_computes_one_reward_per_interval(self, monkeypatch):
        calls = self._spy(monkeypatch)
        train(SimConfig(n_intervals=5, episodes=2), seed=0)
        assert len(calls) == 10

    def test_a_collected_record_computes_its_reward_once(self, monkeypatch,
                                                         tmp_path):
        cfg = SimConfig(n_intervals=4)
        calls = self._spy(monkeypatch)
        _, records = harness.run_eval("random", cfg, seed=1, realizations=3,
                                      collect_records=True)
        assert calls == []
        harness.dump_trajectory(records, str(tmp_path / "traj.csv"))
        assert len(calls) == cfg.n_intervals
        assert all(call[4] is cfg for call in calls)
        for rec in records:
            assert rec.reward_per_device is rec.reward_per_device
        assert len(calls) == cfg.n_intervals

    def test_a_realization_row_keeps_its_reward(self):
        cfg = SimConfig(n_intervals=3, tau=TIGHT_TAU, violation_penalty=1e4)
        batch = Lockstep(cfg, [1, 2, 3])
        rng = np.random.default_rng(2)
        while not batch.done:
            rec = batch.step(*action_catalog(
                cfg, rng.integers(0, cfg.catalog_size, 3)))
            for r in range(3):
                assert np.array_equal(rec.realization(r).reward_per_device,
                                      rec.reward_per_device[r])


def assert_same_values(a, b):
    """Every field of two records (nested dataclasses of arrays) bit for
    bit, and their rewards, which are not fields."""
    if isinstance(a, IntervalRecord):
        assert np.array_equal(a.reward_per_device, b.reward_per_device)
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_same_values(getattr(a, f.name), getattr(b, f.name))
    else:
        assert np.array_equal(a, b), (a, b)


class TestLockstep:
    """R realizations stepped together match R one-realization runs."""

    @pytest.mark.parametrize("cfg", [
        SimConfig(num_devices=2, n_intervals=30),
        small_config(n_intervals=30, include_uav_position=True,
                     area_size=50.0),
    ])
    def test_matches_separate_realizations(self, cfg):
        seeds = [11, 12, 13]
        actions = np.random.default_rng(4).integers(
            0, cfg.catalog_size, size=(cfg.n_intervals, len(seeds)))
        batch = Lockstep(cfg, seeds)
        obs = batch.observe()
        singles = [one(cfg, seed=s) for s in seeds]
        assert np.array_equal(obs, [env.observe()[0] for env in singles])
        for n in range(cfg.n_intervals):
            rec = batch.step(*action_catalog(cfg, actions[n]))
            for r, env in enumerate(singles):
                u = step_entry(env, actions[n, r])
                assert np.array_equal(batch.observe()[r], env.observe()[0])
                assert_same_values(rec.realization(r), u)
                assert np.array_equal(batch.backlog[:, r], env.backlog[:, 0])
                assert batch.envs[r].uav_pos == env.envs[0].uav_pos
                assert np.array_equal(batch.observe()[r, 3 * cfg.num_devices:],
                                      batch.envs[r].observe())
            assert batch.done == env.done
        assert batch.terminal_distance() == [env.terminal_distance()[0]
                                             for env in singles]
        assert [e.device_positions for e in batch.envs] == \
            [env.envs[0].device_positions for env in singles]

    def test_one_action_per_realization(self):
        cfg = small_config()
        env = Lockstep(cfg, [1, 2])
        fractions, moves = action_catalog(cfg, [0, 79])
        with pytest.raises(ValueError, match="shape"):
            env.step(fractions, [0, 0, 0])
        with pytest.raises(ValueError, match="shape"):
            env.step(fractions[:, :1], moves[:1])
        with pytest.raises(ValueError, match="shape"):
            env.step(fractions[:, 0], 0)
        with pytest.raises(IndexError):
            action_catalog(cfg, [0, 80])
        assert env.n == 0 and untouched(env, [1, 2])
        assert env.step(fractions, moves).reward_per_device.shape == (2, 1)

    def test_fixed_policy_record(self):
        # a fixed baseline's action: each per-device field of the record is
        # (R, K), so a realization's record is its own rows
        cfg = SimConfig(num_devices=3, n_intervals=4)
        fractions, moves = fixed_action("cloud_heavy", (2, 3))
        batch = Lockstep(cfg, [5, 6])
        singles = [one(cfg, seed=s) for s in (5, 6)]
        while not batch.done:
            rec = batch.step(fractions, moves)
            for name in ("power_gains", "sinrs", "rates", "t_comm", "b_tot",
                         "eta", "hist_pde", "reward_per_device", "arrivals"):
                assert getattr(rec, name).shape == (2, 3)
            for container in (rec.queues_before, rec.splits, rec.delays):
                for f in dataclasses.fields(container):
                    assert getattr(container, f.name).shape == (2, 3)
            for r, env in enumerate(singles):
                u = env.step(*fixed_action("cloud_heavy", (1, 3)))
                assert_same_values(rec.realization(r), u.realization(0))

    @pytest.mark.parametrize("move", [-1, len(MOVES), 1.0])
    def test_bad_move(self, move):
        # checked before any realization moves or draws: outside the range,
        # or not an integer (a float array of whole numbers included)
        cfg = small_config()
        batch = Lockstep(cfg, [1, 2])
        fractions = action_catalog(cfg, [0, 0])[0]
        with pytest.raises(IndexError, match="move"):
            batch.step(fractions, [STAY, move])
        with pytest.raises(IndexError, match="move"):
            batch.step(fractions, np.array([move, STAY], dtype=float))
        assert batch.n == 0 and untouched(batch, [1, 2])
        assert [(e.uav_pos.x, e.uav_pos.y) for e in batch.envs] == \
            [cfg.area_center] * 2

    @pytest.mark.parametrize("seeds", [[], iter(())])
    def test_needs_a_seed(self, seeds):
        with pytest.raises(ValueError, match="at least one seed"):
            Lockstep(small_config(), seeds)

    def test_realizations_are_seeded_environments(self):
        cfg = small_config(n_intervals=3)
        batch = Lockstep(cfg, [7, 8])
        for env, seed in zip(batch.envs, (7, 8)):
            fresh = one(cfg, seed)
            assert env.device_positions == fresh.envs[0].device_positions
            # a realization's step() returns its own draws
            gains, arrivals = env.step(STAY)
            record = fresh.step(*action_catalog(cfg, [0]))
            assert gains == record.power_gains[0].tolist()
            assert np.array_equal(arrivals, record.arrivals[0])


# -- reference stepper ------------------------------------------------------
#
# The interval step as it stood before the stages ran on one stacked backlog
# with a split stack built from the fraction rows, before one draw gave each
# interval's channel normals, and before the catalog became a decoder: the
# catalog as reference_catalog's tables, the backlogs as a QueueTriple of
# (K,) or (R, K) arrays, 2K scalar normal draws per realization, and each
# delay computed on its own. The laws of the channel gain, the noise power,
# the arrivals, the delays, the delay bound and the reward are written out
# here as plain expressions, so a change to the functions that run them moves
# only one side; the split law (criteria 1 and 2 check it against their own
# oracle), the SINR, the rate and the distance are called by name.
# A Lockstep of one realization and one of three, stepped with
# action_catalog's values, must match it bit for bit.


def reference_rician_sample(rng, rice_k):
    if math.isinf(rice_k):
        return 1.0 + 0j
    nlos = (rng.standard_normal(None) + 1j * rng.standard_normal(None)) \
        / math.sqrt(2.0)
    los_w = math.sqrt(rice_k / (rice_k + 1.0))
    nlos_w = math.sqrt(1.0 / (rice_k + 1.0))
    return los_w + nlos_w * nlos


def reference_channel_gain(d, config, rng):
    eta0 = 10.0 ** (config.eta0_db / 10.0)
    amp = math.sqrt(eta0 * d ** (-config.path_loss_exp)) \
        * reference_rician_sample(rng, config.rician_k)
    return abs(amp) ** 2


def reference_delay(work, capacity):
    """work / capacity; 0 without work, inf at zero capacity."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(work > 0.0, work / capacity, 0.0)


def reference_observation(config, queues, uav_pos):
    tiers = np.array((queues.q_local, queues.q_uav, queues.q_cloud))
    backlog = tiers.transpose(*range(1, tiers.ndim), 0).reshape(
        tiers.shape[1:-1] + (-1,))
    top = config.queue_levels - 1
    cap = config.queue_cap
    levels = (np.minimum(top, np.floor(config.queue_levels * backlog / cap))
              if cap > 0.0 else top)
    out = np.where(backlog <= 0.0, 0.0, levels) / top
    if config.include_uav_position:
        uav = np.stack((uav_pos.x, uav_pos.y), axis=-1)
        out = np.concatenate([out, uav / config.area_size], axis=-1)
    return out


class ReferenceEnv:
    """One realization: its stream, placement, UAV position and backlogs."""

    def __init__(self, config, seed):
        cfg = self.config = config.validate()
        self._fraction_rows, self.moves = reference_catalog(cfg)
        self._step_len = cfg.v_max * cfg.tau
        self._tx_powers = np.full(cfg.num_devices, cfg.p_max)
        self._tier_cpus = np.array([[cfg.local_cpu_max],
                                    [cfg.uav_cpu_per_device],
                                    [cfg.cloud_cpu_per_device]])
        self.rng = np.random.default_rng(seed)
        self.n = 0
        self.device_positions = [
            ch.Position2D(self.rng.uniform(0.0, cfg.area_size),
                          self.rng.uniform(0.0, cfg.area_size))
            for _ in range(cfg.num_devices)]
        self.uav_pos = ch.Position2D(*cfg.area_center)
        self.queues = QueueTriple(*np.zeros((3, cfg.num_devices)))
        self.acc = obj.PdeAccumulator(cfg.num_devices)

    def observe(self):
        return reference_observation(self.config, self.queues, self.uav_pos)

    def draw(self, action_index):
        """Move the UAV, then draw the channel gains and the arrivals."""
        cfg = self.config
        size = cfg.area_size
        dx, dy = MOVES[self.moves[action_index]]
        pos = self.uav_pos
        self.uav_pos = ch.Position2D(
            min(size, max(0.0, pos.x + dx * self._step_len)),
            min(size, max(0.0, pos.y + dy * self._step_len)))
        gains = [reference_channel_gain(
            ch.distance(self.uav_pos, dev, cfg.altitude), cfg, self.rng)
            for dev in self.device_positions]
        arrivals = (self.rng.uniform(0.0, cfg.i_max, cfg.num_devices)
                    if cfg.i_max > 0.0 else np.zeros(cfg.num_devices))
        return gains, arrivals

    def step(self, action_index):
        """The interval's record and its rewards."""
        gains, arrivals = self.draw(action_index)
        out = reference_advance(self, self, action_index, np.array(gains),
                                arrivals)
        self.n += 1
        return out


class ReferenceLockstep:
    """R reference realizations; _advance runs once on (R, K) arrays."""

    def __init__(self, config, seeds):
        self.envs = [ReferenceEnv(config, seed) for seed in seeds]
        shape = (len(self.envs), config.num_devices)
        self.config = config
        self.n = 0
        self.queues = QueueTriple(*np.zeros((3,) + shape))
        self.acc = obj.PdeAccumulator(shape)

    def observe(self):
        return reference_observation(self.config, self.queues, self.uav_pos)

    def step(self, actions):
        drawn = [env.draw(a) for env, a in zip(self.envs, actions.tolist())]
        gains, arrivals = (np.array(rows) for rows in zip(*drawn))
        self.uav_pos = ch.Position2D(
            np.array([env.uav_pos.x for env in self.envs]),
            np.array([env.uav_pos.y for env in self.envs]))
        out = reference_advance(self.envs[0], self, actions, gains, arrivals)
        self.n += 1
        return out


def reference_step_queues(q, s, arrival):
    return QueueTriple(
        q_local=np.maximum(0.0, q.q_local - s.d_uav - s.b_local) + arrival,
        q_uav=np.maximum(0.0, q.q_uav - s.d_cloud - s.b_uav) + s.d_uav,
        q_cloud=np.maximum(0.0, q.q_cloud - s.b_cloud) + s.d_cloud,
    )


def reference_advance(env, state, actions, gains, arrivals):
    """The interval's record, and its rewards as the reference computes
    them (the record computes its own when read)."""
    cfg = env.config
    x_uav, x_cloud, w_uav, w_cloud = env._fraction_rows[:, actions]

    noise_power = 10.0 ** ((cfg.noise_density_dbm - 30.0) / 10.0) \
        * cfg.bandwidth
    sinrs = phy.sinr(gains, env._tx_powers, noise_power)
    rates = np.array([phy.rate(g, cfg.bandwidth)
                      for g in sinrs.flat]).reshape(sinrs.shape)

    q = queues = state.queues
    s = splits = qs.compute_splits(queues, x_uav, x_cloud, cfg.w_local,
                                   w_uav, w_cloud)

    local_cpu, uav_cpu, cloud_cpu = env._tier_cpus[:, 0]
    c = cfg.cycles_per_bit
    delays = comp.DelayBreakdown(
        t_local_comp=reference_delay(s.b_local * c, local_cpu),
        t_uplink_comm=reference_delay(s.d_uav, rates),
        t_uav_comp=reference_delay(s.b_uav * c, uav_cpu),
        t_cloud_comm=np.where(x_cloud > 0.0, cfg.install_delay, 0.0),
        t_cloud_comp=reference_delay(s.b_cloud * c, cloud_cpu),
    )
    t_comm = delays.t_uplink_comm + delays.t_cloud_comm
    total_delay = (np.maximum(delays.t_local_comp, delays.t_uplink_comm)
                   + np.maximum(delays.t_uav_comp, delays.t_cloud_comm)
                   + delays.t_cloud_comp)
    eta = (total_delay <= cfg.tau).astype(int)

    hist_pde = state.acc.device_pde()
    b_tot = s.b_local + s.b_uav + s.b_cloud
    met = eta == 1
    drain = (cfg.v1 * q.q_local * (s.b_local + s.d_uav)
             - cfg.v2 * q.q_uav * (s.d_uav - s.b_uav - s.d_cloud)
             - cfg.v3 * q.q_cloud * (s.d_cloud - s.b_cloud))
    gain = cfg.v4 * (b_tot - np.where(met, t_comm, 0.0) * hist_pde)
    rewards = drain + np.where(met, gain, -cfg.violation_penalty)

    state.queues = reference_step_queues(queues, splits, arrivals)
    state.acc.record_interval(b_tot, t_comm)

    record = IntervalRecord(
        interval=state.n, queues_before=queues,
        splits=splits, power_gains=gains, sinrs=sinrs, rates=rates,
        delays=delays, t_comm=t_comm, b_tot=b_tot, eta=eta,
        hist_pde=hist_pde, arrivals=arrivals, config=cfg)
    return record, rewards


def stacked(queues):
    """A QueueTriple's backlogs as one (3, ...) array."""
    return np.array((queues.q_local, queues.q_uav, queues.q_cloud))


# About the median end-to-end task delay of these runs (about 48 s).
TIGHT_TAU = 50.0

REFERENCE_CONFIGS = {
    "default": SimConfig(n_intervals=200),
    "los": SimConfig(n_intervals=200, rician_k=math.inf),
    "no_arrivals": SimConfig(n_intervals=200, i_max=0.0),
    "uav_position": SimConfig(n_intervals=200, include_uav_position=True),
    "one_device": SimConfig(n_intervals=200, num_devices=1),
    "three_devices": SimConfig(n_intervals=200, num_devices=3),
    # Delays straddle tau, so eta takes both values and the penalty
    # applies.
    "tight_tau": SimConfig(n_intervals=200, tau=TIGHT_TAU,
                           violation_penalty=1e4),
}


class TestMatchesReferenceStepper:
    """Every output of an interval keeps the bits of the reference stepper."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_CONFIGS))
    def test_single_realization(self, name):
        cfg = REFERENCE_CONFIGS[name].validate()
        env, ref = one(cfg, seed=21), ReferenceEnv(cfg, 21)
        actions = np.random.default_rng(5).integers(
            0, cfg.catalog_size, cfg.n_intervals)
        assert np.array_equal(env.observe()[0], ref.observe())
        etas = set()
        for a in actions.tolist():
            rec = step_entry(env, a)
            record, rewards = ref.step(a)
            assert_same_values(rec, record)
            assert np.array_equal(rec.reward_per_device, rewards)
            assert np.array_equal(env.observe()[0], ref.observe())
            assert np.array_equal(env.backlog[:, 0], stacked(ref.queues))
            assert env.envs[0].uav_pos == ref.uav_pos
            etas.update(record.eta.tolist())
        assert env.done
        if name == "tight_tau":
            assert etas == {0, 1}

    @pytest.mark.parametrize("name", sorted(REFERENCE_CONFIGS))
    def test_lockstep(self, name):
        cfg = REFERENCE_CONFIGS[name].validate()
        seeds = [31, 32, 33]
        batch = Lockstep(cfg, seeds)
        ref = ReferenceLockstep(cfg, seeds)
        actions = np.random.default_rng(6).integers(
            0, cfg.catalog_size, (cfg.n_intervals, len(seeds)))
        for row in actions:
            rec = batch.step(*action_catalog(cfg, row))
            record, rewards = ref.step(row)
            assert np.array_equal(rec.reward_per_device, rewards)
            assert_same_values(rec, record)
            assert np.array_equal(batch.observe(), ref.observe())
            assert np.array_equal(batch.backlog, stacked(ref.queues))
            assert [e.uav_pos.x for e in batch.envs] == ref.uav_pos.x.tolist()
            assert [e.uav_pos.y for e in batch.envs] == ref.uav_pos.y.tolist()
        assert np.array_equal(batch.acc.per_device_processed,
                              ref.acc.per_device_processed)
        assert np.array_equal(batch.acc.per_device_delay,
                              ref.acc.per_device_delay)
