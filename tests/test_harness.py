import dataclasses
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from uavmec import agent as ag
from uavmec import environment, harness
from uavmec.config import SimConfig
from uavmec.environment import Lockstep
from uavmec.harness import (CSV_HEADER, TRAJECTORY_HEADER, ResultRow,
                            checkpoint_path, dump_trajectory, emit_csv,
                            run_eval, run_sweep)


def quick_config(**kw):
    base = dict(num_devices=1, n_intervals=10)
    base.update(kw)
    return SimConfig(**base)


class TestCheckpointPath:
    def test_layout(self):
        path = checkpoint_path("out", SimConfig(), 3)
        assert re.fullmatch(r"out/dqn_250000_3_[0-9a-f]{10}\.ckpt", path)

    def test_training_fields_change_the_key(self):
        base = checkpoint_path("out", SimConfig(), 0)
        assert checkpoint_path("out", SimConfig(learning_rate=2e-3), 0) != base
        assert checkpoint_path("out", SimConfig(), 1) != base

    def test_eval_fields_keep_the_key(self):
        base = checkpoint_path("out", SimConfig(), 0)
        for cfg in (SimConfig(eval_realizations=5),
                    SimConfig(sweep_seeds=1, sweep_i_max=(1e5,),
                              sweep_policies=("dqn",), shared_model=True)):
            assert checkpoint_path("out", cfg, 0) == base

    @pytest.mark.parametrize("overrides", [
        {"tau": 1}, {"i_max": 250000}, {"num_devices": np.int64(2)},
        {"frac_levels": (0.3, np.float64(0.6))}])
    def test_equal_configs_share_the_key(self, overrides):
        # each of these equals SimConfig() but had its own key, through
        # the repr of its int, numpy scalar or mixed tuple
        cfg = SimConfig(**overrides)
        assert cfg == SimConfig()
        assert checkpoint_path(".", cfg, 0).endswith("f62e0ad2b1.ckpt")

    def test_version_changes_the_key(self, monkeypatch):
        base = checkpoint_path("out", SimConfig(), 0)
        monkeypatch.setattr(ag, "CHECKPOINT_VERSION", 2)
        assert checkpoint_path("out", SimConfig(), 0) != base


class TestRunEval:
    def test_zero_arrivals_zero_metrics(self):
        cfg = quick_config(i_max=0.0)
        row = run_eval("uav_heavy", cfg, seed=0, realizations=2)
        assert row.mean_pde == 0.0
        # x_cloud > 0 pays the backhaul setup delay even with nothing queued
        assert row.mean_cd == pytest.approx(cfg.install_delay)
        assert row.mean_pd == 0.0
        assert row.mean_ql == row.mean_qu == row.mean_qc == 0.0
        assert row.terminal_uav_distance == 0.0

    def test_requires_positive_realizations(self):
        with pytest.raises(ValueError, match="realizations"):
            run_eval("random", quick_config(), seed=0, realizations=0)

    def test_dqn_requires_net(self):
        with pytest.raises(ValueError, match="trained network"):
            run_eval("dqn", quick_config(), seed=0, realizations=1)

    @pytest.mark.parametrize("policy", ["greedy", "dqn"])
    def test_bad_policy_fails_before_any_realization(self, monkeypatch,
                                                     policy):
        def fail(self, config, seeds):
            raise AssertionError("realizations built before the policy")

        monkeypatch.setattr(Lockstep, "__init__", fail)
        with pytest.raises(ValueError, match="unknown policy|trained network"):
            run_eval(policy, quick_config(), seed=0, realizations=1)

    def test_deterministic(self):
        a = run_eval("random", quick_config(), seed=4, realizations=3)
        b = run_eval("random", quick_config(), seed=4, realizations=3)
        assert a == b

    def test_seed_changes_result(self):
        a = run_eval("random", quick_config(), seed=4, realizations=3)
        b = run_eval("random", quick_config(), seed=5, realizations=3)
        assert a.mean_pde != b.mean_pde

    def test_single_realization_matches_record_recompute(self):
        cfg = quick_config(num_devices=2)
        row, records = run_eval("uav_heavy", cfg, seed=2, realizations=1,
                                collect_records=True)
        assert len(records) == cfg.n_intervals
        pd_total = sum(float(np.sum(r.b_tot)) for r in records)
        cd_total = sum(float(np.sum(r.t_comm)) for r in records)
        n = cfg.n_intervals
        assert row.mean_pd == pytest.approx(pd_total / n, rel=1e-12)
        assert row.mean_cd == pytest.approx(cd_total / n, rel=1e-12)
        assert row.mean_pde == pytest.approx(pd_total / cd_total, rel=1e-12)
        ql = sum(r.queues_before.q_local[k] for r in records for k in range(2))
        assert row.mean_ql == pytest.approx(ql / (n * 2), rel=1e-12)
        viols = sum(int(np.sum(1 - r.eta)) for r in records)
        assert row.c10_violation_rate == pytest.approx(viols / (n * 2))

    @pytest.mark.parametrize("policy", ["random", "uav_heavy"])
    def test_row_holds_plain_numbers(self, policy):
        row = run_eval(policy, quick_config(num_devices=2), seed=6,
                       realizations=5)
        assert {type(v) for v in dataclasses.astuple(row)[1:]} <= {int, float}

    @pytest.mark.parametrize("policy", ["random", "uav_heavy", "cloud_heavy"])
    def test_baselines_read_no_observation(self, monkeypatch, policy):
        def fail(self):
            raise AssertionError("a baseline row computed an observation")

        monkeypatch.setattr(Lockstep, "observe", fail)
        run_eval(policy, quick_config(num_devices=2), seed=1, realizations=2)

    def test_fixed_policy_rows_do_not_depend_on_frac_levels(self):
        # a fixed baseline passes its fractions as values, not as a catalog
        # entry, so levels without them give the same row, byte for byte
        cfg = quick_config(num_devices=2)
        row = run_eval("uav_heavy", cfg, seed=3, realizations=2)
        other = run_eval("uav_heavy", replace(cfg, frac_levels=(0.0, 0.5)),
                         seed=3, realizations=2)
        assert repr(dataclasses.astuple(other)) == \
            repr(dataclasses.astuple(row))

    @pytest.mark.parametrize("num_devices", [3, 16])
    @pytest.mark.parametrize("policy", ["uav_heavy", "cloud_heavy"])
    def test_fixed_policies_run_above_the_catalog_cap(self, policy,
                                                      num_devices):
        cfg = quick_config(num_devices=num_devices, n_intervals=5)
        assert cfg.catalog_size > cfg.max_catalog_size
        row, records = run_eval(policy, cfg, seed=1, realizations=2,
                                collect_records=True)
        assert row.mean_pd > 0.0 and row.terminal_uav_distance == 0.0
        assert records[-1].b_tot.shape == (num_devices,)

    def test_realizations_are_decorrelated(self):
        row1 = run_eval("uav_heavy", quick_config(), seed=0, realizations=1)
        row2 = run_eval("uav_heavy", quick_config(), seed=0, realizations=2)
        assert row1.mean_pd != row2.mean_pd


class TestRunSweep:
    def test_grid_size_and_order(self):
        cfg = replace(quick_config(), sweep_i_max=(2e5, 1e5), sweep_seeds=2,
                      sweep_policies=("uav_heavy", "random"),
                      eval_realizations=2)
        rows = run_sweep(cfg)
        assert len(rows) == 8
        keys = [(r.policy, r.i_max, r.seed) for r in rows]
        assert keys == sorted(keys)
        assert keys[0] == ("random", 1e5, 0)

    def test_seeds_start_at_seed(self):
        cfg = replace(quick_config(), sweep_i_max=(1e5,), sweep_seeds=2,
                      sweep_policies=("random",), eval_realizations=1)
        assert [r.seed for r in run_sweep(cfg, seed=3)] == [3, 4]

    def test_i_max_propagates(self):
        cfg = replace(quick_config(), sweep_i_max=(1e5,), sweep_seeds=1,
                      sweep_policies=("uav_heavy",), eval_realizations=1)
        rows = run_sweep(cfg)
        assert rows[0].i_max == 1e5

    def test_deterministic(self):
        cfg = replace(quick_config(), sweep_i_max=(1e5, 2e5), sweep_seeds=1,
                      sweep_policies=("random",), eval_realizations=2)
        assert run_sweep(cfg) == run_sweep(cfg)

    def test_dqn_checkpoint_cache(self, tmp_path):
        cfg = replace(quick_config(episodes=2, batch_size=8,
                                   buffer_capacity=100),
                      sweep_i_max=(2.5e5,), sweep_seeds=1,
                      sweep_policies=("dqn",), eval_realizations=1)
        rows1 = run_sweep(cfg, out_dir=str(tmp_path))
        assert [p.name for p in tmp_path.glob("*.ckpt")] == [
            checkpoint_path("", replace(cfg, i_max=2.5e5), 0)]
        rows2 = run_sweep(cfg, out_dir=str(tmp_path))
        assert rows1 == rows2

    def test_shared_model_trains_once(self, tmp_path):
        cfg = replace(quick_config(episodes=2, batch_size=8,
                                   buffer_capacity=100),
                      sweep_i_max=(1e5, 2e5), sweep_seeds=1,
                      sweep_policies=("dqn",), eval_realizations=1,
                      shared_model=True)
        rows = run_sweep(cfg, out_dir=str(tmp_path))
        ckpts = sorted(p.name for p in tmp_path.glob("*.ckpt"))
        assert ckpts == [checkpoint_path("", replace(cfg, i_max=2e5), 0)]
        assert len(rows) == 2

    @pytest.mark.parametrize("policies, shared, trained", [
        (("random", "dqn", "uav_heavy"), False,
         [(1e5, 0), (1e5, 1), (2e5, 0), (2e5, 1)]),
        (("random", "uav_heavy"), False, []),
        (("dqn", "random"), True, [(2e5, 0), (2e5, 1)]),
    ])
    def test_each_network_trained_once(self, monkeypatch, policies, shared,
                                       trained):
        calls = []
        real = harness.train_dqn

        def counting(config, seed):
            calls.append((config.i_max, seed))
            return real(config, seed)

        monkeypatch.setattr(harness, "train_dqn", counting)
        cfg = replace(quick_config(episodes=2, batch_size=8,
                                   buffer_capacity=100),
                      sweep_i_max=(2e5, 1e5), sweep_seeds=2,
                      sweep_policies=policies, eval_realizations=1,
                      shared_model=shared)
        rows = run_sweep(cfg)
        assert sorted(calls) == trained
        assert len(rows) == len(policies) * 2 * 2


class TestCsv:
    ROW = ResultRow(policy="random", i_max=250000.0, seed=3,
                    mean_pde=123456.789, mean_cd=1.23456789, mean_pd=98765.4,
                    mean_ql=1e6 / 3, mean_qu=0.0, mean_qc=2.0,
                    c10_violation_rate=0.987654321,
                    terminal_uav_distance=42.0)

    def test_header_and_format(self, tmp_path):
        path = tmp_path / "rows.csv"
        emit_csv([self.ROW], str(path))
        text = path.read_text()
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER == (
            "policy,i_max,seed,mean_pde,mean_cd,mean_pd,mean_ql,mean_qu,"
            "mean_qc,c10_violation_rate,terminal_uav_distance")
        assert lines[1] == ("random,250000,3,123457,1.23457,98765.4,"
                            "333333,0,2,0.987654,42")
        assert text.endswith("\n")

    def test_round_trip(self, tmp_path):
        path = tmp_path / "rows.csv"
        emit_csv([self.ROW], str(path))
        header, line = path.read_text().splitlines()
        fields = dict(zip(header.split(","), line.split(",")))
        assert fields["policy"] == "random"
        assert float(fields["i_max"]) == 250000.0
        assert int(fields["seed"]) == 3
        # 6 significant digits
        assert float(fields["mean_pde"]) == pytest.approx(123456.789, rel=1e-5)

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv([], str(tmp_path / "rows.csv"))

    def test_sweep_output_byte_stable(self, tmp_path):
        cfg = replace(quick_config(), sweep_i_max=(1e5,), sweep_seeds=2,
                      sweep_policies=("random", "uav_heavy"),
                      eval_realizations=2)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_sweep(cfg), str(a))
        emit_csv(run_sweep(cfg), str(b))
        assert a.read_bytes() == b.read_bytes()


class TestTrajectoryDump:
    def test_layout(self, tmp_path):
        cfg = quick_config(num_devices=2, n_intervals=4)
        _, records = run_eval("uav_heavy", cfg, seed=0, realizations=1,
                              collect_records=True)
        path = tmp_path / "traj.csv"
        dump_trajectory(records, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == TRAJECTORY_HEADER
        assert len(lines) == 1 + 4 * 2
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"
        assert all(len(line.split(",")) == 9 for line in lines[1:])

    def test_values_match_records(self, tmp_path):
        cfg = quick_config(n_intervals=3)
        _, records = run_eval("uav_heavy", cfg, seed=1, realizations=1,
                              collect_records=True)
        path = tmp_path / "traj.csv"
        dump_trajectory(records, str(path))
        lines = path.read_text().splitlines()[1:]
        for rec, line in zip(records, lines):
            f = line.split(",")
            assert int(f[0]) == rec.interval
            assert float(f[2]) == pytest.approx(rec.queues_before.q_local[0],
                                                rel=1e-5)
            assert int(f[6]) == int(rec.eta[0])


# -- the dqn's greedy memo ----------------------------------------------------

ACCEPTANCE_CACHE = Path(__file__).parent / "_acceptance_cache"


def memoless_baseline_action(policy, n, observe):
    """The dqn's baseline_action before the greedy memo: one pass over every
    observation row, which observe() gives as the network's input."""
    return environment.action_catalog(
        policy.config, ag.greedy_action(policy.net, observe()))


def row_bytes(row):
    return repr(dataclasses.astuple(row))


@pytest.fixture(scope="module")
def short_trained_net():
    return harness.train_dqn(SimConfig(episodes=1, n_intervals=200), 7)


@pytest.fixture(scope="module")
def random_head_net():
    """An untrained net with a random head and random biases, whose greedy
    actions, unlike the trained nets', tell an observation scaled twice
    from the network's input."""
    rng = np.random.default_rng(8)
    net = ag.QNetwork(6, (64, 64), 1280, rng=rng)
    net.weights[-1] = rng.standard_normal(net.weights[-1].shape)
    net.biases[-1] = rng.standard_normal(1280)
    return net


@pytest.fixture(scope="module")
def acceptance_net():
    path = checkpoint_path(str(ACCEPTANCE_CACHE), SimConfig(), 0)
    if not Path(path).exists():
        pytest.skip("no cached acceptance network (tests/test_acceptance.py "
                    "trains and caches them)")
    return ag.load_checkpoint(path)


class TestGreedyMemo:
    """run_eval's dqn rows keep the bytes of valuing every observation in
    every interval."""

    def _pass_rows(self, monkeypatch):
        """Record the row count of every Q-value pass."""
        rows = []
        q_values = ag.QNetwork.q_values

        def spy(self, x):
            rows.append(len(x))
            return q_values(self, x)
        monkeypatch.setattr(ag.QNetwork, "q_values", spy)
        return rows

    def _reference_row(self, monkeypatch, *args, **kw):
        with monkeypatch.context() as m:
            m.setattr(ag, "baseline_action", memoless_baseline_action)
            return run_eval(*args, **kw)

    @pytest.mark.parametrize("net_name", ["short_trained_net",
                                          "acceptance_net",
                                          "random_head_net"])
    @pytest.mark.parametrize("realizations,n_intervals",
                             [(1, 100), (2, 100), (3, 100), (70, 100),
                              (1000, 5)])
    def test_rows_match_the_memoless_reference(self, request, monkeypatch,
                                               net_name, realizations,
                                               n_intervals):
        net = request.getfixturevalue(net_name)
        cfg = SimConfig(n_intervals=n_intervals)
        want = self._reference_row(monkeypatch, "dqn", cfg, 3, realizations,
                                   net=net)
        passes = self._pass_rows(monkeypatch)
        got = run_eval("dqn", cfg, 3, realizations, net=net)
        assert row_bytes(got) == row_bytes(want)
        assert 0 < len(passes) <= n_intervals
        if realizations == 1:
            assert set(passes) == {1}
        else:
            # No 1-row pass, whose gemv rounds differently from a batch.
            assert min(passes) >= 2
        if realizations > 1 and n_intervals > 5:
            # Seen observations are not valued again.
            assert len(passes) < n_intervals

    def test_memo_does_not_outlive_a_call(self, monkeypatch,
                                          short_trained_net):
        net = short_trained_net.copy()
        cfg = SimConfig(n_intervals=100)
        first = run_eval("dqn", cfg, 4, 3, net=net)
        # A new head, in place: the greedy actions of every observation
        # change.
        net.biases[-1][:] = np.random.default_rng(9).standard_normal(
            net.output_size) * 1e6
        second = run_eval("dqn", cfg, 4, 3, net=net)
        assert row_bytes(second) != row_bytes(first)
        want = self._reference_row(monkeypatch, "dqn", cfg, 4, 3, net=net)
        assert row_bytes(second) == row_bytes(want)
