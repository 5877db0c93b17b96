import math

import numpy as np
import pytest

from uavmec.channel import Position2D
from uavmec.config import SimConfig
from uavmec.objective import (FeasibilityReport, PdeAccumulator,
                              check_feasibility, drift_plus_penalty_value,
                              long_term_pde, processed_total, reward,
                              short_term_pde)
from uavmec.queueing import QueueTriple, SplitAmounts

WORKED_Q = QueueTriple(1000.0, 500.0, 200.0)
WORKED_S = SplitAmounts(d_uav=600.0, b_local=120.0, d_cloud=150.0,
                        b_uav=210.0, b_cloud=120.0)
UNIT_WEIGHTS = SimConfig(v1=1.0, v2=1.0, v3=1.0, v4=1.0, lyapunov_v=1.0)


def reward_oracle(q, s, t_comm, hist_pde, v1, v2, v3, v4, eta):
    """Term-by-term restatement of the per-device reward."""
    drain = (v1 * q.q_local * (s.b_local + s.d_uav)
             - v2 * q.q_uav * (s.d_uav - s.b_uav - s.d_cloud)
             - v3 * q.q_cloud * (s.d_cloud - s.b_cloud))
    b_tot = s.b_local + s.b_uav + s.b_cloud
    return drain + v4 * (b_tot - t_comm * hist_pde) * eta


class TestProcessedTotal:
    def test_zero(self):
        assert processed_total(0, 0, 0) == 0.0

    def test_sum(self):
        assert processed_total(120, 210, 120) == pytest.approx(450.0)


class TestPdeAccumulator:
    def test_empty(self):
        acc = PdeAccumulator(shape=2)
        assert long_term_pde(0.0, 0.0) == 0.0
        assert short_term_pde([], []) == 0.0
        assert acc.device_pde()[0] == 0.0

    def test_single_interval(self):
        acc = PdeAccumulator(shape=2)
        acc.record_interval(np.array([450.0, 50.0]), np.array([0.5, 0.5]))
        assert long_term_pde(450.0 + 50.0, 0.5 + 0.5) == pytest.approx(500.0)
        assert short_term_pde([500.0], [1.0]) == pytest.approx(500.0)
        assert acc.device_pde()[0] == pytest.approx(900.0)
        assert acc.device_pde()[1] == pytest.approx(100.0)

    def test_every_device_at_once(self):
        acc = PdeAccumulator(shape=3)
        assert acc.device_pde().tolist() == [0.0, 0.0, 0.0]
        acc.record_interval(np.array([450.0, 50.0, 9.0]),
                            np.array([0.5, 0.25, 0.0]))
        assert acc.device_pde().tolist() == [900.0, 200.0, 0.0]

    def test_zero_delay_with_processed_bits(self):
        acc = PdeAccumulator(shape=1)
        acc.record_interval(np.array([100.0]), np.array([0.0]))
        assert long_term_pde(100.0, 0.0) == math.inf
        assert acc.device_pde()[0] == 0.0

    def test_short_term_prefix(self):
        assert short_term_pde([100.0], [1.0]) == pytest.approx(100.0)
        assert short_term_pde([100.0, 300.0], [1.0, 1.0]) == pytest.approx(200.0)

    def test_cumulative_matches_history(self):
        rng = np.random.default_rng(3)
        acc = PdeAccumulator(shape=3)
        processed, delays = [], []
        for _ in range(50):
            b_tot, t_comm = rng.uniform(0, 1e4, 3), rng.uniform(0, 2, 3)
            acc.record_interval(b_tot, t_comm)
            processed.append(b_tot)
            delays.append(t_comm)
        assert acc.per_device_processed == pytest.approx(
            np.sum(processed, axis=0))
        assert acc.per_device_delay == pytest.approx(np.sum(delays, axis=0))


class TestDriftPlusPenalty:
    def test_all_zero(self):
        zero_q = QueueTriple(0, 0, 0)
        zero_s = SplitAmounts(0, 0, 0, 0, 0)
        val = drift_plus_penalty_value([zero_q], [zero_s], [0.0], [], [],
                                       UNIT_WEIGHTS)
        assert val == 0.0

    def test_worked_example(self):
        val = drift_plus_penalty_value([WORKED_Q], [WORKED_S], [0.5], [], [],
                                       UNIT_WEIGHTS)
        # 450 + 720000 - 120000 - 6000
        assert val == pytest.approx(594450.0)

    def test_zero_v_removes_penalty_term(self):
        w = SimConfig(v1=1, v2=1, v3=1, v4=1, lyapunov_v=0.0)
        a = drift_plus_penalty_value([WORKED_Q], [WORKED_S], [0.5], [100.0],
                                     [1.0], w)
        b = drift_plus_penalty_value([WORKED_Q], [WORKED_S], [99.0], [100.0],
                                     [1.0], w)
        assert a == b == pytest.approx(594000.0)

    def test_matches_reward_sum_for_unit_weights(self):
        # with eta = 1 everywhere, shared history and V = 1 the
        # drift-plus-penalty value equals the summed per-device rewards
        rng = np.random.default_rng(8)
        processed, delays = [5000.0], [2.0]
        hist = short_term_pde(processed, delays)
        for _ in range(200):
            q = QueueTriple(*rng.uniform(0, 1e5, 3))
            xu, xc, wl, wu, wc = rng.uniform(0, 1, 5)
            s = SplitAmounts(d_uav=xu * q.q_local,
                             b_local=wl * (1 - xu) * q.q_local,
                             d_cloud=xc * q.q_uav,
                             b_uav=wu * (1 - xc) * q.q_uav,
                             b_cloud=wc * q.q_cloud)
            t_comm = float(rng.uniform(0, 3))
            dpp = drift_plus_penalty_value([q], [s], [t_comm], processed,
                                           delays, UNIT_WEIGHTS)
            r = reward(q, s, t_comm, hist, UNIT_WEIGHTS, eta=1)
            assert r == pytest.approx(dpp, rel=1e-12, abs=1e-9)


class TestReward:
    def test_zero_state(self):
        r = reward(QueueTriple(0, 0, 0), SplitAmounts(0, 0, 0, 0, 0), 0.0,
                   0.0, UNIT_WEIGHTS, eta=1)
        assert r == 0.0

    def test_worked_example_empty_history(self):
        r = reward(WORKED_Q, WORKED_S, 0.5, 0.0, UNIT_WEIGHTS, eta=1)
        assert r == pytest.approx(594450.0)

    def test_eta_zero_drops_pde_term(self):
        r = reward(WORKED_Q, WORKED_S, 0.5, 0.0, UNIT_WEIGHTS, eta=0)
        assert r == pytest.approx(594000.0)

    def test_eta_zero_tolerates_infinite_delay(self):
        r = reward(WORKED_Q, WORKED_S, math.inf, 100.0, UNIT_WEIGHTS, eta=0)
        assert math.isfinite(r)
        assert r == pytest.approx(594000.0)

    def test_violation_penalty(self):
        w = SimConfig(v1=1, v2=1, v3=1, v4=1, violation_penalty=1000.0)
        r = reward(WORKED_Q, WORKED_S, 0.5, 0.0, w, eta=0)
        assert r == pytest.approx(593000.0)

    def test_oracle_random_instances(self):
        rng = np.random.default_rng(21)
        for _ in range(500):
            q = QueueTriple(*rng.uniform(0, 1e6, 3))
            s = SplitAmounts(*rng.uniform(0, 1e5, 5))
            t_comm = float(rng.uniform(0, 5))
            hist = float(rng.uniform(0, 1e5))
            v1, v2, v3, v4 = rng.uniform(0, 2, 4)
            eta = int(rng.integers(0, 2))
            w = SimConfig(v1=v1, v2=v2, v3=v3, v4=v4)
            got = reward(q, s, t_comm, hist, w, eta)
            want = reward_oracle(q, s, t_comm, hist, v1, v2, v3, v4, eta)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-9)

    def test_device_arrays_match_scalars(self):
        # eta masks the PDE term per device; an infinite delay at eta = 0
        # must not leak into the reward
        rng = np.random.default_rng(22)
        k = 6
        q = QueueTriple(*rng.uniform(0, 1e6, (3, k)))
        s = SplitAmounts(*rng.uniform(0, 1e5, (5, k)))
        t_comm = rng.uniform(0, 5, k)
        t_comm[[1, 4]] = math.inf
        hist = rng.uniform(0, 1e5, k)
        eta = np.array([1, 0, 1, 0, 0, 1])
        w = SimConfig(v1=0.5, v2=1.5, v3=1.0, v4=2.0, violation_penalty=7.0)
        got = reward(q, s, t_comm, hist, w, eta)
        assert np.all(np.isfinite(got))
        for i in range(k):
            qi = QueueTriple(q.q_local[i], q.q_uav[i], q.q_cloud[i])
            si = SplitAmounts(s.d_uav[i], s.b_local[i], s.d_cloud[i],
                              s.b_uav[i], s.b_cloud[i])
            assert got[i] == reward(qi, si, t_comm[i], hist[i], w, eta[i])

    def test_weight_scaling(self):
        w2 = SimConfig(v1=2.0, v2=2.0, v3=2.0, v4=2.0)
        r1 = reward(WORKED_Q, WORKED_S, 0.5, 0.0, UNIT_WEIGHTS, eta=1)
        r2 = reward(WORKED_Q, WORKED_S, 0.5, 0.0, w2, eta=1)
        assert r2 == pytest.approx(2.0 * r1)


class TestFeasibility:
    def _check(self, cfg, **kw):
        base = dict(
            fractions=[(0.6, 0.3, 0.3, 0.6, 0.3)],
            tx_powers=[cfg.p_max],
            cpu_local=[cfg.local_cpu_max],
            cpu_uav=[cfg.uav_cpu_per_device],
            cpu_cloud=[cfg.cloud_cpu_per_device],
            prev_pos=Position2D(250.0, 250.0),
            new_pos=Position2D(250.0, 250.0),
            total_delays=[0.5],
            config=cfg,
        )
        base.update(kw)
        return check_feasibility(**base)

    def test_nominal_all_satisfied(self):
        cfg = SimConfig(num_devices=1)
        rep = self._check(cfg)
        assert rep.all_satisfied()
        assert rep.eta.tolist() == [1]

    def test_power_violation(self):
        cfg = SimConfig(num_devices=1)
        rep = self._check(cfg, tx_powers=[cfg.p_max * 1.5])
        assert not rep.c1_power and not rep.all_satisfied()

    def test_fraction_violations(self):
        cfg = SimConfig(num_devices=1)
        rep = self._check(cfg, fractions=[(1.2, 0.3, 0.3, 0.6, 0.3)])
        assert not rep.c2_offload_fracs
        rep = self._check(cfg, fractions=[(0.6, 0.3, -0.1, 0.6, 0.3)])
        assert not rep.c3_compute_fracs

    def test_cpu_violations(self):
        cfg = SimConfig(num_devices=1)
        assert not self._check(cfg, cpu_local=[cfg.local_cpu_max * 2]).c4_local_cpu
        assert not self._check(cfg, cpu_uav=[cfg.uav_cpu_total * 2]).c5_uav_cpu
        assert not self._check(
            cfg, cpu_cloud=[cfg.cloud_cpu_total * 2]).c6_cloud_cpu

    def test_speed_limit(self):
        cfg = SimConfig(num_devices=1)
        # 30 m in one second sits exactly at the limit, 31 m exceeds it
        ok = self._check(cfg, new_pos=Position2D(280.0, 250.0))
        bad = self._check(cfg, new_pos=Position2D(281.0, 250.0))
        assert ok.c7_speed
        assert not bad.c7_speed

    def test_area_bound(self):
        cfg = SimConfig(num_devices=1)
        rep = self._check(cfg, prev_pos=Position2D(cfg.area_size, 250.0),
                          new_pos=Position2D(cfg.area_size + 10.0, 250.0))
        assert not rep.c9_area

    def test_delay_indicator(self):
        cfg = SimConfig(num_devices=3)
        rep = check_feasibility(
            fractions=[(0.6, 0.3, 0.3, 0.6, 0.3)] * 3,
            tx_powers=[cfg.p_max] * 3,
            cpu_local=[cfg.local_cpu_max] * 3,
            cpu_uav=[cfg.uav_cpu_per_device] * 3,
            cpu_cloud=[cfg.cloud_cpu_per_device] * 3,
            prev_pos=Position2D(250, 250), new_pos=Position2D(250, 250),
            total_delays=[0.5, cfg.tau, cfg.tau * 4],
            config=cfg)
        assert rep.eta.tolist() == [1, 1, 0]
        assert not rep.c10_delay

    def test_infinite_delay_is_a_violation_not_a_crash(self):
        cfg = SimConfig(num_devices=1)
        rep = self._check(cfg, total_delays=[math.inf])
        assert rep.eta.tolist() == [0]
        assert not rep.c10_delay

    def test_report_is_complete(self):
        assert len([f for f in FeasibilityReport.__dataclass_fields__
                    if f.startswith("c")]) == 10
