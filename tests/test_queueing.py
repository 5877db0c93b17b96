import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uavmec.queueing import (SPLIT_ROWS, SPLIT_TIERS, QueueTriple,
                             SplitAmounts, compute_splits, draw_arrival,
                             split_stack, step_queues)

fractions = st.floats(0.0, 1.0)
backlogs = st.floats(0.0, 1e7)


def oracle_step(q, x_u, x_c, w_l, w_u, w_c, arrival):
    """Independent restatement of the split and update laws."""
    d_uav = x_u * q.q_local
    b_local = w_l * (1.0 - x_u) * q.q_local
    d_cloud = x_c * q.q_uav
    b_uav = w_u * (1.0 - x_c) * q.q_uav
    b_cloud = w_c * q.q_cloud
    return (max(0.0, q.q_local - d_uav - b_local) + arrival,
            max(0.0, q.q_uav - d_cloud - b_uav) + d_uav,
            max(0.0, q.q_cloud - b_cloud) + d_cloud)


class TestComputeSplits:
    def test_worked_example(self):
        s = compute_splits(QueueTriple(1000, 0, 0), x_uav=0.6, x_cloud=0.0,
                           w_local=0.3, w_uav=0.0, w_cloud=0.0)
        assert s.d_uav == pytest.approx(600.0)
        assert s.b_local == pytest.approx(120.0)

    def test_all_zero_fractions(self):
        s = compute_splits(QueueTriple(1000, 500, 200), 0, 0, 0, 0, 0)
        assert (s.d_uav, s.b_local, s.d_cloud, s.b_uav, s.b_cloud) == (
            0, 0, 0, 0, 0)

    def test_full_offload_kills_local_processing(self):
        s = compute_splits(QueueTriple(1000, 0, 0), x_uav=1.0, x_cloud=0.0,
                           w_local=0.9, w_uav=0.0, w_cloud=0.0)
        assert s.b_local == 0.0

    @given(backlogs, backlogs, backlogs, fractions, fractions, fractions,
           fractions, fractions)
    def test_splits_never_exceed_backlogs(self, ql, qu, qc, xu, xc, wl, wu, wc):
        s = compute_splits(QueueTriple(ql, qu, qc), xu, xc, wl, wu, wc)
        assert s.d_uav + s.b_local <= ql * (1 + 1e-12)
        assert s.d_cloud + s.b_uav <= qu * (1 + 1e-12)
        assert s.b_cloud <= qc * (1 + 1e-12)


def step(q, s, arrival):
    """step_queues on one device's QueueTriple and SplitAmounts."""
    return QueueTriple(*step_queues(
        np.array((q.q_local, q.q_uav, q.q_cloud)), split_stack(s),
        arrival).tolist())


class TestUpdates:
    def test_local_worked_example(self):
        s = SplitAmounts(d_uav=600, b_local=120, d_cloud=0, b_uav=0, b_cloud=0)
        assert step(QueueTriple(1000.0, 0, 0), s, 50.0).q_local == \
            pytest.approx(330.0)

    def test_local_empty(self):
        s = SplitAmounts(0, 0, 0, 0, 0)
        assert step(QueueTriple(0.0, 0, 0), s, 0.0).q_local == 0.0

    def test_local_clamp_on_adversarial_overdrain(self):
        s = SplitAmounts(d_uav=700, b_local=500, d_cloud=0, b_uav=0, b_cloud=0)
        assert step(QueueTriple(1000.0, 0, 0), s, 0.0).q_local == 0.0

    def test_uav_worked_example(self):
        s = SplitAmounts(d_uav=600, b_local=0, d_cloud=150, b_uav=210,
                         b_cloud=0)
        assert step(QueueTriple(0, 500.0, 0), s, 0.0).q_uav == \
            pytest.approx(740.0)

    def test_uav_empty(self):
        assert step(QueueTriple(0, 0.0, 0), SplitAmounts(0, 0, 0, 0, 0),
                    0.0).q_uav == 0.0

    def test_uav_inflow_survives_full_drain(self):
        s = SplitAmounts(d_uav=600, b_local=0, d_cloud=300, b_uav=200,
                         b_cloud=0)
        assert step(QueueTriple(0, 500.0, 0), s, 0.0).q_uav == \
            pytest.approx(600.0)

    def test_cloud_worked_example(self):
        s = SplitAmounts(0, 0, d_cloud=150, b_uav=0, b_cloud=120)
        assert step(QueueTriple(0, 0, 200.0), s, 0.0).q_cloud == \
            pytest.approx(230.0)

    def test_cloud_all_zero(self):
        assert step(QueueTriple(0, 0, 0.0), SplitAmounts(0, 0, 0, 0, 0),
                    0.0).q_cloud == 0.0

    def test_cloud_full_drain(self):
        s = SplitAmounts(0, 0, d_cloud=150, b_uav=0, b_cloud=200)
        assert step(QueueTriple(0, 0, 200.0), s, 0.0).q_cloud == \
            pytest.approx(150.0)

    def test_split_stack_rows(self):
        s = SplitAmounts(d_uav=1.0, b_local=2.0, d_cloud=3.0, b_uav=4.0,
                         b_cloud=5.0)
        assert split_stack(s).tolist() == [2.0, 4.0, 5.0, 1.0, 3.0, 5.0]
        assert [SPLIT_TIERS[SPLIT_ROWS.index(name)]
                for name in ("b_local", "d_uav", "b_uav", "d_cloud",
                             "b_cloud")] == [0, 0, 1, 1, 2]

    def test_leaves_its_input_unchanged(self):
        backlog = np.array([1000.0, 500.0, 200.0])
        s = split_stack(SplitAmounts(600, 120, 150, 210, 120))
        step_queues(backlog, s, 50.0)
        assert backlog.tolist() == [1000.0, 500.0, 200.0]


class TestOracleEquivalence:
    def test_thousand_random_instances_exact(self):
        rng = np.random.default_rng(77)
        for _ in range(1000):
            q = QueueTriple(*rng.uniform(0, 1e6, 3))
            xu, xc, wl, wu, wc = rng.uniform(0, 1, 5)
            arrival = float(rng.uniform(0, 2.5e5))
            s = compute_splits(q, xu, xc, wl, wu, wc)
            nxt = step(q, s, arrival)
            want = oracle_step(q, xu, xc, wl, wu, wc, arrival)
            assert (nxt.q_local, nxt.q_uav, nxt.q_cloud) == want

    @settings(max_examples=200)
    @given(backlogs, backlogs, backlogs, fractions, fractions, fractions,
           fractions, fractions, st.floats(0, 2.5e5))
    def test_nonnegative_and_clamp_inactive(self, ql, qu, qc, xu, xc, wl, wu,
                                            wc, arrival):
        q = QueueTriple(ql, qu, qc)
        s = compute_splits(q, xu, xc, wl, wu, wc)
        # valid fractions drain at most the snapshot backlog
        assert q.q_local - s.d_uav - s.b_local >= -1e-6 * max(1.0, ql)
        assert q.q_uav - s.d_cloud - s.b_uav >= -1e-6 * max(1.0, qu)
        nxt = step(q, s, arrival)
        assert nxt.q_local >= 0 and nxt.q_uav >= 0 and nxt.q_cloud >= 0


class TestArrivals:
    def test_zero_budget(self):
        rng = np.random.default_rng(0)
        assert draw_arrival(rng, 0.0) == 0.0

    def test_uniform_mean_and_range(self):
        rng = np.random.default_rng(5)
        draws = np.array([draw_arrival(rng, 2.5e5) for _ in range(100_000)])
        assert np.all((draws >= 0) & (draws <= 2.5e5))
        assert 1.24e5 <= draws.mean() <= 1.26e5

    def test_determinism(self):
        a = [draw_arrival(np.random.default_rng(9), 2.5e5) for _ in range(5)]
        b = [draw_arrival(np.random.default_rng(9), 2.5e5) for _ in range(5)]
        assert a == b

    def test_vector_draw_matches_scalar_draws(self):
        for seed in range(20):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            scalar = [draw_arrival(a, 2.5e5) for _ in range(3)]
            assert draw_arrival(b, 2.5e5, 3).tolist() == scalar
            assert a.random() == b.random()

    def test_zero_budget_draws_nothing(self):
        a, b = np.random.default_rng(4), np.random.default_rng(4)
        assert draw_arrival(a, 0.0, 2).tolist() == [0.0, 0.0]
        assert a.random() == b.random()


class TestDeviceArrays:
    def test_step_matches_per_device_scalars(self):
        rng = np.random.default_rng(31)
        k = 5
        q = QueueTriple(*rng.uniform(0, 1e6, (3, k)))
        xu, xc, wu, wc = rng.uniform(0, 1, (4, k))
        arrivals = rng.uniform(0, 2.5e5, k)
        s = compute_splits(q, xu, xc, 0.3, wu, wc)
        nxt = step_queues(np.array((q.q_local, q.q_uav, q.q_cloud)),
                          split_stack(s), arrivals)
        assert nxt.shape == (3, k)
        for i in range(k):
            qi = QueueTriple(q.q_local[i], q.q_uav[i], q.q_cloud[i])
            want = oracle_step(qi, xu[i], xc[i], 0.3, wu[i], wc[i],
                               arrivals[i])
            assert tuple(nxt[:, i].tolist()) == want
