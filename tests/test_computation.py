import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from uavmec.computation import DelayBreakdown, comp_delay, total_task_delay
from uavmec.phy_link import uplink_comm_delay


class TestCompDelay:
    def test_no_work(self):
        assert comp_delay(0.0, 5.12e6, 1024.0) == 0.0

    def test_one_second(self):
        assert comp_delay(5000.0, 5.12e6, 1024.0) == pytest.approx(1.0)

    def test_zero_cpu_sentinel(self):
        assert comp_delay(100.0, 0.0, 1024.0) == math.inf

    @given(st.floats(0, 1e6), st.floats(1.0, 4.0))
    def test_linear_in_bits(self, bits, factor):
        base = comp_delay(bits, 1e6, 1024.0)
        assert comp_delay(bits * factor, 1e6, 1024.0) == pytest.approx(
            base * factor)
        assert comp_delay(bits, 1e6 * factor, 1024.0) == pytest.approx(
            base / factor)


    def test_device_arrays_keep_sentinels(self):
        bits = np.array([0.0, 5000.0, 100.0, 0.0])
        cpu = np.array([0.0, 5.12e6, 0.0, 1e6])
        got = comp_delay(bits, cpu, 1024.0)
        assert got.tolist() == [0.0, pytest.approx(1.0), math.inf, 0.0]

    def test_device_arrays_match_scalars(self):
        bits = np.array([0.0, 7.0, 1e5])
        got = comp_delay(bits, 3e6, 1024.0)
        assert got.tolist() == [comp_delay(float(b), 3e6, 1024.0)
                                for b in bits]


class TestTotalTaskDelay:
    def test_all_zero(self):
        assert total_task_delay(DelayBreakdown(0, 0, 0, 0, 0)) == 0.0

    def test_stage_maxima(self):
        b = DelayBreakdown(0.3, 0.2, 0.1, 0.25, 0.05)
        assert total_task_delay(b) == pytest.approx(0.6)

    def test_uplink_dominates(self):
        b = DelayBreakdown(0.2, 0.9, 0.0, 0.0, 0.0)
        assert total_task_delay(b) == pytest.approx(0.9)

    @given(*(st.floats(0, 10) for _ in range(5)))
    def test_monotone_and_bounded_below(self, a, b, c, d, e):
        fields = [a, b, c, d, e]
        base = total_task_delay(DelayBreakdown(*fields))
        assert base >= max(fields) - 1e-12
        for i in range(5):
            bumped = list(fields)
            bumped[i] += 1.0
            assert total_task_delay(DelayBreakdown(*bumped)) >= base

    def test_device_arrays(self):
        b = DelayBreakdown(np.array([0.3, 0.2]), np.array([0.2, 0.9]),
                           np.array([0.1, 0.0]), np.array([0.25, 0.0]),
                           np.array([0.05, math.inf]))
        assert total_task_delay(b).tolist() == [
            total_task_delay(DelayBreakdown(0.3, 0.2, 0.1, 0.25, 0.05)),
            math.inf]


class TestOneDelayPass:
    """One comp_delay pass over the three tiers' work and the uplink's bits,
    at C, C, C and 1 work per bit, gives every delay's own call bit for bit:
    bits * 1.0 is bits."""

    @pytest.mark.parametrize("shape", [(6,), (3, 6)])
    def test_matches_separate_calls(self, shape):
        rng = np.random.default_rng(17)
        bits = rng.uniform(0.0, 1e6, (4,) + shape)
        rates = rng.uniform(1e4, 1e6, shape)
        bits[..., 0] = 0.0                 # no amounts at all
        rates[..., 1:3] = 0.0              # zero rate with uplink traffic
        bits[3, ..., 2] = 0.0              # and without
        cpus = np.array([[1e6], [2.5e6], [5e7]])
        cycles = 1024.0
        capacity = np.empty((4, rates.size))
        capacity[:3] = cpus
        capacity[3] = rates.ravel()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            one = comp_delay(bits.reshape(4, -1), capacity,
                             np.array([[cycles]] * 3 + [[1.0]])
                             ).reshape(bits.shape)
            tiers = comp_delay(bits[:3],
                               cpus.reshape((3,) + (1,) * len(shape)), cycles)
            uplink = uplink_comm_delay(bits[3], rates)
        assert np.array_equal(one[:3], tiers)
        assert np.array_equal(one[3], uplink)
        assert np.all(one[..., 0] == 0.0)
        assert np.all(one[3, ..., 1] == math.inf)
        assert np.all(one[3, ..., 2] == 0.0)
