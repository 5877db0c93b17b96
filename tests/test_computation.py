import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from uavmec.computation import DelayBreakdown, comp_delay, total_task_delay


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
