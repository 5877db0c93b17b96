import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from uavmec.phy_link import (cloud_comm_delay, rate, sinr, total_comm_delay,
                             uplink_comm_delay)


def sinr0(gains, powers, noise):
    """SINR of device 0."""
    return sinr(np.array(gains, dtype=float), np.array(powers, dtype=float),
                noise)[0]


class TestSinr:
    def test_single_device(self):
        assert sinr0([1e-8], [0.1], 1e-9) == pytest.approx(1.0)

    def test_two_equal_devices(self):
        assert sinr0([1e-8, 1e-8], [0.1, 0.1], 1e-9) == pytest.approx(0.5)

    def test_zero_power(self):
        assert sinr0([1e-8, 1e-8], [0.0, 0.1], 1e-9) == 0.0

    def test_scale_invariance(self):
        assert sinr0([1e-8, 2e-8], [0.1, 0.05], 1e-9) == pytest.approx(
            sinr0([7e-8, 14e-8], [0.1, 0.05], 7e-9))

    @given(st.floats(1e-12, 1e-6), st.floats(1e-12, 1e-6),
           st.floats(1e-12, 1e-6))
    def test_interferer_never_helps(self, g0, g1, g2):
        base = sinr0([g0, g1], [0.1, 0.1], 1e-9)
        more = sinr0([g0, g1, g2], [0.1, 0.1, 0.1], 1e-9)
        assert more <= base


    def test_every_device_at_once(self):
        gains = np.array([1e-8, 3e-8, 2e-9])
        powers = np.array([0.1, 0.05, 0.1])
        got = sinr(gains, powers, 1e-9)
        received = gains * powers
        for k in range(3):
            interference = float(np.sum(received)) - received[k]
            assert got[k] == received[k] / (interference + 1e-9)


class TestRate:
    def test_zero_sinr(self):
        assert rate(0.0, 180e3) == 0.0

    def test_unit_sinr(self):
        assert rate(1.0, 180e3) == pytest.approx(180e3)

    def test_sinr_three(self):
        assert rate(3.0, 180e3) == pytest.approx(360e3)

    def test_monotone_and_concave(self):
        xs = np.linspace(0.0, 20.0, 50)
        rs = [rate(x, 180e3) for x in xs]
        diffs = np.diff(rs)
        assert np.all(diffs > 0)
        assert np.all(np.diff(diffs) < 1e-9)


class TestDelays:
    def test_nothing_to_send(self):
        assert uplink_comm_delay(0.0, 0.0) == 0.0

    def test_one_second(self):
        assert uplink_comm_delay(180e3, 180e3) == pytest.approx(1.0)

    def test_zero_rate_sentinel(self):
        assert uplink_comm_delay(1000.0, 0.0) == math.inf

    def test_device_arrays_keep_sentinels(self):
        got = uplink_comm_delay(np.array([0.0, 180e3, 10.0, 0.0]),
                                np.array([0.0, 180e3, 0.0, 5.0]))
        assert got.tolist() == [0.0, pytest.approx(1.0), math.inf, 0.0]
        assert cloud_comm_delay(np.array([0.0, 0.3]), 0.25).tolist() == [
            0.0, 0.25]

    def test_cloud_delay_gate(self):
        assert cloud_comm_delay(0.0, 0.25) == 0.0
        assert cloud_comm_delay(0.3, 0.25) == 0.25
        assert cloud_comm_delay(0.6, 0.25) == 0.25

    def test_total(self):
        assert total_comm_delay(0.0, 0.0) == 0.0
        assert total_comm_delay(1.0, 0.25) == pytest.approx(1.25)
        assert total_comm_delay(math.inf, 0.25) == math.inf

    @given(st.floats(0, 10), st.floats(0, 10), st.floats(0, 10))
    def test_total_additive_monotone(self, a, b, extra):
        assert total_comm_delay(a, b) == a + b
        assert total_comm_delay(a + extra, b) >= total_comm_delay(a, b)
