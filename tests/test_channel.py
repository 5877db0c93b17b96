import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from uavmec import channel
from uavmec.channel import (Position2D, channel_gain, distance,
                            large_scale_gain, rician_sample, rician_weights)
from uavmec.config import SimConfig

PARAMS = SimConfig(eta0_db=-40.0, path_loss_exp=2.0, rician_k=10.0,
                   altitude=100.0)


class TestDistance:
    def test_overhead(self):
        assert distance(Position2D(0, 0), Position2D(0, 0), 100.0) == 100.0

    def test_three_four_five(self):
        d = distance(Position2D(30, 40), Position2D(0, 0), 100.0)
        assert d == pytest.approx(math.sqrt(12500), rel=1e-12)

    def test_far_device(self):
        d = distance(Position2D(0, 0), Position2D(300, 400), 100.0)
        assert d == pytest.approx(math.sqrt(260000), rel=1e-12)

    @given(st.floats(-500, 500), st.floats(-500, 500),
           st.floats(-500, 500), st.floats(-500, 500))
    def test_symmetric_and_bounded_below(self, ax, ay, bx, by):
        a, b = Position2D(ax, ay), Position2D(bx, by)
        assert distance(a, b, 100.0) == distance(b, a, 100.0)
        assert distance(a, b, 100.0) >= 100.0


class TestLargeScaleGain:
    def test_reference_distance(self):
        assert large_scale_gain(1.0, PARAMS) == pytest.approx(1e-4)

    def test_hundred_meters(self):
        assert large_scale_gain(100.0, PARAMS) == pytest.approx(1e-8)

    def test_slant_path(self):
        # eta0 / d^2 at d = sqrt(260000)
        d = math.sqrt(260000)
        assert large_scale_gain(d, PARAMS) == pytest.approx(3.84615e-10, rel=1e-5)

    @given(st.floats(1.0, 1e4), st.floats(1.0, 1e4))
    def test_strictly_decreasing(self, d1, d2):
        if d1 == d2:
            return
        lo, hi = min(d1, d2), max(d1, d2)
        assert large_scale_gain(lo, PARAMS) > large_scale_gain(hi, PARAMS)


class TestRicianSample:
    def test_infinite_k_is_pure_los(self):
        rng = np.random.default_rng(0)
        assert abs(rician_sample(rng, math.inf)) == pytest.approx(1.0)

    def test_rayleigh_mean_power(self):
        rng = np.random.default_rng(1)
        samples = rician_sample(rng, 0.0, size=100_000)
        power = np.abs(samples) ** 2
        # E|rho|^2 = 1, sigma of the mean estimator ~ 1/sqrt(N)
        sigma = np.std(power) / math.sqrt(len(power))
        assert abs(np.mean(power) - 1.0) < 3 * sigma

    def test_k10_mean_power(self):
        rng = np.random.default_rng(2)
        samples = rician_sample(rng, 10.0, size=100_000)
        assert 0.99 <= np.mean(np.abs(samples) ** 2) <= 1.01

    def test_reseeding_reproduces(self):
        a = rician_sample(np.random.default_rng(42), 10.0, size=100)
        b = rician_sample(np.random.default_rng(42), 10.0, size=100)
        assert np.array_equal(a, b)

    def test_sized_draw_equals_scalar_draws_in_order(self):
        # the environment draws an interval's K amplitudes at once
        for seed in range(50):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            for size in (1, 2, 3, 7):
                assert rician_sample(a, 10.0, size=size) == [
                    rician_sample(b, 10.0) for _ in range(size)]
            assert a.random() == b.random()

    def test_amplitudes_are_python_complexes(self):
        rng = np.random.default_rng(3)
        assert type(rician_sample(rng, 10.0)) is complex
        assert {type(a) for a in rician_sample(rng, 10.0, size=4)} \
            == {complex}

    @pytest.mark.parametrize("size", [None, 1, 5])
    def test_pure_los_draws_nothing(self, size):
        rng = np.random.default_rng(6)
        state = rng.bit_generator.state
        amps = rician_sample(rng, math.inf, size=size)
        assert amps == (1.0 if size is None else [1.0] * size)
        assert rng.bit_generator.state == state

    def test_a_zero_scattered_weight_draws_nothing(self, monkeypatch):
        # rician_weights alone decides pure line of sight: at rice_k = inf
        # the amplitude is the complex 1, and no K-factor whose scattered
        # weight is 0 draws
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        assert rician_sample(rng, math.inf, size=3) == [1 + 0j] * 3
        assert type(rician_sample(rng, math.inf)) is complex
        monkeypatch.setattr(channel, "rician_weights", lambda k: (1.0, 0.0))
        assert rician_sample(rng, 10.0, size=2) == [1 + 0j] * 2
        assert rng.bit_generator.state == state

    def test_weights(self):
        assert rician_weights(10.0) == (math.sqrt(10.0 / 11.0),
                                        math.sqrt(1.0 / 11.0))
        assert rician_weights(3.0) == (math.sqrt(0.75), math.sqrt(0.25))
        assert rician_weights(0.0) == (0.0, 1.0)
        assert rician_weights(math.inf) == (1.0, 0.0)


class TestChannelGain:
    def test_los_limit_power(self):
        params = SimConfig(eta0_db=-40.0, path_loss_exp=2.0,
                           rician_k=math.inf, altitude=100.0)
        los = rician_sample(np.random.default_rng(0), params.rician_k)
        assert channel_gain(100.0, params, los) == pytest.approx(1e-8)

    def test_mean_power_tracks_path_loss(self):
        fading = rician_sample(np.random.default_rng(4), PARAMS.rician_k,
                               size=100_000)
        powers = [channel_gain(100.0, PARAMS, rho) for rho in fading]
        assert 0.99e-8 <= np.mean(powers) <= 1.01e-8


def test_one_normal_draw_equals_scalar_draws_in_order():
    # rician_sample draws the 2K normals of K amplitudes at once.
    for seed in range(200):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for k in (1, 2, 3):
            assert a.standard_normal(2 * k).tolist() == [
                b.standard_normal() for _ in range(2 * k)]
        assert a.random() == b.random()

