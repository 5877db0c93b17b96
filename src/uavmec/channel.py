"""Air-to-ground channel: geometry, path loss, Rician small-scale fading.

The composite gain for a device at horizontal distance r from the UAV is

    h = sqrt(eta0 * d^-theta) * rho,    d = sqrt(r^2 + H^2)

with rho a Rician-faded amplitude of unit mean power. The line-of-sight
component has zero phase (rho_los = 1); only |h|^2 enters the link budget,
so the phase convention is observationally irrelevant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SimConfig, rician_weights

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class Position2D:
    """Horizontal position in meters."""
    x: float
    y: float

    def displacement(self, other: "Position2D") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


def distance(uav_xy: Position2D, device_xy: Position2D, altitude: float) -> float:
    """Slant range between the UAV and a ground device (devices at height 0)."""
    return math.sqrt(uav_xy.displacement(device_xy) ** 2 + altitude ** 2)


def large_scale_gain(d: float, config: SimConfig) -> float:
    """Average channel power gain eta0 * d^-theta at distance d >= 1 m."""
    return config.eta0 * d ** (-config.path_loss_exp)


def rician_sample(rng: np.random.Generator, rice_k: float, size=None):
    """Draw unit-mean-power Rician fading amplitude(s).

    rice_k = 0 degenerates to Rayleigh fading; rice_k = inf to a pure
    deterministic LoS amplitude of 1.
    """
    if math.isinf(rice_k):
        return 1.0 + 0j if size is None else np.ones(size, dtype=complex)
    return _weighted(rng.standard_normal(size), rng.standard_normal(size),
                     *rician_weights(rice_k))


def _weighted(re, im, los_w, nlos_w):
    """Rician amplitude from the weights of its LoS and scattered parts;
    the scattered part is (re + j im) / sqrt(2), for standard normal re and
    im."""
    return los_w + nlos_w * ((re + 1j * im) / _SQRT2)


def channel_gain(d: float, config: SimConfig, re: float,
                 im: float) -> float:
    """Power gain |h|^2 of one block-fading device-UAV channel realization.

    re and im are the standard normals of its scattered part; a pure LoS
    channel (rician_k = inf) weighs them by 0, so finite normals leave its
    amplitude at exactly 1.
    """
    fading = _weighted(re, im, *config.fading_weights)
    amp = math.sqrt(large_scale_gain(d, config)) * fading
    return abs(amp) ** 2
