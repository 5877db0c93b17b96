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
from functools import lru_cache

import numpy as np

from .config import SimConfig

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


@lru_cache(maxsize=64)
def rician_weights(rice_k: float) -> tuple:
    """Amplitude weights (LoS, scattered) of unit-mean-power Rician fading
    with K-factor rice_k; (1, 0) for pure line of sight (rice_k = inf)."""
    if math.isinf(rice_k):
        return 1.0, 0.0
    return math.sqrt(rice_k / (rice_k + 1.0)), math.sqrt(1.0 / (rice_k + 1.0))


def rician_sample(rng: np.random.Generator, rice_k: float, size=None):
    """Draw unit-mean-power Rician fading amplitudes: one Python complex, or
    a list of size of them.

    The scattered part is (re + j im) / sqrt(2), for standard normal re and
    im drawn in that order, amplitude by amplitude; one draw gives them all,
    the same values as scalar draws. rice_k = 0 degenerates to Rayleigh
    fading; a scattered weight of 0 (rice_k = inf) gives 1 and draws nothing.
    """
    n = 1 if size is None else size
    los_w, nlos_w = rician_weights(rice_k)
    if nlos_w == 0.0:
        amps = [complex(los_w)] * n
    else:
        normals = rng.standard_normal(2 * n).tolist()
        amps = [los_w + nlos_w * ((re + 1j * im) / _SQRT2)
                for re, im in zip(normals[::2], normals[1::2])]
    return amps[0] if size is None else amps


def channel_gain(d: float, config: SimConfig, fading: complex) -> float:
    """Power gain |h|^2 of one block-fading device-UAV channel realization
    with Rician amplitude fading (rician_sample)."""
    return abs(math.sqrt(large_scale_gain(d, config)) * fading) ** 2
