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


@dataclass(frozen=True)
class Position2D:
    """Horizontal position in meters."""
    x: float
    y: float

    def displacement(self, other: "Position2D") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class ChannelParams:
    eta0: float          # linear power gain at the 1 m reference distance
    theta: float         # path-loss exponent
    rice_k: float        # Rician factor (LoS / scattered power ratio)
    altitude: float      # m, UAV height above the device plane


def distance(uav_xy: Position2D, device_xy: Position2D, altitude: float) -> float:
    """Slant range between the UAV and a ground device (devices at height 0)."""
    return math.sqrt(uav_xy.displacement(device_xy) ** 2 + altitude ** 2)


def large_scale_gain(d: float, params: ChannelParams) -> float:
    """Average channel power gain eta0 * d^-theta at distance d >= 1 m."""
    return params.eta0 * d ** (-params.theta)


def rician_sample(rng: np.random.Generator, rice_k: float, size=None):
    """Draw unit-mean-power Rician fading amplitude(s).

    rice_k = 0 degenerates to Rayleigh fading; rice_k = inf to a pure
    deterministic LoS amplitude of 1.
    """
    if math.isinf(rice_k):
        return 1.0 + 0j if size is None else np.ones(size, dtype=complex)
    return rician_amplitude(rng.standard_normal(size),
                            rng.standard_normal(size), rice_k)


def rician_amplitude(re, im, rice_k: float):
    """Rician amplitude whose scattered part is (re + j im) / sqrt(2), for
    standard normal re and im and a finite rice_k."""
    nlos = (re + 1j * im) / math.sqrt(2.0)
    los_w = math.sqrt(rice_k / (rice_k + 1.0))
    nlos_w = math.sqrt(1.0 / (rice_k + 1.0))
    return los_w + nlos_w * nlos


def channel_gain(d: float, params: ChannelParams, re: float,
                 im: float) -> float:
    """Power gain |h|^2 of one block-fading device-UAV channel realization.

    re and im are the standard normals of its scattered part; a pure LoS
    channel (rice_k = inf) has none and ignores them.
    """
    fading = (1.0 + 0j if math.isinf(params.rice_k)
              else rician_amplitude(re, im, params.rice_k))
    amp = math.sqrt(large_scale_gain(d, params)) * fading
    return abs(amp) ** 2
