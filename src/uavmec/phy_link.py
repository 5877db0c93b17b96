"""Uplink SINR, Shannon rate, and communication-delay bookkeeping.

Degenerate inputs (positive traffic at zero rate) yield an infinite delay
sentinel rather than an exception; the sentinel flows into the per-interval
delay-bound check and marks the interval infeasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class UplinkSnapshot:
    """Per-device channel power gains and transmit powers for one interval."""
    power_gains: np.ndarray   # |h_k|^2, unitless
    tx_powers: np.ndarray     # W


def sinr(device_index: int, snapshot: UplinkSnapshot, noise_power: float) -> float:
    """Multi-access uplink SINR of one device at the UAV.

    Each interferer contributes with its own channel gain.
    """
    received = snapshot.power_gains * snapshot.tx_powers
    signal = received[device_index]
    interference = float(np.sum(received)) - signal
    return signal / (interference + noise_power)


def rate(sinr_value: float, bandwidth: float) -> float:
    """Shannon-Hartley achievable rate in bits/s."""
    return bandwidth * math.log2(1.0 + sinr_value)


def uplink_comm_delay(bits_offloaded: float, rate_bps: float) -> float:
    """Transmission delay in seconds; 0 for no traffic, inf at zero rate."""
    if bits_offloaded <= 0.0:
        return 0.0
    if rate_bps <= 0.0:
        return math.inf
    return bits_offloaded / rate_bps


def cloud_comm_delay(x_cloud: float, install_delay: float) -> float:
    """Fixed backhaul setup delay, charged whenever any bits go to the cloud."""
    return install_delay if x_cloud > 0.0 else 0.0


def total_comm_delay(uplink: float, cloud: float) -> float:
    return uplink + cloud
