"""Uplink SINR, Shannon rate, and communication-delay bookkeeping.

Degenerate inputs (positive traffic at zero rate) yield an infinite delay
sentinel rather than an exception; the sentinel flows into the per-interval
delay-bound check and marks the interval infeasible.
"""

from __future__ import annotations

import math

import numpy as np

from .computation import work_delay


def sinr(power_gains, tx_powers, noise_power: float) -> np.ndarray:
    """Multi-access uplink SINR of every device at the UAV.

    power_gains (|h_k|^2) are (K,) arrays, or (R, K) for R realizations,
    and tx_powers (W) are (K,), or one power for every device; each
    interferer contributes with its own channel gain.
    """
    received = np.multiply(power_gains, tx_powers)
    interference = received.sum(axis=-1, keepdims=True) - received
    return received / (interference + noise_power)


def rate(sinr_value: float, bandwidth: float) -> float:
    """Shannon-Hartley achievable rate in bits/s."""
    return bandwidth * math.log2(1.0 + sinr_value)


def uplink_comm_delay(bits_offloaded, rate_bps):
    """Transmission delay in seconds; 0 for no traffic, inf at zero rate."""
    return work_delay(bits_offloaded, rate_bps, bits_offloaded)


def cloud_comm_delay(x_cloud, install_delay: float):
    """Fixed backhaul setup delay, charged whenever any bits go to the cloud."""
    return np.where(np.greater(x_cloud, 0.0), install_delay, 0.0)[()]


def total_comm_delay(uplink, cloud):
    return uplink + cloud
