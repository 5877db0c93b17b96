"""Computation delays per tier and the end-to-end task delay pipeline.

Local computing overlaps the device->UAV uplink, and UAV computing overlaps
the UAV->cloud transfer, so the stage delays combine as maxima; the cloud
computes last. Every function is element-wise over floats or (K,) arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DelayBreakdown:
    t_local_comp: float
    t_uplink_comm: float
    t_uav_comp: float
    t_cloud_comm: float
    t_cloud_comp: float


def work_delay(work, capacity, amount):
    """work / capacity; 0 where amount <= 0, else inf at zero capacity.

    Sentinel entries are never divided, so nothing raises or warns.
    """
    busy = np.greater(amount, 0.0)
    out = np.where(busy, np.inf, 0.0)
    np.divide(work, capacity, out=out,
              where=busy & np.greater(capacity, 0.0))
    return out[()]


def comp_delay(bits, cpu, cycles_per_bit):
    """Processing delay bits*C/cpu in seconds; 0 for no work, inf at zero CPU."""
    return work_delay(np.multiply(bits, cycles_per_bit), cpu, bits)


def total_task_delay(b: DelayBreakdown):
    """End-to-end delay with local/uplink and UAV/backhaul stages overlapped."""
    return (np.maximum(b.t_local_comp, b.t_uplink_comm)
            + np.maximum(b.t_uav_comp, b.t_cloud_comm)
            + b.t_cloud_comp)
