"""Computation delays per tier and the end-to-end task delay pipeline.

Local computing overlaps the device->UAV uplink, and UAV computing overlaps
the UAV->cloud transfer, so the stage delays combine as maxima; the cloud
computes last.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class DelayBreakdown:
    t_local_comp: float
    t_uplink_comm: float
    t_uav_comp: float
    t_cloud_comm: float
    t_cloud_comp: float

    @property
    def t_total(self) -> float:
        return total_task_delay(self)


def comp_delay(bits: float, cpu: float, cycles_per_bit: float) -> float:
    """Processing delay bits*C/cpu in seconds; 0 for no work, inf at zero CPU."""
    if bits <= 0.0:
        return 0.0
    if cpu <= 0.0:
        return math.inf
    return bits * cycles_per_bit / cpu


def total_task_delay(b: DelayBreakdown) -> float:
    """End-to-end delay with local/uplink and UAV/backhaul stages overlapped."""
    return (max(b.t_local_comp, b.t_uplink_comm)
            + max(b.t_uav_comp, b.t_cloud_comm)
            + b.t_cloud_comp)
