"""Per-device three-tier task queues and their update laws.

Each device owns a backlog at the device itself (local), at the UAV, and at
the cloud. Split amounts are computed from start-of-interval backlogs; bits
offloaded in an interval are credited downstream within the same interval's
update, and fresh arrivals are appended after service. Backlogs are
real-valued bits; fractional bits are fine since every law is linear.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QueueTriple:
    """Backlogs in bits for one device at the three tiers."""
    q_local: float
    q_uav: float
    q_cloud: float


@dataclass(frozen=True)
class SplitAmounts:
    """Bits moved or processed during one interval, for one device.

    d_uav:   local queue -> UAV queue
    b_local: processed at the device
    d_cloud: UAV queue -> cloud queue
    b_uav:   processed at the UAV
    b_cloud: processed at the cloud
    """
    d_uav: float
    b_local: float
    d_cloud: float
    b_uav: float
    b_cloud: float


def compute_splits(q: QueueTriple, x_uav: float, x_cloud: float,
                   w_local: float, w_uav: float, w_cloud: float) -> SplitAmounts:
    """Action-driven split of the three backlogs; all fractions in [0, 1].

    Offloading is taken off the top of a queue; the processing fraction then
    applies to the remainder (cloud processing applies to the whole backlog,
    nothing is offloaded past the cloud).
    """
    return SplitAmounts(
        d_uav=x_uav * q.q_local,
        b_local=w_local * (1.0 - x_uav) * q.q_local,
        d_cloud=x_cloud * q.q_uav,
        b_uav=w_uav * (1.0 - x_cloud) * q.q_uav,
        b_cloud=w_cloud * q.q_cloud,
    )


def update_local(q_local: float, s: SplitAmounts, arrival: float) -> float:
    """Device backlog: drain offloaded + locally processed bits, then arrivals."""
    return max(0.0, q_local - s.d_uav - s.b_local) + arrival


def update_uav(q_uav: float, s: SplitAmounts) -> float:
    """UAV backlog: drain cloud-offloaded + processed bits, credit device inflow."""
    return max(0.0, q_uav - s.d_cloud - s.b_uav) + s.d_uav


def update_cloud(q_cloud: float, s: SplitAmounts) -> float:
    """Cloud backlog: drain processed bits, credit UAV inflow."""
    return max(0.0, q_cloud - s.b_cloud) + s.d_cloud


def step_queues(q: QueueTriple, s: SplitAmounts, arrival: float) -> QueueTriple:
    """One synchronous update of all three tiers from the same snapshot."""
    return QueueTriple(
        q_local=update_local(q.q_local, s, arrival),
        q_uav=update_uav(q.q_uav, s),
        q_cloud=update_cloud(q.q_cloud, s),
    )


def draw_arrival(rng: np.random.Generator, max_bits: float) -> float:
    """One i.i.d. uniform task arrival on [0, max_bits], in bits."""
    if max_bits <= 0.0:
        return 0.0
    return float(rng.uniform(0.0, max_bits))

