"""Per-device three-tier task queues and their update laws.

Each device owns a backlog at the device itself (local), at the UAV, and at
the cloud. Split amounts are computed from start-of-interval backlogs; bits
offloaded in an interval are credited downstream within the same interval's
update, and fresh arrivals are appended after service. Backlogs are
real-valued bits; fractional bits are fine since every law is linear.
Every law is element-wise: a field holds one device's float or a (K,) array,
and the update runs on the three backlogs stacked into one array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QueueTriple:
    """Backlogs in bits at the three tiers."""
    q_local: float
    q_uav: float
    q_cloud: float


@dataclass(frozen=True)
class SplitAmounts:
    """Bits moved or processed during one interval.

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


def compute_splits(q: QueueTriple, x_uav, x_cloud, w_local, w_uav,
                   w_cloud) -> SplitAmounts:
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


# The rows of a split stack, one array of SplitAmounts' five amounts for
# one device or for (..., K) devices, ordered so that each stage reads a
# block: [:3] is the work of the local, UAV and cloud compute and [3] the
# uplink's; [3:] is the first drain of the local, UAV and cloud backlogs and
# [:2] the second, so b_cloud is listed twice.
SPLIT_ROWS = ("b_local", "b_uav", "b_cloud", "d_uav", "d_cloud", "b_cloud")
# The backlog tier (local, UAV, cloud) that each row takes its share of.
SPLIT_TIERS = (0, 1, 2, 0, 1, 2)


def split_stack(s: SplitAmounts) -> np.ndarray:
    """s's amounts as a split stack, in SPLIT_ROWS order."""
    return np.array([getattr(s, name) for name in SPLIT_ROWS])


def step_queues(backlog, splits, arrival):
    """One synchronous update of all three tiers from the same snapshot.

    backlog holds the local, UAV and cloud backlogs, (3,) or (3, ..., K),
    and splits is their split stack. Each backlog loses its offloaded bits,
    then its processed ones, is floored at 0 and gains its inflow: the
    arrivals at the device, the bits offloaded from the tier below at the
    UAV and the cloud.
    """
    after = backlog - splits[3:]
    np.subtract(after[:2], splits[:2], out=after[:2])
    np.maximum(0.0, after, out=after)
    np.add(after[:1], arrival, out=after[:1])
    np.add(after[1:], splits[3:5], out=after[1:])
    return after


def draw_arrival(rng: np.random.Generator, max_bits: float, size=None):
    """I.i.d. uniform task arrivals on [0, max_bits], in bits.

    A float, or ``size`` draws equal to as many scalar draws; nothing is
    drawn when max_bits <= 0.
    """
    if max_bits <= 0.0:
        return 0.0 if size is None else np.zeros(size)
    return rng.uniform(0.0, max_bits, size)
