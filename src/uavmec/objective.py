"""Processed-data accounting, efficiency metrics, reward, and feasibility.

The system utility is Processed-Data Efficiency (PDE): aggregate processed
bits divided by aggregate communication delay. The per-interval reward
combines weighted queue-drain terms with a PDE-improvement term that is
gated by the per-device delay-bound indicator eta. check_feasibility is the
c1-c10 oracle; under a config that passes SimConfig.validate(), c1-c9 hold
by construction on every step, so the simulator never calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import SimConfig
from .queueing import QueueTriple, SplitAmounts


@dataclass
class PdeAccumulator:
    """Cumulative processed bits and communication delay per device.

    shape is K, or (R, K) for R lockstep realizations.
    """
    shape: tuple
    per_device_processed: np.ndarray = field(init=False)
    per_device_delay: np.ndarray = field(init=False)

    def __post_init__(self):
        self.per_device_processed = np.zeros(self.shape)
        self.per_device_delay = np.zeros(self.shape)

    def record_interval(self, b_tot: np.ndarray, t_comm: np.ndarray) -> None:
        """Add one interval of per-device processed bits and comm delays."""
        self.per_device_processed += b_tot
        self.per_device_delay += t_comm

    def device_pde(self) -> np.ndarray:
        """Historical PDE of every device; 0 for a device with no delay yet."""
        out = np.zeros(self.shape)
        np.divide(self.per_device_processed, self.per_device_delay, out=out,
                  where=self.per_device_delay > 0.0)
        return out


@dataclass
class FeasibilityReport:
    """Per-constraint verdicts for one interval plus the delay indicators."""
    c1_power: bool
    c2_offload_fracs: bool
    c3_compute_fracs: bool
    c4_local_cpu: bool
    c5_uav_cpu: bool
    c6_cloud_cpu: bool
    c7_speed: bool
    c8_endpoints: bool
    c9_area: bool
    c10_delay: bool
    eta: np.ndarray          # per-device {0,1}, 1 iff total delay <= tau

    def all_satisfied(self) -> bool:
        return all([self.c1_power, self.c2_offload_fracs, self.c3_compute_fracs,
                    self.c4_local_cpu, self.c5_uav_cpu, self.c6_cloud_cpu,
                    self.c7_speed, self.c8_endpoints, self.c9_area,
                    self.c10_delay])


def processed_total(b_local, b_uav, b_cloud):
    """Bits processed per device in one interval, summed over tiers."""
    return b_local + b_uav + b_cloud


def long_term_pde(processed: float, comm_delay: float) -> float:
    """Cumulative processed bits over cumulative comm delay, all devices."""
    if comm_delay <= 0.0:
        return math.inf if processed > 0.0 else 0.0
    return processed / comm_delay


def short_term_pde(processed, delays) -> float:
    """PDE over past intervals; 0 for empty or zero-delay history.

    processed and delays hold each interval's all-device totals.
    """
    den = sum(delays)
    if den <= 0.0:
        return 0.0
    return sum(processed) / den


def drift_plus_penalty_value(queues, splits, t_comms, processed, delays,
                             config: SimConfig) -> float:
    """Per-interval drift-plus-penalty objective (diagnostic / greedy oracle).

    queues, splits, t_comms are per-device sequences for one interval;
    processed and delays are the all-device totals of every earlier
    interval. The penalty term weighs aggregate processed bits against
    aggregate comm delay priced at the short-term PDE of that history.
    """
    u_n = short_term_pde(processed, delays)
    b_tot = sum(processed_total(s.b_local, s.b_uav, s.b_cloud) for s in splits)
    t_sum = sum(t_comms)
    value = config.lyapunov_v * (b_tot - u_n * t_sum)
    for q, s in zip(queues, splits):
        value += q.q_local * (s.b_local + s.d_uav)
        value -= q.q_uav * (s.d_uav - s.b_uav - s.d_cloud)
        value -= q.q_cloud * (s.d_cloud - s.b_cloud)
    return value


def reward(q: QueueTriple, s: SplitAmounts, t_comm, hist_pde,
           config: SimConfig, eta):
    """Per-device reward for one interval, element-wise over devices.

    Queue-drain terms are always active; the PDE-improvement term only
    counts where the device met the delay bound (eta = 1), and the delay is
    masked out elsewhere, so an infinite delay sentinel never propagates
    into the reward.
    """
    r = (config.v1 * q.q_local * (s.b_local + s.d_uav)
         - config.v2 * q.q_uav * (s.d_uav - s.b_uav - s.d_cloud)
         - config.v3 * q.q_cloud * (s.d_cloud - s.b_cloud))
    met = np.asarray(eta, dtype=bool)
    t_met = np.where(met, t_comm, 0.0)
    b_tot = processed_total(s.b_local, s.b_uav, s.b_cloud)
    return r + np.where(met, config.v4 * (b_tot - t_met * hist_pde),
                        -config.violation_penalty)


def check_feasibility(fractions, tx_powers, cpu_local, cpu_uav, cpu_cloud,
                      prev_pos, new_pos, total_delays, config) -> FeasibilityReport:
    """Evaluate the constraint set c1-c10 for one set of decisions.

    fractions: per-device (x_uav, x_cloud, w_local, w_uav, w_cloud) tuples.
    prev_pos/new_pos: UAV positions before and after one interval's move.
    total_delays: per-device end-to-end task delays in seconds.
    Infeasibility is reported, never repaired.
    """
    fr = np.asarray(fractions, dtype=float)
    tx = np.asarray(tx_powers, dtype=float)
    delays = np.asarray(total_delays, dtype=float)
    c1 = bool(np.all((tx >= 0.0) & (tx <= config.p_max)))
    c2 = bool(np.all((fr[:, :2] >= 0.0) & (fr[:, :2] <= 1.0)))
    c3 = bool(np.all((fr[:, 2:] >= 0.0) & (fr[:, 2:] <= 1.0)))
    c4 = bool(np.all((np.asarray(cpu_local) >= 0.0)
                     & (np.asarray(cpu_local) <= config.local_cpu_max)))
    c5 = 0.0 <= float(np.sum(cpu_uav)) <= config.uav_cpu_total * (1 + 1e-12)
    c6 = 0.0 <= float(np.sum(cpu_cloud)) <= config.cloud_cpu_total * (1 + 1e-12)
    speed = prev_pos.displacement(new_pos) / config.tau
    c7 = speed <= config.v_max * (1 + 1e-12)
    # The terminal-waypoint condition is not enforced per interval; the
    # harness reports the terminal distance to the start point instead.
    c8 = True
    c9 = (0.0 <= new_pos.x <= config.area_size
          and 0.0 <= new_pos.y <= config.area_size)
    eta = (delays <= config.tau).astype(int)
    c10 = bool(np.all(eta == 1))
    return FeasibilityReport(c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, eta)
