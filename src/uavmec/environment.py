"""MDP wrapper: observations, discrete action catalog, interval transition.

One environment instance owns its queue state and random stream and is
strictly single-threaded; run one instance per worker for parallel
evaluation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import channel as ch
from . import computation as comp
from . import objective as obj
from . import phy_link as phy
from . import queueing as qs
from .config import MOVES, SimConfig

STAY = 0


@dataclass(frozen=True)
class ActionVector:
    """Joint action: per-device fraction tuples plus one shared UAV move.

    device_fractions holds (x_uav, x_cloud, w_uav, w_cloud) per device; the
    local processing fraction is a fixed config constant, not an action.
    """
    device_fractions: tuple
    move: int


@dataclass
class IntervalRecord:
    """Everything computed during one interval, for metrics and replay."""
    interval: int
    uav_pos: ch.Position2D
    queues_before: list
    splits: list
    power_gains: np.ndarray
    sinrs: np.ndarray
    rates: np.ndarray
    delays: list
    t_comm: np.ndarray
    b_tot: np.ndarray
    eta: np.ndarray
    hist_pde: np.ndarray
    reward_per_device: np.ndarray
    arrivals: np.ndarray
    feasibility: obj.FeasibilityReport


@dataclass
class TransitionRecord:
    reward: float
    next_observation: np.ndarray
    done: bool
    record: IntervalRecord


def action_catalog(config: SimConfig):
    """Enumerate the full joint action space in a stable lexicographic order.

    Per-device combinations iterate fastest over the last device and the
    fraction tuple (x_uav, x_cloud, w_uav, w_cloud); the five UAV moves
    iterate innermost.
    """
    size = config.catalog_size
    if size > config.max_catalog_size:
        raise ValueError(
            f"joint action catalog has {size} entries, above the configured "
            f"cap {config.max_catalog_size}; a factorized action space is "
            f"out of scope, reduce num_devices or frac_levels")
    per_device = list(itertools.product(config.frac_levels, repeat=4))
    catalog = []
    for fracs in itertools.product(per_device, repeat=config.num_devices):
        for move in range(len(MOVES)):
            catalog.append(ActionVector(device_fractions=fracs, move=move))
    return catalog


def observation_size(config: SimConfig) -> int:
    return 3 * config.num_devices + (2 if config.include_uav_position else 0)


class MecEnvironment:
    """Discrete-interval simulator of the three-tier offloading network."""

    def __init__(self, config: SimConfig, seed=None):
        self.config = config
        self.catalog = action_catalog(config)
        self.chan_params = ch.ChannelParams(
            eta0=config.eta0, theta=config.path_loss_exp,
            rice_k=config.rician_k, altitude=config.altitude)
        self.weights = obj.RewardWeights(
            v1=config.v1, v2=config.v2, v3=config.v3, v4=config.v4,
            lyapunov_v=config.lyapunov_v,
            violation_penalty=config.violation_penalty)
        self._step_len = config.v_max * config.tau
        self.reset(seed)

    # -- lifecycle ---------------------------------------------------------

    def reset(self, seed=None) -> np.ndarray:
        cfg = self.config
        self.rng = np.random.default_rng(seed)
        self.n = 0
        self.device_positions = [
            ch.Position2D(self.rng.uniform(0.0, cfg.area_size),
                          self.rng.uniform(0.0, cfg.area_size))
            for _ in range(cfg.num_devices)]
        self.uav_pos = ch.Position2D(*cfg.area_center)
        self.queues = [qs.QueueTriple(0.0, 0.0, 0.0)
                       for _ in range(cfg.num_devices)]
        self.acc = obj.PdeAccumulator(num_devices=cfg.num_devices)
        return self.observe()

    def observe(self) -> np.ndarray:
        """Discretize each backlog into queue_levels buckets (clipped at cap)."""
        cfg = self.config
        top = cfg.queue_levels - 1
        cap = cfg.queue_cap
        levels = []
        for q in self.queues:
            for backlog in (q.q_local, q.q_uav, q.q_cloud):
                if backlog <= 0.0:
                    levels.append(0)
                elif cap <= 0.0:
                    levels.append(top)
                else:
                    levels.append(min(top, math.floor(
                        cfg.queue_levels * backlog / cap)))
        out = np.array(levels, dtype=float)
        if cfg.include_uav_position:
            out = np.concatenate([out, [self.uav_pos.x / cfg.area_size,
                                        self.uav_pos.y / cfg.area_size]])
        return out

    @property
    def done(self) -> bool:
        return self.n >= self.config.n_intervals

    def terminal_distance(self) -> float:
        """Distance from the current UAV position to the start waypoint."""
        return self.uav_pos.displacement(ch.Position2D(*self.config.area_center))

    # -- transition --------------------------------------------------------

    def step(self, action_index: int) -> TransitionRecord:
        cfg = self.config
        if self.done:
            raise RuntimeError("step() called on a finished episode")
        if not 0 <= action_index < len(self.catalog):
            raise IndexError(f"action index {action_index} outside catalog "
                             f"of size {len(self.catalog)}")
        action = self.catalog[action_index]

        # (1) UAV motion, clipped to the service area.
        prev_pos = self.uav_pos
        dx, dy = MOVES[action.move]
        self.uav_pos = ch.Position2D(
            min(cfg.area_size, max(0.0, prev_pos.x + dx * self._step_len)),
            min(cfg.area_size, max(0.0, prev_pos.y + dy * self._step_len)))

        # (2)-(3) fresh block-fading channels, SINR, rates.
        gains = np.empty(cfg.num_devices)
        for k, dev in enumerate(self.device_positions):
            d = ch.distance(self.uav_pos, dev, cfg.altitude)
            gains[k] = ch.channel_gain(d, self.chan_params, self.rng)
        powers = np.full(cfg.num_devices, cfg.fixed_tx_power)
        snapshot = phy.UplinkSnapshot(power_gains=gains, tx_powers=powers)
        sinrs = np.array([phy.sinr(k, snapshot, cfg.noise_power)
                          for k in range(cfg.num_devices)])
        rates = np.array([phy.rate(g, cfg.bandwidth) for g in sinrs])

        # (4) split amounts from start-of-interval backlogs.
        splits = []
        for k, q in enumerate(self.queues):
            x_uav, x_cloud, w_uav, w_cloud = action.device_fractions[k]
            splits.append(qs.compute_splits(q, x_uav, x_cloud,
                                            cfg.w_local, w_uav, w_cloud))

        # (5) delays and the per-device delay-bound indicator.
        delays = []
        t_comm = np.empty(cfg.num_devices)
        for k, s in enumerate(splits):
            x_cloud = action.device_fractions[k][1]
            b = comp.DelayBreakdown(
                t_local_comp=comp.comp_delay(s.b_local, cfg.local_cpu_max,
                                             cfg.cycles_per_bit),
                t_uplink_comm=phy.uplink_comm_delay(s.d_uav, rates[k]),
                t_uav_comp=comp.comp_delay(s.b_uav, cfg.uav_cpu_per_device,
                                           cfg.cycles_per_bit),
                t_cloud_comm=phy.cloud_comm_delay(x_cloud, cfg.install_delay),
                t_cloud_comp=comp.comp_delay(s.b_cloud, cfg.cloud_cpu_per_device,
                                             cfg.cycles_per_bit),
            )
            delays.append(b)
            t_comm[k] = phy.total_comm_delay(b.t_uplink_comm, b.t_cloud_comm)
        report = obj.check_feasibility(
            fractions=[(f[0], f[1], cfg.w_local, f[2], f[3])
                       for f in action.device_fractions],
            tx_powers=powers,
            cpu_local=np.full(cfg.num_devices, cfg.local_cpu_max),
            cpu_uav=np.full(cfg.num_devices, cfg.uav_cpu_per_device),
            cpu_cloud=np.full(cfg.num_devices, cfg.cloud_cpu_per_device),
            prev_pos=prev_pos, new_pos=self.uav_pos,
            total_delays=[b.t_total for b in delays], config=cfg)

        # (6) reward against the accumulator state up to interval n-1.
        hist_pde = np.array([self.acc.device_pde(k)
                             for k in range(cfg.num_devices)])
        b_tot = np.array([obj.processed_total(s.b_local, s.b_uav, s.b_cloud)
                          for s in splits])
        rewards = np.array([
            obj.reward(self.queues[k], splits[k], t_comm[k], hist_pde[k],
                       self.weights, int(report.eta[k]))
            for k in range(cfg.num_devices)])

        # (7) queue updates with fresh arrivals, (8) accumulators.
        arrivals = np.array([qs.draw_arrival(self.rng, cfg.i_max)
                             for _ in range(cfg.num_devices)])
        queues_before = list(self.queues)
        self.queues = [qs.step_queues(q, s, a) for q, s, a
                       in zip(self.queues, splits, arrivals)]
        self.acc.record_interval(b_tot, t_comm)

        record = IntervalRecord(
            interval=self.n, uav_pos=self.uav_pos,
            queues_before=queues_before, splits=splits, power_gains=gains,
            sinrs=sinrs, rates=rates, delays=delays, t_comm=t_comm,
            b_tot=b_tot, eta=report.eta.copy(), hist_pde=hist_pde,
            reward_per_device=rewards, arrivals=arrivals, feasibility=report)
        self.n += 1
        return TransitionRecord(
            reward=float(np.sum(rewards)), next_observation=self.observe(),
            done=self.done, record=record)
