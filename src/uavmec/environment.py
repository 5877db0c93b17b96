"""MDP wrapper: observations, discrete action catalog, interval transition.

One environment instance owns its queue state and random stream and is
strictly single-threaded; run one instance per worker for parallel
evaluation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import channel as ch
from . import computation as comp
from . import objective as obj
from . import phy_link as phy
from . import queueing as qs
from .config import MOVES, SimConfig

STAY = 0


@dataclass
class IntervalRecord:
    """One interval's values for metrics and replay; (K,) arrays per device."""
    interval: int
    uav_pos: ch.Position2D
    queues_before: qs.QueueTriple
    splits: qs.SplitAmounts
    power_gains: np.ndarray
    sinrs: np.ndarray
    rates: np.ndarray
    delays: comp.DelayBreakdown
    t_comm: np.ndarray
    b_tot: np.ndarray
    eta: np.ndarray
    hist_pde: np.ndarray
    reward_per_device: np.ndarray
    arrivals: np.ndarray


@dataclass
class TransitionRecord:
    reward: float
    next_observation: np.ndarray
    done: bool
    record: IntervalRecord


def action_catalog(config: SimConfig):
    """The full joint action space as (fractions, moves) tables.

    fractions[i] holds entry i's x_uav, x_cloud, w_uav, w_cloud rows over the
    K devices, shape (n, 4, K); w_local is a config constant, not an action.
    moves[i] is its UAV move, shape (n,). The order is lexicographic: the last
    device's fraction tuple varies fastest, the five UAV moves innermost.
    """
    size = config.catalog_size
    if size > config.max_catalog_size:
        raise ValueError(
            f"joint action catalog has {size} entries, above the configured "
            f"cap {config.max_catalog_size}; a factorized action space is "
            f"out of scope, reduce num_devices or frac_levels")
    k = config.num_devices
    grid = np.array(list(itertools.product(config.frac_levels, repeat=4 * k)))
    fractions = np.repeat(grid.reshape(-1, k, 4).transpose(0, 2, 1),
                          len(MOVES), axis=0)
    moves = np.tile(np.arange(len(MOVES)), len(grid))
    return fractions, moves


def observation_size(config: SimConfig) -> int:
    return 3 * config.num_devices + (2 if config.include_uav_position else 0)


class MecEnvironment:
    """Discrete-interval simulator of the three-tier offloading network.

    Per-device state is held as (K,) arrays and each stage of step() is one
    element-wise call; the channel draw and the rate stay per device so that
    their floats match the scalar math bit for bit.
    """

    def __init__(self, config: SimConfig, seed=0):
        # validate() is the only gate: under a config it accepts, c1-c4 are
        # its own checks and c5-c9 hold by the equal CPU shares and the
        # clipped _move below, on every step.
        self.config = config.validate()
        self.fractions, self.moves = action_catalog(config)
        self.chan_params = ch.ChannelParams(
            eta0=config.eta0, theta=config.path_loss_exp,
            rice_k=config.rician_k, altitude=config.altitude)
        self._step_len = config.v_max * config.tau
        self._tx_powers = np.full(config.num_devices, config.fixed_tx_power)
        # Per-device CPU of the local, UAV and cloud tiers, one row each.
        self._tier_cpus = np.array([[config.local_cpu_max],
                                    [config.uav_cpu_per_device],
                                    [config.cloud_cpu_per_device]])
        self.reset(seed)

    # -- lifecycle ---------------------------------------------------------

    def reset(self, seed) -> np.ndarray:
        cfg = self.config
        self.rng = np.random.default_rng(seed)
        self.n = 0
        self.device_positions = [
            ch.Position2D(self.rng.uniform(0.0, cfg.area_size),
                          self.rng.uniform(0.0, cfg.area_size))
            for _ in range(cfg.num_devices)]
        self.uav_pos = ch.Position2D(*cfg.area_center)
        self.queues = qs.QueueTriple(*np.zeros((3, cfg.num_devices)))
        self.acc = obj.PdeAccumulator(num_devices=cfg.num_devices)
        return self.observe()

    def observe(self) -> np.ndarray:
        """Backlog levels in queue_levels buckets (clipped at cap); device-major
        (local, UAV, cloud of device 0, then of device 1, ...)."""
        cfg = self.config
        q = self.queues
        backlog = np.array((q.q_local, q.q_uav, q.q_cloud)).T.ravel()
        top = cfg.queue_levels - 1
        cap = cfg.queue_cap
        levels = (np.minimum(top, np.floor(cfg.queue_levels * backlog / cap))
                  if cap > 0.0 else top)
        out = np.where(backlog <= 0.0, 0.0, levels)
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

    def _move(self, pos: ch.Position2D, move: int) -> ch.Position2D:
        """Position one interval's move away from pos, clipped to the area."""
        size = self.config.area_size
        dx, dy = MOVES[move]
        return ch.Position2D(
            min(size, max(0.0, pos.x + dx * self._step_len)),
            min(size, max(0.0, pos.y + dy * self._step_len)))

    def step(self, action_index: int) -> TransitionRecord:
        cfg = self.config
        if self.done:
            raise RuntimeError("step() called on a finished episode")
        if not 0 <= action_index < len(self.moves):
            raise IndexError(f"action index {action_index} outside catalog "
                             f"of size {len(self.moves)}")
        x_uav, x_cloud, w_uav, w_cloud = self.fractions[action_index]

        # (1) UAV motion, clipped to the service area.
        self.uav_pos = self._move(self.uav_pos, self.moves[action_index])

        # (2)-(3) fresh block-fading channels, SINR, rates.
        gains = np.array([
            ch.channel_gain(ch.distance(self.uav_pos, dev, cfg.altitude),
                            self.chan_params, self.rng)
            for dev in self.device_positions])
        sinrs = phy.sinr(gains, self._tx_powers, cfg.noise_power)
        rates = np.array([phy.rate(g, cfg.bandwidth) for g in sinrs])

        # (4) split amounts from start-of-interval backlogs.
        queues = self.queues
        splits = qs.compute_splits(queues, x_uav, x_cloud, cfg.w_local,
                                   w_uav, w_cloud)

        # (5) delays and the per-device delay-bound indicator.
        t_local, t_uav, t_cloud = comp.comp_delay(
            np.array((splits.b_local, splits.b_uav, splits.b_cloud)),
            self._tier_cpus, cfg.cycles_per_bit)
        delays = comp.DelayBreakdown(
            t_local_comp=t_local,
            t_uplink_comm=phy.uplink_comm_delay(splits.d_uav, rates),
            t_uav_comp=t_uav,
            t_cloud_comm=phy.cloud_comm_delay(x_cloud, cfg.install_delay),
            t_cloud_comp=t_cloud,
        )
        t_comm = phy.total_comm_delay(delays.t_uplink_comm,
                                      delays.t_cloud_comm)
        eta = (comp.total_task_delay(delays) <= cfg.tau).astype(int)

        # (6) reward against the accumulator state up to interval n-1.
        hist_pde = self.acc.device_pde()
        b_tot = obj.processed_total(splits.b_local, splits.b_uav,
                                    splits.b_cloud)
        rewards = obj.reward(queues, splits, t_comm, hist_pde, cfg, eta)

        # (7) queue updates with fresh arrivals, (8) accumulators.
        arrivals = qs.draw_arrival(self.rng, cfg.i_max, cfg.num_devices)
        self.queues = qs.step_queues(queues, splits, arrivals)
        self.acc.record_interval(b_tot, t_comm)

        record = IntervalRecord(
            interval=self.n, uav_pos=self.uav_pos, queues_before=queues,
            splits=splits, power_gains=gains, sinrs=sinrs, rates=rates,
            delays=delays, t_comm=t_comm, b_tot=b_tot, eta=eta,
            hist_pde=hist_pde, reward_per_device=rewards, arrivals=arrivals)
        self.n += 1
        return TransitionRecord(
            reward=float(np.sum(rewards)), next_observation=self.observe(),
            done=self.done, record=record)
