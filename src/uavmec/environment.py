"""MDP wrapper: observations, discrete action catalog, interval transition.

A MecEnvironment is one realization of the network: its random stream,
device placement, UAV position and backlogs. A Lockstep steps R
realizations together: each realization's step() makes its own draws, and
the stages that act on the backlogs run once per interval on (R, K) arrays.
Instances are single-threaded.
"""

from __future__ import annotations

import copy
import dataclasses
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
    """One interval's values for metrics and replay.

    Per-device values are (K,) arrays, or (R, K) arrays for a Lockstep's R
    realizations.
    """
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

    def realization(self, r: int) -> "IntervalRecord":
        """Realization r's record, cut from a Lockstep's record."""
        return _row(self, r)


def _row(value, r):
    # Copies: a kept row must not hold on to the whole batch.
    if dataclasses.is_dataclass(value):
        return type(value)(*(_row(getattr(value, f.name), r)
                             for f in dataclasses.fields(value)))
    return value[r].copy() if isinstance(value, np.ndarray) else value


@dataclass
class TransitionRecord:
    """step()'s result; reward is a float, or an (R,) array from a Lockstep."""
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


def _observation(config: SimConfig, queues: qs.QueueTriple,
                 uav_pos: ch.Position2D) -> np.ndarray:
    """Backlog levels in queue_levels buckets (clipped at cap); device-major
    (local, UAV, cloud of device 0, then of device 1, ...). One row per
    realization for (R, K) queues."""
    tiers = np.array((queues.q_local, queues.q_uav, queues.q_cloud))
    backlog = tiers.transpose(*range(1, tiers.ndim), 0).reshape(
        tiers.shape[1:-1] + (-1,))
    top = config.queue_levels - 1
    cap = config.queue_cap
    levels = (np.minimum(top, np.floor(config.queue_levels * backlog / cap))
              if cap > 0.0 else top)
    out = np.where(backlog <= 0.0, 0.0, levels)
    if config.include_uav_position:
        uav = np.stack((uav_pos.x, uav_pos.y), axis=-1)
        out = np.concatenate([out, uav / config.area_size], axis=-1)
    return out


class MecEnvironment:
    """Discrete-interval simulator of the three-tier offloading network.

    step() makes a transition in two parts. The realization's own part
    moves the UAV and draws the channel gains and the arrivals from its
    stream; the channel math stays scalar per device, so that its floats are
    the same wherever the realization runs. _advance then runs the stages on
    the backlogs, written for one realization's (K,) arrays or a Lockstep's
    (R, K) arrays. A realization inside a Lockstep makes only the first part
    in step(); the Lockstep runs _advance once for all of its realizations.
    """

    def __init__(self, config: SimConfig, seed=0):
        # validate() is the only gate: under a config it accepts, c1 holds
        # because every device transmits at p_max, c2-c4 are its own checks
        # and c5-c9 hold by the equal CPU shares and the clipped _move below,
        # on every step.
        self.config = config.validate()
        self.fractions, self.moves = action_catalog(config)
        self.chan_params = ch.ChannelParams(
            eta0=config.eta0, theta=config.path_loss_exp,
            rice_k=config.rician_k, altitude=config.altitude)
        # x_uav, x_cloud, w_uav, w_cloud rows: [:, i] is entry i's (4, K).
        self._fraction_rows = np.ascontiguousarray(
            self.fractions.transpose(1, 0, 2))
        self._step_len = config.v_max * config.tau
        self._tx_powers = np.full(config.num_devices, config.p_max)
        # Per-device CPU of the local, UAV and cloud tiers, one row each.
        self._tier_cpus = np.array([[config.local_cpu_max],
                                    [config.uav_cpu_per_device],
                                    [config.cloud_cpu_per_device]])
        self.in_lockstep = False
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
        self.acc = obj.PdeAccumulator(cfg.num_devices)
        return self.observe()

    def observe(self) -> np.ndarray:
        """The realization's backlog levels, as _observation gives them."""
        return _observation(self.config, self.queues, self.uav_pos)

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

    def step(self, action_index: int):
        """Advance one interval and return its TransitionRecord.

        Inside a Lockstep, return only this realization's channel gains (a
        list) and arrivals, for the Lockstep to advance the backlogs.
        """
        cfg = self.config
        if self.done:
            raise RuntimeError("step() called on a finished episode")
        if not 0 <= action_index < len(self.moves):
            raise IndexError(f"action index {action_index} outside catalog "
                             f"of size {len(self.moves)}")

        # (1) UAV motion, clipped to the service area.
        self.uav_pos = self._move(self.uav_pos, self.moves[action_index])

        # (2) fresh block-fading channels, then the interval's arrivals for
        # (7); nothing in between draws from the stream.
        gains = [ch.channel_gain(ch.distance(self.uav_pos, dev, cfg.altitude),
                                 self.chan_params, self.rng)
                 for dev in self.device_positions]
        arrivals = qs.draw_arrival(self.rng, cfg.i_max, cfg.num_devices)
        if self.in_lockstep:
            self.n += 1
            return gains, arrivals

        record = self._advance(self, action_index, np.array(gains), arrivals)
        self.n += 1
        return TransitionRecord(
            reward=float(np.sum(record.reward_per_device)),
            next_observation=self.observe(), done=self.done, record=record)

    def _advance(self, state, actions, gains: np.ndarray,
                 arrivals: np.ndarray) -> IntervalRecord:
        """Stages (3)-(8) of state's interval on its backlogs.

        state is this environment, or a Lockstep of realizations sharing its
        tables; its queues and accumulators move on by one interval. Per
        device arrays are (K,) for one realization with one action, or
        (R, K) for R realizations with (R,) actions.
        """
        cfg = self.config
        x_uav, x_cloud, w_uav, w_cloud = self._fraction_rows[:, actions]

        # (3) SINR, and the rates, whose scalar math runs per device.
        sinrs = phy.sinr(gains, self._tx_powers, cfg.noise_power)
        rates = np.array([phy.rate(g, cfg.bandwidth)
                          for g in sinrs.flat]).reshape(sinrs.shape)

        # (4) split amounts from start-of-interval backlogs.
        queues = state.queues
        splits = qs.compute_splits(queues, x_uav, x_cloud, cfg.w_local,
                                   w_uav, w_cloud)

        # (5) delays and the per-device delay-bound indicator.
        t_local, t_uav, t_cloud = comp.comp_delay(
            np.array((splits.b_local, splits.b_uav, splits.b_cloud)),
            self._tier_cpus.reshape((3,) + (1,) * gains.ndim),
            cfg.cycles_per_bit)
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
        hist_pde = state.acc.device_pde()
        b_tot = obj.processed_total(splits.b_local, splits.b_uav,
                                    splits.b_cloud)
        rewards = obj.reward(queues, splits, t_comm, hist_pde, cfg, eta)

        # (7) queue updates with the drawn arrivals, (8) accumulators.
        state.queues = qs.step_queues(queues, splits, arrivals)
        state.acc.record_interval(b_tot, t_comm)

        return IntervalRecord(
            interval=state.n, uav_pos=state.uav_pos, queues_before=queues,
            splits=splits, power_gains=gains, sinrs=sinrs, rates=rates,
            delays=delays, t_comm=t_comm, b_tot=b_tot, eta=eta,
            hist_pde=hist_pde, reward_per_device=rewards, arrivals=arrivals)


class Lockstep:
    """R realizations of an environment, stepped together.

    Each realization is a copy of env, sharing its catalog tables, reset
    from its own seed. The backlogs are (R, K) arrays; actions,
    observations and rewards gain a leading (R,) axis.
    """

    def __init__(self, env: MecEnvironment, seeds):
        cfg = self.config = env.config
        self._env = env
        self.envs = []
        for seed in seeds:
            realization = copy.copy(env)
            realization.in_lockstep = True
            realization.reset(seed)
            self.envs.append(realization)
        shape = (len(self.envs), cfg.num_devices)
        self.n = 0
        self.uav_pos = ch.Position2D(np.full(shape[0], cfg.area_center[0]),
                                     np.full(shape[0], cfg.area_center[1]))
        self.queues = qs.QueueTriple(*np.zeros((3,) + shape))
        self.acc = obj.PdeAccumulator(shape)

    @property
    def device_positions(self) -> list:
        return [env.device_positions for env in self.envs]

    @property
    def done(self) -> bool:
        return self.n >= self.config.n_intervals

    def observe(self) -> np.ndarray:
        """One row of backlog levels per realization."""
        return _observation(self.config, self.queues, self.uav_pos)

    def terminal_distance(self) -> list:
        return [env.terminal_distance() for env in self.envs]

    def step(self, action_indices) -> TransitionRecord:
        """Advance every realization one interval, one action index each."""
        actions = np.asarray(action_indices)
        if actions.shape != (len(self.envs),):
            raise ValueError(f"expected action indices of shape "
                             f"({len(self.envs)},), got {actions.shape}")
        indices = actions.tolist()
        if min(indices) < 0 or max(indices) >= len(self._env.moves):
            raise IndexError(f"action index {action_indices} outside catalog "
                             f"of size {len(self._env.moves)}")
        drawn = [env.step(a) for env, a in zip(self.envs, indices)]
        gains, arrivals = (np.array(rows) for rows in zip(*drawn))
        self.uav_pos = ch.Position2D(
            np.array([env.uav_pos.x for env in self.envs]),
            np.array([env.uav_pos.y for env in self.envs]))
        record = self._env._advance(self, actions, gains, arrivals)
        self.n += 1
        return TransitionRecord(
            reward=record.reward_per_device.sum(axis=-1),
            next_observation=self.observe(), done=self.done, record=record)
