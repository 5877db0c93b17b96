"""MDP wrapper: observations, the joint action catalog's decoder, interval
transition.

A MecEnvironment is one realization's own part of the network: its random
stream, device placement and UAV position. A Lockstep steps R realizations
together, one in training: each realization's step() makes its own draws,
and the stages that act on the backlogs run once per interval on (R, K)
arrays. Instances are single-threaded.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain

import numpy as np

from . import channel as ch
from . import computation as comp
from . import objective as obj
from . import phy_link as phy
from . import queueing as qs
from .config import MAX_INDEXED_CATALOG, MOVES, SimConfig

STAY = 0


@dataclass
class IntervalRecord:
    """One interval's values for metrics and replay.

    Per-device values are (R, K) arrays, (K,) in realization(r)'s record.
    The reward is computed from them when first read, under the config the
    record is built with; evaluation never reads it.
    """
    interval: int
    queues_before: qs.QueueTriple
    splits: qs.SplitAmounts
    rates: np.ndarray
    delays: comp.DelayBreakdown
    t_comm: np.ndarray
    b_tot: np.ndarray
    eta: np.ndarray
    hist_pde: np.ndarray
    config: dataclasses.InitVar[SimConfig]

    def __post_init__(self, config: SimConfig):
        self._config = config

    @cached_property
    def reward_per_device(self) -> np.ndarray:
        """Per-device reward against the accumulator state up to the
        interval before this one (objective.reward)."""
        return obj.reward(self.queues_before, self.splits, self.t_comm,
                          self.hist_pde, self._config, self.eta)

    def realization(self, r: int) -> "IntervalRecord":
        """Realization r's record, cut from a Lockstep's record."""
        return IntervalRecord(*(_row(getattr(self, f.name), r)
                                for f in dataclasses.fields(self)),
                              self._config)


def _row(value, r):
    # Copies: a kept row must not hold on to the whole batch.
    if dataclasses.is_dataclass(value):
        return type(value)(*(_row(getattr(value, f.name), r)
                             for f in dataclasses.fields(value)))
    return value[r].copy() if isinstance(value, np.ndarray) else value


def action_catalog(config: SimConfig, index):
    """Decode one index, or an (R,) array, of the joint catalog into its
    fraction rows x_uav, x_cloud, w_uav, w_cloud over the K devices, (4, K)
    or (4, R, K), and its UAV moves; w_local is a constant, not an action.

    An index is a mixed-radix number in lexicographic order: its digits,
    most significant first, are the levels of device 0's four fractions,
    then device 1's and so on; the five moves are innermost. Raises
    IndexError outside [0, config.catalog_size).
    """
    index = np.asarray(index)
    if index.size == 0:  # [] gives float64, which take() refuses
        index = index.astype(np.int64)
    size = config.catalog_size
    flat = index.ravel().tolist() or [0]  # an empty batch is in range
    if size > MAX_INDEXED_CATALOG or min(flat) < 0 or max(flat) >= size:
        raise IndexError(f"action index {index} outside catalog of size "
                         f"{size} (int64 indices reach {MAX_INDEXED_CATALOG})")
    levels, places = _catalog_digits(tuple(config.frac_levels),
                                     config.num_devices, index.ndim)
    digits = index[..., None] // places % len(levels)
    return levels.take(digits), index % len(MOVES)


@lru_cache(maxsize=64)
def _catalog_digits(frac_levels: tuple, k: int, ndim: int):
    """The level values and the place value in an index of each fraction's
    digit, the moves' radix included, as (4, K) rows with ndim unit axes
    between, for an index of rank ndim. Read-only, since every decode under
    the same levels shares them."""
    levels = np.array(frac_levels, dtype=float)
    places = len(MOVES) * len(levels) ** np.arange(4 * k - 1, -1, -1)
    places = places.reshape(k, 4).T.reshape((4,) + (1,) * ndim + (k,))
    levels.flags.writeable = places.flags.writeable = False
    return levels, places


def observation_size(config: SimConfig) -> int:
    return 3 * config.num_devices + (2 if config.include_uav_position else 0)


def normalize_observation(obs: np.ndarray, config: SimConfig) -> np.ndarray:
    """Scale queue levels into [0, 1]; appended UAV coordinates already are."""
    out = np.array(obs, dtype=float)
    out[..., :3 * config.num_devices] /= config.queue_levels - 1
    return out


class MecEnvironment:
    """One realization's own part of the network: its random stream, device
    placement and UAV position.

    step(move) moves the UAV and draws the interval's channel gains and
    arrivals from the stream; the channel math stays scalar per device, so
    that its floats are the same however many realizations run together.
    The backlogs and the stages that act on them belong to the Lockstep
    that steps the realization.
    """

    def __init__(self, config: SimConfig, seed=0):
        # Every SimConfig is validated when built: c1 holds because every
        # device sends at p_max, c2-c4 are validate()'s own checks, and c5-c9
        # hold by the equal CPU shares and step()'s clipped move.
        self.config = config
        self._step_len = config.v_max * config.tau
        self.reset(seed)

    def reset(self, seed) -> None:
        cfg = self.config
        self.rng = np.random.default_rng(seed)
        self.device_positions = [
            ch.Position2D(self.rng.uniform(0.0, cfg.area_size),
                          self.rng.uniform(0.0, cfg.area_size))
            for _ in range(cfg.num_devices)]
        self.uav_pos = ch.Position2D(*cfg.area_center)
        # The devices' slant ranges, which step() keeps with the position.
        self._ranges = self._slant_ranges()

    def observe(self) -> list:
        """The realization's own part of an observation: its UAV position
        over the area size, [x, y], under include_uav_position, else []."""
        cfg, pos = self.config, self.uav_pos
        if not cfg.include_uav_position:
            return []
        return [pos.x / cfg.area_size, pos.y / cfg.area_size]

    def _slant_ranges(self) -> list:
        """Slant range from the UAV's position to each device."""
        return [ch.distance(self.uav_pos, dev, self.config.altitude)
                for dev in self.device_positions]

    def step(self, move: int):
        """Move the UAV by move, an int in range(len(MOVES)) that
        Lockstep.step has checked, then draw the interval's channel gains (a
        list) and arrivals."""
        cfg = self.config
        # (1) UAV motion, clipped to the service area. A stay would give
        # the same position back, so it keeps the position and the slant
        # ranges.
        if move != STAY:
            pos, (dx, dy) = self.uav_pos, MOVES[move]
            self.uav_pos = ch.Position2D(
                min(cfg.area_size, max(0.0, pos.x + dx * self._step_len)),
                min(cfg.area_size, max(0.0, pos.y + dy * self._step_len)))
            self._ranges = self._slant_ranges()

        # (2) fresh block-fading channels, then the interval's arrivals for
        # (7); nothing in between draws from the stream.
        k = cfg.num_devices
        fading = ch.rician_sample(self.rng, cfg.rician_k, k)
        gains = [ch.channel_gain(d, cfg, rho)
                 for d, rho in zip(self._ranges, fading)]
        return gains, qs.draw_arrival(self.rng, cfg.i_max, k)


class Lockstep:
    """R realizations of a config, stepped together; training steps one.

    Each realization is a MecEnvironment built from its own seed, which
    makes its own draws. The backlog is a (3, R, K) array, on which the
    stages run once per interval for all realizations; actions and rewards
    gain a leading (R,) axis, and observe() gives one row per realization.
    """

    def __init__(self, config: SimConfig, seeds):
        self.envs = [MecEnvironment(config, seed) for seed in seeds]
        if not self.envs:
            raise ValueError("a Lockstep needs at least one seed")
        self.config = config
        shape = self._shape = (len(self.envs), config.num_devices)
        # Per-device CPU of the local, UAV and cloud tiers, one row each, and
        # the work per bit of their compute and of the uplink, whose
        # capacity is the interval's rate.
        self._tier_cpus = np.array([[config.local_cpu_max],
                                    [config.uav_cpu_per_device],
                                    [config.cloud_cpu_per_device]])
        self._work_per_bit = np.array([[config.cycles_per_bit]] * 3 + [[1.0]])
        self.n = 0
        self.backlog = np.zeros((3,) + shape)
        self.acc = obj.PdeAccumulator(shape)

    @property
    def done(self) -> bool:
        return self.n >= self.config.n_intervals

    def observe(self) -> np.ndarray:
        """The network's input, one row per realization, in [0, 1]: backlog
        levels in queue_levels buckets (clipped at cap) over queue_levels - 1,
        device-major (local, UAV, cloud of device 0, then of device 1, ...),
        then the realization's own part, MecEnvironment.observe()."""
        cfg = self.config
        backlog = self.backlog.transpose(1, 2, 0).reshape(self._shape[0], -1)
        top = cfg.queue_levels - 1
        cap = cfg.queue_cap
        levels = (np.minimum(top, np.floor(cfg.queue_levels * backlog / cap))
                  if cap > 0.0 else top)
        out = normalize_observation(np.where(backlog <= 0.0, 0.0, levels), cfg)
        if cfg.include_uav_position:
            # One flat run: at R = 1000 faster than numpy reads nested lists.
            own = chain.from_iterable(env.observe() for env in self.envs)
            own = np.fromiter(own, float).reshape(self._shape[0], -1)
            out = np.concatenate([out, own], axis=-1)
        return out

    def terminal_distance(self) -> list:
        """Each realization's distance from its UAV to the start waypoint."""
        start = ch.Position2D(*self.config.area_center)
        return [env.uav_pos.displacement(start) for env in self.envs]

    def step(self, fractions, moves) -> IntervalRecord:
        """Advance every realization one interval under (4, R, K) fraction
        rows, in [0, 1] and unchecked, and (R,) integer moves, and return
        the interval's record; observe() gives the next observation. A
        finished episode raises RuntimeError, a wrong shape ValueError and a
        move that is not an int in range(len(MOVES)) IndexError, before any
        realization moves or draws."""
        if self.done:
            raise RuntimeError("step() called on a finished episode")
        if np.shape(fractions) != (4,) + self._shape or \
                np.shape(moves) != self._shape[:1]:
            raise ValueError(f"expected fraction rows and moves of shape "
                             f"{(4,) + self._shape} and {self._shape[:1]}")
        listed = np.asarray(moves).tolist()
        if not all(type(m) is int and 0 <= m < len(MOVES) for m in listed):
            raise IndexError(f"UAV moves {listed} are not integers in "
                             f"range({len(MOVES)})")
        gains, arrivals = map(np.array, zip(*[
            env.step(move) for env, move in zip(self.envs, listed)]))
        record = self._advance(fractions, gains, arrivals)
        self.n += 1
        return record

    def _advance(self, fractions, gains: np.ndarray,
                 arrivals: np.ndarray) -> IntervalRecord:
        """Stages (3)-(8) of the interval on the backlog, which moves on by
        one interval with the accumulator. Per-device arrays are (R, K),
        the fraction rows (4, R, K)."""
        cfg = self.config
        backlog = self.backlog

        # (3) SINR, and the rates, whose scalar math runs per device. The
        # rates fill the last of (5)'s capacity rows, under the three tiers'
        # CPUs, with one column per realization and device.
        sinrs = phy.sinr(gains, cfg.p_max, cfg.noise_power)
        capacity = np.empty((4, sinrs.size))
        capacity[:3] = self._tier_cpus
        capacity[3] = [phy.rate(g, cfg.bandwidth)
                       for g in sinrs.ravel().tolist()]
        rates = capacity[3].reshape(sinrs.shape)

        # (4) split amounts from start-of-interval backlogs.
        queues = qs.QueueTriple(backlog[0], backlog[1], backlog[2])
        x_uav, x_cloud, w_uav, w_cloud = fractions
        splits = qs.compute_splits(queues, x_uav, x_cloud, cfg.w_local,
                                   w_uav, w_cloud)
        amounts = qs.split_stack(splits)

        # (5) the three compute delays and the uplink delay in one pass,
        # work over capacity, then the per-device delay-bound indicator.
        work = amounts[:4]
        t_local, t_uav, t_cloud, t_uplink = comp.comp_delay(
            work.reshape(4, -1), capacity, self._work_per_bit
        ).reshape(work.shape)
        delays = comp.DelayBreakdown(
            t_local_comp=t_local,
            t_uplink_comm=t_uplink,
            t_uav_comp=t_uav,
            t_cloud_comm=phy.cloud_comm_delay(x_cloud, cfg.install_delay),
            t_cloud_comp=t_cloud,
        )
        t_comm = phy.total_comm_delay(delays.t_uplink_comm,
                                      delays.t_cloud_comm)
        met = comp.total_task_delay(delays) <= cfg.tau

        # (6) the accumulator state up to interval n-1, for the reward the
        # record computes when read.
        hist_pde = self.acc.device_pde()
        b_tot = obj.processed_total(splits.b_local, splits.b_uav,
                                    splits.b_cloud)

        # (7) queue updates with the drawn arrivals, (8) accumulators.
        self.backlog = qs.step_queues(backlog, amounts, arrivals)
        self.acc.record_interval(b_tot, t_comm)

        return IntervalRecord(
            interval=self.n, queues_before=queues,
            splits=splits, rates=rates, delays=delays, t_comm=t_comm,
            b_tot=b_tot, eta=met.astype(int), hist_pde=hist_pde, config=cfg)
