"""MDP wrapper: observations, the joint action catalog's decoder, interval
transition.

A MecEnvironment is one realization's own part of the network: its random
stream, device placement and UAV position. A Lockstep steps R realizations
together, one in training: each realization's step() makes its own draws,
and the stages that act on the backlogs run once per interval on (R, K)
arrays, or once per block of intervals whose actions are known in advance.
Instances are single-threaded.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, cycle

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

    Per-device values are (R, K) arrays, (K,) in realization(r)'s record,
    and (B·R, K) in the record of a block of B intervals from interval on,
    whose rows run interval-major. The historical PDE and the reward are
    computed from them when first read, under the config the record is
    built with; evaluation never reads them.
    """
    interval: int
    queues_before: qs.QueueTriple
    splits: qs.SplitAmounts
    rates: np.ndarray
    delays: comp.DelayBreakdown
    t_comm: np.ndarray
    b_tot: np.ndarray
    eta: np.ndarray
    processed_before: np.ndarray
    delay_before: np.ndarray
    config: dataclasses.InitVar[SimConfig]

    def __post_init__(self, config: SimConfig):
        self._config = config

    @cached_property
    def hist_pde(self) -> np.ndarray:
        """Per-device historical PDE up to the interval before this one, of
        the accumulator's sums then (PdeAccumulator.device_pde)."""
        return obj.historical_pde(self.processed_before, self.delay_before)

    @cached_property
    def reward_per_device(self) -> np.ndarray:
        """Per-device reward against the accumulator state up to the
        interval before this one (objective.reward)."""
        return obj.reward(self.queues_before, self.splits, self.t_comm,
                          self.hist_pde, self._config, self.eta)

    def realization(self, r: int) -> "IntervalRecord":
        """Realization r's record, cut from a Lockstep's record."""
        return self._cut(r, 0)

    def intervals_of(self, r: int, realizations: int) -> list:
        """Realization r's record at each interval of a block's record,
        whose rows run interval-major, realizations rows to an interval."""
        return [self._cut(row + r, row // realizations)
                for row in range(0, len(self.eta), realizations)]

    def _cut(self, row: int, offset: int) -> "IntervalRecord":
        """Row row's record, at offset intervals from this record's."""
        return IntervalRecord(self.interval + offset,
                              *(_row(getattr(self, f.name), row)
                                for f in dataclasses.fields(self)[1:]),
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
        """Move the UAV by move, an int in range(len(MOVES)) that the
        Lockstep has checked, then draw the interval's channel gains (a
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
        the interval's record; observe() gives the next observation. This is
        step_block's one-interval block, with its checks, and its record is
        the interval's own."""
        return self._steps(fractions, moves, blocked=False)

    def step_block(self, fractions, moves) -> IntervalRecord:
        """Advance every realization B intervals under (4, B, R, K) fraction
        rows and (B, R) moves, each interval's as step() takes them, and
        return the block's record, whose arrays are those of B step() calls,
        byte for byte. A finished episode or a block running past
        n_intervals raises RuntimeError, a wrong shape or an empty block
        ValueError and a move that is not an int in range(len(MOVES))
        IndexError, before any realization moves or draws."""
        return self._steps(fractions, moves, blocked=True)

    def _steps(self, fractions, moves, blocked: bool) -> IntervalRecord:
        """step() or step_block(): the checks and the draws, then _advance
        on the block's rows."""
        if self.done:
            raise RuntimeError("step() called on a finished episode")
        fractions, moves = np.asarray(fractions), np.asarray(moves)
        block = moves.shape[:1] if blocked else ()
        count = block[0] if block else 1
        if fractions.shape != (4,) + block + self._shape or \
                moves.shape != block + self._shape[:1] or count < 1:
            raise ValueError(f"expected fraction rows and moves of shape "
                             f"{(4,) + block + self._shape} and "
                             f"{block + self._shape[:1]}, at least one "
                             f"interval")
        if self.n + count > self.config.n_intervals:
            raise RuntimeError(f"a block of {count} intervals from interval "
                               f"{self.n} runs past n_intervals "
                               f"{self.config.n_intervals}")
        listed = moves.ravel().tolist()
        if not all(type(m) is int and 0 <= m < len(MOVES) for m in listed):
            raise IndexError(f"UAV moves {listed} are not integers in "
                             f"range({len(MOVES)})")
        # Interval-major: each realization draws its intervals in order.
        gains, arrivals = map(np.array, zip(*[
            env.step(move) for env, move in zip(cycle(self.envs), listed)]))
        if block:
            fractions = fractions.reshape(4, -1, self._shape[1])
        return self._advance(fractions, gains, arrivals)

    def _advance(self, fractions, gains: np.ndarray,
                 arrivals: np.ndarray) -> IntervalRecord:
        """Stages (3)-(8) of a block of B intervals on the backlog, which
        moves on by B intervals with the accumulator. Per-device arrays are
        the block's (B·R, K) rows, interval-major, the fraction rows
        (4, B·R, K). Only the queue recursion runs interval by interval;
        every other stage runs once on all the rows."""
        cfg = self.config
        r = self._shape[0]

        # (3) SINR, and the rates, whose scalar math runs per device. The
        # rates fill the last of (5)'s capacity rows, under the three tiers'
        # CPUs, with one column per row and device.
        sinrs = phy.sinr(gains, cfg.p_max, cfg.noise_power)
        capacity = np.empty((4, sinrs.size))
        capacity[:3] = self._tier_cpus
        capacity[3] = [phy.rate(g, cfg.bandwidth)
                       for g in sinrs.ravel().tolist()]
        rates = capacity[3].reshape(sinrs.shape)

        # (4) split amounts from each interval's start-of-interval backlogs,
        # and (7) the queue updates with the drawn arrivals, one interval
        # after another.
        backlogs, stacks = [self.backlog], []
        for i in range(0, len(gains), r):
            backlog = backlogs[-1]
            x_uav, x_cloud, w_uav, w_cloud = fractions[:, i:i + r]
            queues = qs.QueueTriple(backlog[0], backlog[1], backlog[2])
            splits = qs.compute_splits(queues, x_uav, x_cloud, cfg.w_local,
                                       w_uav, w_cloud)
            stacks.append(qs.split_stack(splits))
            backlogs.append(qs.step_queues(backlog, stacks[-1],
                                           arrivals[i:i + r]))
        self.backlog = backlogs.pop()
        amounts = stacks[0]
        if len(stacks) > 1:
            # The block's rows, interval-major; b_cloud's two rows are equal.
            queues = qs.QueueTriple(*np.concatenate(backlogs, axis=1))
            amounts = np.concatenate(stacks, axis=1)
            splits = qs.SplitAmounts(**dict(zip(qs.SPLIT_ROWS, amounts)))

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
            t_cloud_comm=phy.cloud_comm_delay(fractions[1],
                                              cfg.install_delay),
            t_cloud_comp=t_cloud,
        )
        t_comm = phy.total_comm_delay(delays.t_uplink_comm,
                                      delays.t_cloud_comm)
        met = comp.total_task_delay(delays) <= cfg.tau

        # (6) the accumulator state before each interval, for the historical
        # PDE and the reward the record computes when read, and (8) after
        # the block's last.
        b_tot = obj.processed_total(splits.b_local, splits.b_uav,
                                    splits.b_cloud)
        processed, delay = self.acc.record_block(b_tot, t_comm)

        # Positional: about 0.5 us less than keywords, at R = 1 about 1%.
        record = IntervalRecord(self.n, queues, splits, rates, delays, t_comm,
                                b_tot, met.astype(int), processed, delay, cfg)
        self.n += len(stacks)
        return record
