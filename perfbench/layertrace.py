"""Outside-in layer tracer: wraps public uavmec functions in timers at run time.

The tracer patches module and class attributes of an imported ``uavmec``
package and restores them on ``uninstall``; nothing under ``src/`` is edited.
For each wrapped function it records calls, busy time and self time (busy
time minus the busy time of wrapped callees). The first ``span_cap`` spans
stay in memory as (name, depth, start, end); ``span_tree`` gives them ids
and parent ids and ``write_spans`` writes them out at the end of a run.

The tracer may be installed and uninstalled many times (for example around
every other operation); its statistics add up over all installs.

A target whose module or attribute no longer exists is reported in
``missing`` and skipped, so the benchmark keeps running after a refactor
renames or deletes a function; its metrics then read 0.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    """One wrapped callable.

    name: metric prefix; several targets may share one and are summed.
    module: uavmec submodule holding the callable.
    attr: attribute path inside the module, e.g. ``MecEnvironment.step``.
    self_metric: name of the self-time metric (µs per interval).
    latency: also report per-call p50/p99 (including callees) and busy time.
    """
    name: str
    module: str
    attr: str
    self_metric: str
    latency: bool = False


def _t(name, module, attr, self_suffix="_us", latency=False):
    return Target(name, module, attr, name + self_suffix, latency)


# The public functions and methods of each layer, bottom up. The step and
# learner entry points report self time under ``_self_us`` because their
# callees are wrapped too.
TARGETS = (
    _t("channel.channel_gain", "channel", "channel_gain"),
    _t("channel.distance", "channel", "distance"),
    _t("phy_link.sinr", "phy_link", "sinr"),
    _t("phy_link.rate", "phy_link", "rate"),
    _t("phy_link.comm_delay", "phy_link", "uplink_comm_delay"),
    _t("phy_link.comm_delay", "phy_link", "cloud_comm_delay"),
    _t("phy_link.comm_delay", "phy_link", "total_comm_delay"),
    _t("computation.comp_delay", "computation", "comp_delay"),
    _t("queueing.compute_splits", "queueing", "compute_splits"),
    _t("queueing.step_queues", "queueing", "step_queues"),
    _t("queueing.draw_arrival", "queueing", "draw_arrival"),
    _t("objective.check_feasibility", "objective", "check_feasibility"),
    _t("objective.reward", "objective", "reward"),
    _t("objective.device_pde", "objective", "PdeAccumulator.device_pde"),
    _t("objective.processed_total", "objective", "processed_total"),
    _t("objective.record_interval", "objective",
       "PdeAccumulator.record_interval"),
    _t("environment.action_catalog", "environment", "action_catalog"),
    _t("environment.step", "environment", "MecEnvironment.step",
       "_self_us", latency=True),
    _t("environment.observe", "environment", "MecEnvironment.observe"),
    _t("environment.reset", "environment", "MecEnvironment.reset"),
    _t("harness.run_eval", "harness", "run_eval", "_self_us"),
    _t("agent.make_policy", "agent", "make_policy"),
    _t("agent.select_action", "agent", "select_action"),
    _t("agent.normalize_observation", "agent", "normalize_observation"),
    _t("agent.baseline_action", "agent", "baseline_action"),
    _t("agent.target_forward", "agent", "QNetwork.forward_cached"),
    _t("agent.train_step", "agent", "train_step", "_self_us", latency=True),
    _t("agent.replay_sample", "agent", "ReplayBuffer.sample"),
    _t("agent.replay_push", "agent", "ReplayBuffer.push"),
    _t("agent.sync_target", "agent", "sync_target"),
    _t("agent.train", "agent", "train", "_self_us"),
)

PACKAGE = "uavmec"
SPAN_CAP = 50_000


def metric_units(targets=TARGETS) -> dict:
    """Every metric name ``Tracer.metrics`` reports, mapped to its unit."""
    units = {}
    for t in targets:
        units[t.self_metric] = "us"
        if t.latency:
            units[t.name + "_busy_us"] = "us"
            units[t.name + "_p50_us"] = "us"
            units[t.name + "_p99_us"] = "us"
        units[t.name + ".calls"] = "count/interval"
    return units


class _Stat:
    __slots__ = ("calls", "busy", "self_time", "durations")

    def __init__(self, keep_durations: bool):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.durations = [] if keep_durations else None


class Tracer:
    """Timing wrappers on the ``targets`` of the imported uavmec package."""

    def __init__(self, targets=TARGETS, span_cap: int = SPAN_CAP):
        self.targets = tuple(targets)
        self.span_cap = span_cap
        self.names = sorted({t.name for t in self.targets})
        self.stats = {n: _Stat(any(t.latency for t in self.targets
                                   if t.name == n)) for n in self.names}
        self.missing = []
        self.spans = []
        self._patches = []      # (owner, attribute, original)
        self._stack = []        # busy time of wrapped callees, per open call

    # -- patching ------------------------------------------------------------

    def _resolve(self, target: Target):
        """(owner, attribute, callable) or None when the target is gone."""
        try:
            owner = importlib.import_module(f"{PACKAGE}.{target.module}")
        except ImportError:
            return None
        *path, attr = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        fn = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if not callable(fn):
            return None
        return owner, attr, fn

    def install(self) -> "Tracer":
        """Patch every target; statistics carry over from earlier installs."""
        self.missing = []
        for target in self.targets:
            found = self._resolve(target)
            if found is None:
                self.missing.append(f"{target.module}.{target.attr}")
                continue
            owner, attr, fn = found
            index = self.names.index(target.name)
            setattr(owner, attr, self._wrap(fn, self.stats[target.name], index))
            self._patches.append((owner, attr, fn))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, fn, stat: _Stat, name_index: int):
        stack = self._stack
        spans = self.spans
        cap = self.span_cap
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                stat.calls += 1
                stat.busy += dur
                stat.self_time += dur - stack.pop()
                if stat.durations is not None:
                    stat.durations.append(dur)
                if stack:
                    stack[-1] += dur
                if len(spans) < cap:
                    spans.append((name_index, len(stack), t0, t1))

        return timed

    # -- results -------------------------------------------------------------

    def metrics(self, intervals: int) -> dict:
        """Per-interval self times and call counts; per-call p50/p99."""
        if intervals < 1:
            raise ValueError("metrics need at least one traced interval")
        out = {}
        for t in self.targets:
            s = self.stats[t.name]
            out[t.self_metric] = 1e6 * s.self_time / intervals
            out[t.name + ".calls"] = s.calls / intervals
            if t.latency:
                out[t.name + "_busy_us"] = 1e6 * s.busy / intervals
                if s.durations:
                    p50, p99 = _percentiles(s.durations)
                    out[t.name + "_p50_us"] = 1e6 * p50
                    out[t.name + "_p99_us"] = 1e6 * p99
                else:
                    out[t.name + "_p50_us"] = 0.0
                    out[t.name + "_p99_us"] = 0.0
        return out

    def span_tree(self):
        """Kept spans as (id, parent id, name, start, end); parent 0 is none.

        Spans are kept in the order they end, with their nesting depth. A
        span's parent is the first later span one level up, because a parent
        ends after its callees and no span at the parent's depth ends between
        them.
        """
        tree = [None] * len(self.spans)
        last_at_depth = {}
        for sid in range(len(self.spans), 0, -1):
            idx, depth, t0, t1 = self.spans[sid - 1]
            parent = last_at_depth.get(depth - 1, 0) if depth else 0
            last_at_depth[depth] = sid
            tree[sid - 1] = (sid, parent, self.names[idx], t0, t1)
        return tree

    def write_spans(self, path) -> int:
        """Write the kept spans as CSV (times in µs from the first start)."""
        tree = self.span_tree()
        origin = min((t0 for _s, _p, _n, t0, _t1 in tree), default=0.0)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,parent,name,start_us,end_us\n")
            for sid, parent, name, t0, t1 in tree:
                fh.write(f"{sid},{parent},{name},"
                         f"{1e6 * (t0 - origin):.3f},{1e6 * (t1 - origin):.3f}\n")
        return len(tree)


def _percentiles(values):
    """Median and 99th percentile (inclusive method, needs no minimum size)."""
    if len(values) == 1:
        return values[0], values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[49], cuts[98]
