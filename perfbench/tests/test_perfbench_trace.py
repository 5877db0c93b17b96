"""Checks on the benchmark's layer tracer and workloads, at a reduced scale.

    python3 -m pytest perfbench/tests -q
"""

import json
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import pytest

import run
from layertrace import TARGETS, Target, Tracer, metric_units
from workloads import NAMES, Scale, Workload, digest_hex

BENCH = Path(__file__).resolve().parent.parent

# Episodes long enough for training to take a few learning updates.
SMALL = Scale(n_intervals=80, eval_realizations=1, setup_train_intervals=70)


def _first_digest(workload):
    workload.setup()
    return digest_hex(workload.setup_digest, workload.op(0))


@pytest.mark.parametrize("name", NAMES)
def test_traced_and_untraced_runs_give_the_same_digest(uavmec, name):
    plain = _first_digest(Workload(name, uavmec, seed=3, scale=SMALL))
    with Tracer():
        traced = _first_digest(Workload(name, uavmec, seed=3, scale=SMALL))
    assert traced == plain


@pytest.mark.parametrize("name", NAMES)
def test_operations_pass_their_output_checks(uavmec, name):
    workload = Workload(name, uavmec, seed=5, scale=SMALL)
    workload.setup()
    result = workload.op(0)
    assert workload.setup_errors == [] and result.errors == []
    assert result.failed_episodes == 0
    assert result.intervals == result.episodes * SMALL.n_intervals


@pytest.mark.parametrize("num_devices", [1, 2])
def test_channel_gain_is_called_once_per_device_and_interval(uavmec,
                                                            num_devices):
    cfg = replace(uavmec.SimConfig(), num_devices=num_devices,
                  n_intervals=40).validate()
    tracer = Tracer()
    with tracer:
        uavmec.harness.run_eval("random", cfg, seed=1, realizations=2)
    values = tracer.metrics(intervals=2 * 40)
    assert values["channel.channel_gain.calls"] == num_devices
    assert values["environment.step.calls"] == 1.0


def test_missing_targets_are_reported_and_never_raise(uavmec):
    gone = (Target("gone.function", "channel", "no_such_function",
                   "gone.function_us"),
            Target("gone.module", "no_such_module", "anything",
                   "gone.module_us"),
            Target("gone.method", "environment", "MecEnvironment.no_such",
                   "gone.method_us"),
            Target("gone.class", "environment", "NoSuchClass.step",
                   "gone.class_us", latency=True))
    tracer = Tracer(targets=TARGETS + gone)
    workload = Workload("eval_fixed", uavmec, seed=2, scale=SMALL)
    with tracer:
        workload.setup()
        result = workload.op(0)
    assert result.errors == []
    assert tracer.missing == ["channel.no_such_function",
                              "no_such_module.anything",
                              "environment.MecEnvironment.no_such",
                              "environment.NoSuchClass.step"]
    values = tracer.metrics(intervals=result.intervals)
    assert set(values) == set(metric_units(TARGETS + gone))
    for t in gone:
        assert values[t.self_metric] == 0.0
        assert values[t.name + ".calls"] == 0.0
    assert values["gone.class_p99_us"] == 0.0


def test_uninstall_restores_every_original(uavmec):
    env_cls = uavmec.environment.MecEnvironment
    before = (uavmec.channel.channel_gain, env_cls.__dict__["step"],
              uavmec.agent.train)
    with Tracer():
        assert uavmec.channel.channel_gain is not before[0]
        assert env_cls.__dict__["step"] is not before[1]
    assert (uavmec.channel.channel_gain, env_cls.__dict__["step"],
            uavmec.agent.train) == before


def _span_self_times(tree):
    """Self time per span and per name, computed from the span tree alone."""
    child_time = defaultdict(float)
    for _sid, parent, _name, t0, t1 in tree:
        child_time[parent] += t1 - t0
    per_span = {sid: (t1 - t0) - child_time[sid]
                for sid, _p, _n, t0, t1 in tree}
    per_name = defaultdict(float)
    for sid, _p, name, _t0, _t1 in tree:
        per_name[name] += per_span[sid]
    return per_span, per_name


@pytest.mark.parametrize("name", ["eval_fixed", "train_dqn"])
def test_self_times_add_up_to_busy_time(uavmec, name):
    tracer = Tracer(span_cap=10**7)
    workload = Workload(name, uavmec, seed=4, scale=SMALL)
    workload.setup()
    with tracer:
        result = workload.op(0)
    values = tracer.metrics(result.intervals)
    tree = tracer.span_tree()
    per_span, per_name = _span_self_times(tree)

    # The running totals agree with the span tree.
    for t in TARGETS:
        assert values[t.self_metric] == pytest.approx(
            1e6 * per_name[t.name] / result.intervals, rel=1e-9, abs=1e-9)

    # Within each environment step, the self times of everything the step
    # called plus the step's own self time make up the step's busy time.
    parent_of = {sid: parent for sid, parent, *_ in tree}
    name_of = {sid: name for sid, _p, name, *_ in tree}
    inside = 0.0
    for sid, self_time in per_span.items():
        node = parent_of[sid]
        while node and name_of[node] != "environment.step":
            node = parent_of[node]
        if node:
            inside += self_time
    steps = [s for s in tree if s[2] == "environment.step"]
    busy = sum(t1 - t0 for *_, t0, t1 in steps)
    steps_self = sum(per_span[s[0]] for s in steps)
    assert len(steps) == result.intervals
    assert steps_self + inside == pytest.approx(busy, rel=1e-9)
    assert values["environment.step_busy_us"] == pytest.approx(
        1e6 * busy / result.intervals, rel=1e-9)


def test_output_checks_run_outside_the_tracer(uavmec):
    workload = Workload("train_dqn", uavmec, seed=6, scale=SMALL)
    workload.setup()
    tracer = Tracer()
    result = workload.op(0, around=tracer)
    assert result.errors == []
    values = tracer.metrics(result.intervals)
    # The Q-value check's forward pass would be one more target forward.
    assert values["agent.train_step.calls"] > 0
    assert values["agent.target_forward.calls"] == \
        values["agent.train_step.calls"]
    assert tracer.missing == []


def test_traced_run_alternates_with_untraced_operations(uavmec):
    workload = Workload("eval_fixed", uavmec, seed=7, scale=SMALL)
    workload.setup()
    values, tracer, rates, kernel, results = run.traced_metrics(workload, 0.0)
    assert len(results) == len(rates) == len(kernel) == 3
    assert [run.is_traced(i) for i in range(3)] == [False, False, True]
    assert values["environment.step.calls"] == 1.0
    assert values["channel.channel_gain.calls"] == 2.0
    # One run_eval call per policy, each of eval_realizations episodes.
    assert values["harness.run_eval.calls"] == pytest.approx(
        1 / (SMALL.eval_realizations * SMALL.n_intervals))
    assert set(values) == set(run.per_layer_units())
    assert values["process.kernel_frac"] >= 0.0


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(NAMES)
