"""uavmec benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload eval_fixed --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (episodes) and ``metrics``:

* ``--trace 0``: the end-to-end metrics. ``interval_steps_per_s`` is the
  median over operations of simulated intervals per second of host time;
  ``setup_s`` is the median over child processes of the time from process
  start to the first timed interval; ``peak_rss_mb`` is this process's peak
  resident memory.
* ``--trace 1``: the per-layer metrics. After an untraced warm-up
  operation, operations alternate between untraced and traced by the layer
  tracer; the tracer wraps the program's calls, not the output checks.
  ``trace.overhead_frac`` compares the medians of the two kinds, and
  ``process.kernel_frac`` is the median kernel CPU time per second of host
  time of the untraced ones. The kept spans are written under
  ``.perfbench_out/``.

Earlier lines give the run context, the output digest and per-operation
detail. The exit code is 0 unless the benchmark itself cannot run.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 120
# Per-layer metrics of the run itself rather than of one wrapped function.
RUN_METRIC_UNITS = {"trace.overhead_frac": "frac", "process.kernel_frac": "s/s"}


def load_uavmec():
    """Import uavmec from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "uavmec" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no uavmec sources under {src}")
    sys.path.insert(0, str(src))
    import uavmec
    from uavmec import agent, environment, harness  # noqa: F401
    if Path(uavmec.__file__).resolve().parent != (src / "uavmec").resolve():
        raise SystemExit(f"perfbench: uavmec imported from {uavmec.__file__}, "
                         f"not from {src}")
    return uavmec


def parse_args(argv):
    from workloads import NAMES
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def setup_probe(args) -> float:
    """Set-up time of a fresh process, from spawn to the first timed interval.

    perf_counter is CLOCK_MONOTONIC, shared by parent and child, so the
    child reports the instant its set-up ended and the parent subtracts the
    instant before it spawned the child.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0", "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["ready"] - t0


def timed_loop(workload, seconds: float, around=lambda i: nullcontext(),
               min_ops: int = 1):
    """Closed loop: start operations until ``seconds`` have passed.

    The i-th operation's program calls run inside ``around(i)``. Returns
    each operation's intervals per second of host time, its kernel CPU
    seconds per second of host time, and its result.
    """
    rates, kernel, results = [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while len(results) < min_ops or time.perf_counter() < deadline:
        k0 = resource.getrusage(resource.RUSAGE_SELF).ru_stime
        t0 = time.perf_counter()
        res = workload.op(i, around(i))
        dt = time.perf_counter() - t0
        rates.append(res.intervals / dt)
        kernel.append(
            (resource.getrusage(resource.RUSAGE_SELF).ru_stime - k0) / dt)
        results.append(res)
        i += 1
    return rates, kernel, results


def is_traced(i: int) -> bool:
    """In a traced run, operation 0 warms up untraced; then every other one."""
    return i > 0 and i % 2 == 0


def traced_metrics(workload, seconds: float):
    """Per-layer metrics from alternating traced and untraced operations."""
    from layertrace import Tracer
    tracer = Tracer()
    rates, kernel, results = timed_loop(
        workload, seconds, lambda i: tracer if is_traced(i) else nullcontext(),
        min_ops=3)
    plain = [i for i in range(1, len(results)) if not is_traced(i)]
    traced = [i for i in range(1, len(results)) if is_traced(i)]
    values = tracer.metrics(sum(results[i].intervals for i in traced))
    values["trace.overhead_frac"] = 1.0 - (
        statistics.median(rates[i] for i in traced)
        / statistics.median(rates[i] for i in plain))
    values["process.kernel_frac"] = statistics.median(kernel[i] for i in plain)
    return values, tracer, rates, kernel, results


def per_layer_units() -> dict:
    """Every ``--trace 1`` metric mapped to its unit."""
    from layertrace import metric_units
    return {**metric_units(), **RUN_METRIC_UNITS}


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    uavmec = load_uavmec()
    from workloads import Workload, digest_hex

    workload = Workload(args.workload, uavmec, args.seed)
    workload.setup()
    if args.setup_probe:
        print(json.dumps({"ready": time.perf_counter()}))
        return 0

    from runctx import run_context
    print("context " + json.dumps(run_context(ROOT)))

    detail = {"workload": args.workload, "seed": args.seed}
    if args.trace == 0:
        rates, kernel, results = timed_loop(workload, args.seconds)
        # Probes run after the loop so that the loop's process history, which
        # sets glibc's adaptive mmap threshold, does not depend on them.
        setup_samples = [setup_probe(args) for _ in range(SETUP_PROBES)]
        metrics = {
            "interval_steps_per_s": metric(statistics.median(rates), "1/s"),
            "setup_s": metric(statistics.median(setup_samples), "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB"),
        }
        detail["setup_samples_s"] = setup_samples
    else:
        values, tracer, rates, kernel, results = traced_metrics(
            workload, args.seconds)
        metrics = {name: metric(values[name], unit)
                   for name, unit in per_layer_units().items()}
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.csv"
        detail["spans_written"] = tracer.write_spans(spans_path)
        detail["missing"] = tracer.missing
        detail["traced_ops"] = [i for i in range(len(results)) if is_traced(i)]

    attempted = sum(r.episodes for r in results)
    failed = sum(r.failed_episodes for r in results)
    errors = workload.setup_errors + [e for r in results for e in r.errors]
    detail.update(ops=len(results), rates=rates, kernel_frac=kernel,
                  digest=digest_hex(workload.setup_digest, results[0]),
                  errors=errors[:10])
    print("detail " + json.dumps(detail))
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
