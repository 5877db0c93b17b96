"""Run every workload several times and print each metric with its spread.

    python3 perfbench/suite.py                 # end-to-end, 10 seeds each
    python3 perfbench/suite.py --runs 5 --workloads train_dqn
    python3 perfbench/suite.py --trace         # also one traced run each

For each workload and end-to-end metric this prints the median over runs,
the quartiles, and the spread (quartile distance over the median) next to
the bound in BENCHMARK.json. ``failed_frac`` is failed episodes over
attempted episodes, summed over the runs. The count of operations with a
high kernel time share shows how many ran in the allocator-bound state, in
which every learning update faults in fresh pages (about 350 per interval).
Each run's output digest is listed: runs of one seed must agree, and a
change that claims identical outputs must reproduce the parent's digests. ``--trace`` adds one traced
run per workload and prints every per-layer metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900
# Kernel CPU seconds per host second above which an operation counts as
# allocator-bound: train_dqn spends about 0.4 s/s there, eval under 0.05.
KERNEL_HEAVY = 0.2


def run_once(workload: str, seed: int, seconds: int, trace: int):
    """One benchmark run; returns (result object, context, detail)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    tagged = dict(line.split(" ", 1) for line in lines[:-1] if " " in line)
    return (json.loads(lines[-1]), json.loads(tagged.get("context", "{}")),
            json.loads(tagged.get("detail", "{}")))


def spread(values):
    """(median, q1, q3, (q3 - q1) / |median|) as the benchmark contract uses."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", default=",".join(names),
                   help="comma-separated subset of " + ",".join(names))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", action="store_true",
                   help="also make one traced run per workload")
    args = p.parse_args(argv)
    chosen = args.workloads.split(",")
    unknown = sorted(set(chosen) - set(names))
    if unknown or args.runs < 1:
        p.error(f"unknown workloads {unknown}" if unknown else "--runs >= 1")

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    all_ok = True
    for workload in chosen:
        values = {name: [] for name in bounds}
        attempted = failed = 0
        digests = []
        kernel = []
        for seed in range(1, args.runs + 1):
            result, context, detail = run_once(workload, seed, args.seconds, 0)
            if seed == 1:
                print(f"context {json.dumps(context)}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            attempted += result["attempted"]
            failed += result["failed"]
            all_ok = all_ok and result["correct"]
            digests.append(f"{seed}:{detail.get('digest')}")
            kernel += detail.get("kernel_frac", [])
        print(f"== {workload}: {args.runs} runs x {args.seconds} s, "
              f"seeds 1..{args.runs}")
        for name, m in bounds.items():
            med, q1, q3, sp = spread(values[name])
            flag = "ok" if sp <= m["bound"] else "WIDE"
            print(f"  {name:22s} {med:12.4f} {m['unit']:5s} "
                  f"q1 {q1:.4f} q3 {q3:.4f} spread {sp:.4f} "
                  f"(bound {m['bound']}) {flag}")
            print(f"    runs: {' '.join(f'{v:.4g}' for v in values[name])}")
        frac = failed / attempted if attempted else float("nan")
        print(f"  {'failed_frac':22s} {frac:12.4f} frac  "
              f"({failed} of {attempted} episodes)")
        heavy = sum(k > KERNEL_HEAVY for k in kernel)
        print(f"  ops with kernel time above {KERNEL_HEAVY} s/s: "
              f"{heavy} of {len(kernel)}")
        print(f"  digests {' '.join(digests)}")

        if args.trace:
            result, _, detail = run_once(workload, 1, args.seconds, 1)
            all_ok = all_ok and result["correct"]
            print(f"  traced run, seed 1; missing targets: "
                  f"{detail.get('missing') or 'none'}")
            for name, m in result["metrics"].items():
                print(f"    {name:40s} {m['value']:12.4f} {m['unit']}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
