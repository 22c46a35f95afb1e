"""Benchmark entry point: one workload run, or every workload in turn.

    python3 perfbench/run.py --workload run-fgls --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from anywhere inside a checkout that has `src/asymcause`.  Each run makes
its inputs from the seed, starts fresh worker processes with BLAS pinned to
one thread, and prints every metric with its unit on stderr.  The last line
on stdout is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics of a
traced run with --trace 1.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
GOLDEN = HERE / "golden.json"
OUT = HERE / "out"

# The regressions are tiny, so threaded BLAS would only compete for the cores.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 9  # extra fresh processes timed for setup_s
TIME_LIMIT_S = 170.0  # a run must end within 180 s
END_TO_END = ("analysis_s", "reps_per_s", "setup_s", "peak_rss_mb")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def child_env() -> dict:
    return {**os.environ, **THREAD_ENV, "PYTHONPATH": str(SOURCE)}


def run_worker(plan_path: Path, result_path: Path, deadline: float, *extra: str) -> dict:
    """Run worker.py in a fresh process and return its result."""
    command = [sys.executable, str(HERE / "worker.py"), "--plan", str(plan_path),
               "--result", str(result_path), *extra]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("out of time before the worker started")
    # stdout goes to stderr so that the result stays the last line on stdout
    subprocess.run(command, env=child_env(), cwd=ROOT, stdout=sys.stderr,
                   timeout=remaining, check=True)
    return json.loads(result_path.read_text(encoding="utf-8"))


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    work = OUT / f"{workload}-{seed}-{os.getpid()}"
    try:
        plan = workloads.make_plan(workload, seed, work / "inputs", golden)
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        if trace:
            spans = OUT / f"spans-{workload}-{seed}.jsonl"
            result = run_worker(plan_path, work / "result.json", deadline,
                                "--trace", "1", "--spans", str(spans))
            metrics = result["layer_metrics"]
            print(f"{workload}: traced {result['attempted']} ops; spans in {spans}",
                  file=sys.stderr)
        else:
            setups = [run_worker(plan_path, work / f"setup{i}.json", deadline,
                                 "--setup-only")["setup_s"]
                      for i in range(SETUP_PROBES)]
            result = run_worker(plan_path, work / "result.json", deadline,
                                "--seconds", str(seconds))
            setups.append(result["setup_s"])
            metrics = end_to_end(workload, plan, result, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{workload}: {name} = {value:.6g} {unit}", file=sys.stderr)
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def end_to_end(workload: str, plan: dict, result: dict, setups: list[float]) -> dict:
    """Metrics of an untraced run; extra figures go to stderr only."""
    times, reps = result["op_seconds"], result["op_reps"]
    n = len(times)
    p95 = percentile(times, 0.95)
    print(f"{workload}: {n} ops, {result['failed']} failed, fail_ratio = "
          f"{result['failed'] / n:.6g}", file=sys.stderr)
    print(f"{workload}: analysis_p95_s = {p95:.6g} s ({n - math.ceil(0.95 * n)} "
          f"of {n} samples above it)", file=sys.stderr)
    if workload == "run-fgls":
        orders = collections.Counter(
            tuple(op["expect"]["lag_orders"]) for op in plan["ops"])
        print(f"{workload}: selected (P+, P-) over the run's pairs: "
              f"{dict(sorted(orders.items()))}", file=sys.stderr)
    return {
        "analysis_s": (statistics.median(times), "s"),
        "reps_per_s": (sum(reps) / sum(times), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "asymcause" / "cli.py").is_file():
        print(f"error: {SOURCE / 'asymcause'} not found; run inside a checkout of "
              "the repository", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        if args.workload != "all":
            print(json.dumps(run_workload(args.workload, args.seed, args.seconds,
                                          args.trace)))
            return 0
        # rotate the order with the seed so that no workload always runs first
        shift = args.seed % len(workloads.WORKLOADS)
        order = workloads.WORKLOADS[shift:] + workloads.WORKLOADS[:shift]
        results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in order}
    except (subprocess.SubprocessError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
