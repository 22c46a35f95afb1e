"""One workload run in a fresh process: import, warm up, then measure.

Usage (run.py starts it with BLAS pinned to one thread and PYTHONPATH=src):

    python3 perfbench/worker.py --plan PLAN.json --result OUT.json \
        [--setup-only] [--seconds S] [--trace 0|1] [--spans SPANS.jsonl]

The program is driven in-process through `asymcause.cli.main`, one operation
at a time by a single caller that waits for each (a closed loop), so
interpreter start-up is paid once and shows in setup_s.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path


def run_op(cli, workload: str, op: dict) -> tuple[float, list[str]]:
    """Time one operation, then check its output outside the timed region."""
    import workloads  # after asymcause, so that numpy's import counts in setup_s

    out = Path(op["out"])
    out.unlink(missing_ok=True)
    started = time.perf_counter()
    try:
        code = cli.main(op["args"])
    except (Exception, SystemExit) as exc:  # a raising operation is a failed one
        code = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - started
    if code != 0:
        return seconds, [f"exit {code}"]
    try:
        text = out.read_text(encoding="utf-8")
        return seconds, workloads.check_output(workload, text, op["expect"])
    except (OSError, KeyError, TypeError, ValueError) as exc:  # missing or malformed output
        return seconds, [f"unreadable output: {exc!r}"]


def report_problems(index: int, problems: list[str]) -> None:
    print(f"op {index} failed its check: {'; '.join(problems)}", file=sys.stderr)


def closed_loop(cli, plan: dict, seconds: float) -> dict:
    """Cycle through the plan's operations until `seconds` have passed."""
    ops = plan["ops"]
    times, reps, failed = [], [], 0
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        op = ops[index % len(ops)]
        elapsed, problems = run_op(cli, plan["workload"], op)
        times.append(elapsed)
        reps.append(op["reps"])
        if problems:
            failed += 1
            report_problems(index, problems)
        index += 1
        if time.perf_counter() >= deadline:
            break
    return {"op_seconds": times, "op_reps": reps, "attempted": index, "failed": failed}


def traced_run(cli, plan: dict, spans_path: str | None) -> dict:
    """A fixed list of operations, each run once untraced and once traced.

    The op count is fixed rather than timed so that counts repeat exactly.
    The tracing overhead is the median over ops of traced minus untraced
    wall time; which of the pair runs first alternates from op to op.
    """
    import tracing

    ops = plan["ops"][: plan["traced_ops"]]
    tracer = tracing.Tracer()
    overheads, failed = [], 0
    for index, op in enumerate(ops):
        tracer.op = index
        seconds = {}
        for traced in (False, True) if index % 2 == 0 else (True, False):
            if traced:
                tracer.install()
            try:
                seconds[traced], problems = run_op(cli, plan["workload"], op)
            finally:
                tracer.uninstall()
            if problems:
                failed += 1
                report_problems(index, problems)
        overheads.append(seconds[True] - seconds[False])
    for name in tracer.missing:
        print(f"warning: {name} not found; reported as never called", file=sys.stderr)
    if spans_path:
        tracer.write(Path(spans_path))
    metrics = tracing.layer_metrics(tracer.spans)
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    return {"layer_metrics": metrics, "attempted": 2 * len(ops), "failed": failed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--plan", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))

    started = time.perf_counter()
    from asymcause import cli

    import_s = time.perf_counter() - started
    started = time.perf_counter()
    if cli.main(plan["warmup"]) != 0:
        print("warm-up operation failed", file=sys.stderr)
        return 1
    result = {"setup_s": import_s + time.perf_counter() - started}
    if not args.setup_only:
        if args.trace:
            result.update(traced_run(cli, plan, args.spans))
        else:
            result.update(closed_loop(cli, plan, args.seconds))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
