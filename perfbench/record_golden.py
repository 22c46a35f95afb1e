"""Write golden.json: the reference output of every pooled benchmark input.

    python3 perfbench/record_golden.py

Run it only at a commit whose outputs are the reference; later commits are
checked against what it records.  It runs every run-fgls pool pair, the
run-garch pair and every mc-size study once (a few minutes on 2 cores).
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from asymcause import cli  # noqa: E402


def run(args: list[str], out: Path) -> dict:
    if cli.main(args) != 0:
        raise SystemExit(f"reference run failed: {args}")
    return json.loads(out.read_text(encoding="utf-8"))


def main() -> int:
    work = HERE / "out" / "record"
    work.mkdir(parents=True, exist_ok=True)
    out = work / "report.json"
    try:
        fgls = {}
        for pool_id in range(workloads.FGLS_POOL):
            inputs = workloads.write_fgls_pair(pool_id, work)
            summary = workloads.summarize_run(
                run(workloads.run_args(inputs, workloads.FGLS_ARGS, str(out)), out))
            del summary["loglik"]
            fgls[str(pool_id)] = summary
        inputs = workloads.write_garch_pair(work)
        summary = workloads.summarize_run(
            run(workloads.run_args(inputs, workloads.GARCH_ARGS, str(out)), out))
        garch = {"estimator": summary["estimator"], "loglik": summary["loglik"]}
        rejections = {
            str(study): workloads.mc_rejections(
                run(workloads.mc_args(study, workloads.MC_REPS, str(out)), out))
            for study in range(workloads.MC_POOL)
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    golden = {"run-fgls": fgls, "run-garch": garch,
              "mc-size": {"reps": workloads.MC_REPS, "rejections": rejections}}
    write_golden(golden)
    return 0


def write_golden(golden: dict) -> None:
    """One line per pooled input, so that a changed reference diffs clearly."""
    sections = [
        json.dumps(name) + ": {\n"
        + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in entries.items())
        + "\n}"
        for name, entries in golden.items()
    ]
    text = "{\n" + ",\n".join(sections) + "\n}\n"
    (HERE / "golden.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
