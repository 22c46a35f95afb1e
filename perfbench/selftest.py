"""Self-test of the benchmark harness at tiny sizes (about 10 s).

    python3 perfbench/selftest.py

Checks the golden comparison on a few run-fgls pairs and a few mc-size
replications, that a deliberately wrong golden counts as a failed operation,
the self-time arithmetic of the tracer, and that BENCHMARK.json names the
metrics the harness prints.  Exits nonzero on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from asymcause import cli  # noqa: E402

WORK = HERE / "out" / "selftest"


class CheckFailed(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def tiny_plans() -> tuple[dict, dict]:
    golden = json.loads(run.GOLDEN.read_text(encoding="utf-8"))
    fgls = workloads.make_plan("run-fgls", 0, WORK / "fgls", golden)
    fgls["ops"] = fgls["ops"][:3]
    mc = workloads.make_plan("mc-size", 0, WORK / "mc", golden)
    op = mc["ops"][0]
    op["args"] = workloads.mc_args(0, 5, op["out"])
    op["reps"] = 5
    worker.run_op(cli, "mc-size", {**op, "expect": None})
    op["expect"] = workloads.mc_rejections(json.loads(Path(op["out"]).read_text()))
    mc["ops"] = [op]
    return fgls, mc


def wrong(op: dict, workload: str) -> dict:
    """The same operation with a golden that its output must not match."""
    bad = json.loads(json.dumps(op))
    if workload == "mc-size":
        bad["expect"][0] += 1
    else:
        bad["expect"]["values"][0] *= 1.0 + 1e-7  # 100x the tolerance
    return bad


def test_golden_comparison(fgls: dict, mc: dict) -> None:
    for plan in (fgls, mc):
        for op in plan["ops"]:
            _, problems = worker.run_op(cli, plan["workload"], op)
            expect(not problems, f"{plan['workload']} op failed against golden: {problems}")
            _, problems = worker.run_op(cli, plan["workload"], wrong(op, plan["workload"]))
            expect(bool(problems), f"{plan['workload']}: a wrong golden passed")


def test_fail_ratio_accounting(fgls: dict) -> None:
    """Every op whose golden is wrong is counted as failed by the worker."""
    plan = dict(fgls, ops=[fgls["ops"][0], wrong(fgls["ops"][1], "run-fgls"),
                           fgls["ops"][2]])
    plan_path, result_path = WORK / "plan.json", WORK / "result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--plan", str(plan_path),
         "--result", str(result_path), "--seconds", "0.3"],
        env=run.child_env(), check=True, timeout=120, stderr=subprocess.DEVNULL)
    result = json.loads(result_path.read_text(encoding="utf-8"))
    attempted = result["attempted"]
    expect(attempted == len(result["op_seconds"]) >= 1, "attempted != timed ops")
    expect(result["failed"] == sum(1 for i in range(attempted) if i % 3 == 1),
           f"failed {result['failed']} of {attempted}; wrong golden not counted")


def test_self_time_arithmetic() -> None:
    spans = [  # name, start, end, parent, op, failed, extra
        ["cli.main", 0.0, 10.0, -1, 0, False, None],
        ["cli.run_pipeline", 1.0, 8.0, 0, 0, False, None],
        ["mgarch.fit_sure_garch_t", 2.0, 7.0, 1, 0, False, None],
        ["optim.central_hessian", 3.0, 6.0, 2, 0, False, None],
        ["mgarch.garch_t_loglik", 3.5, 4.0, 3, 0, False, None],
        ["mgarch.garch_t_loglik", 4.0, 4.5, 3, 0, True, None],
        ["cli.render_report", 8.5, 9.0, 0, 0, False, None],
    ]
    expect(tracing.self_times(spans) == [2.5, 2.0, 2.0, 2.0, 0.5, 0.5, 0.5],
           f"self times {tracing.self_times(spans)}")
    metrics = tracing.layer_metrics(spans)
    expect(metrics["cli.main.total_s"][0] == 10.0, "total time")
    expect(metrics["cli.main.self_s"][0] == 2.5, "self time of the root")
    expect(metrics["mgarch.garch_t_loglik.calls"][0] == 2, "loglik calls")
    expect(metrics["optim.central_hessian.loglik_calls"][0] == 2, "loglik under Hessian")
    expect(metrics["optim.minimize_bfgs.loglik_calls"][0] == 0, "loglik under BFGS")
    expect(metrics["mgarch.garch_t_loglik.fail_ratio"][0] == 0.5, "loglik fail ratio")


def test_tracer_bindings(fgls: dict) -> None:
    originals = {name: getattr(cli, name) for name in ("main", "run_pipeline")}
    tracer = tracing.Tracer()
    expect(not tracer.missing, f"functions not found: {tracer.missing}")
    tracer.install()
    try:
        _, problems = worker.run_op(cli, "run-fgls", fgls["ops"][0])
    finally:
        tracer.uninstall()
    expect(not problems, f"traced op failed: {problems}")
    expect(all(getattr(cli, k) is v for k, v in originals.items()), "uninstall")
    names = {span[tracing.NAME] for span in tracer.spans}
    path = {"cli.main", "cli.load_csv", "cli.run_pipeline", "cli.render_report",
            "decomposition.decompose", "sure.lag_order_table", "sure.build_design",
            "sure.ols_fit", "sure.fgls_fit", "sure.gls_solve", "wald.restriction_for",
            "wald.wald_test", "wald.run_catalog"}
    expect(names == path, f"spans on the FGLS path: {sorted(names ^ path)} differ")
    expect(tracer.spans[0][tracing.NAME] == "cli.main"
           and tracer.spans[0][tracing.PARENT] == -1, "root span")
    expect(all(s[tracing.PARENT] >= 0 for s in tracer.spans[1:]), "orphan span")


def test_benchmark_json_names() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect([m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END),
           "BENCHMARK.json end_to_end differs from run.END_TO_END")
    layer = list(tracing.layer_metrics([])) + ["trace.overhead_s"]
    expect([m["name"] for m in spec["per_layer"]] == layer,
           "BENCHMARK.json per_layer differs from the traced metrics")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads differ")


def main() -> int:
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        fgls, mc = tiny_plans()
        tests = [
            ("golden comparison", lambda: test_golden_comparison(fgls, mc)),
            ("fail_ratio accounting", lambda: test_fail_ratio_accounting(fgls)),
            ("self-time arithmetic", test_self_time_arithmetic),
            ("tracer bindings", lambda: test_tracer_bindings(fgls)),
            ("BENCHMARK.json names", test_benchmark_json_names),
        ]
        for label, test in tests:
            try:
                test()
            except CheckFailed as exc:
                print(f"FAIL {label}: {exc}")
                return 1
            print(f"ok   {label}")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
