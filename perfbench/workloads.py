"""Workload definitions: seeded inputs, operation arguments and output checks.

Everything here is the benchmark's own code and depends only on numpy, so the
inputs stay the same whatever the program under test does.  Inputs are made
before any timing starts.

- run-fgls: independent `asymcause run` analyses with SBC lag selection and
  forced FGLS on FRED-style price-index CSV pairs.  The pairs come from a
  fixed pool whose outputs at the reference commit are stored in golden.json;
  the seed picks a stratified subset of the pool and the order it is used in.
- run-garch: one `asymcause run --estimator auto` on the CCC-GARCH(1,1)-t pair
  of the GARCH end-to-end test.  The pair is fixed, because the baseline
  counts (462 BFGS iterations) are defined on it; the seed does not change it.
- mc-size: `asymcause mc-size` studies whose Monte-Carlo seeds come from a
  fixed pool of study seeds; the seed picks their order.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("run-fgls", "run-garch", "mc-size")

# run-fgls pool: one cell per (length, increment AR depth), REPLICAS pairs each.
FGLS_LENGTHS = (120, 300, 600)
FGLS_DEPTHS = (0, 1, 2, 3)  # SBC should pick about depth + 1 lags in levels
FGLS_REPLICAS = 8
FGLS_PER_CELL = 4  # pairs a run draws from each cell
FGLS_POOL = len(FGLS_LENGTHS) * len(FGLS_DEPTHS) * FGLS_REPLICAS
FGLS_ARGS = ("--log", "--max-lag", "8", "--criterion", "sbc", "--estimator", "fgls")
FGLS_TRACED_OPS = len(FGLS_LENGTHS) * len(FGLS_DEPTHS) * FGLS_PER_CELL

GARCH_ARGS = ("--log", "--fixed-lags", "1", "1", "--estimator", "auto")

MC_POOL = 64  # study seeds 0 .. MC_POOL - 1
MC_REPS = 200
MC_ARGS = ("--T", "300", "--fixed-lags", "1", "1", "--error-correlation", "0.5")
MC_TRACED_OPS = 2
MC_WARMUP_SEED = 1_000_000  # outside the pool; its output is not checked

# Tolerances from the ROADMAP.
REL_TOL = 1e-9
ABS_TOL = 1e-12  # floor for values that are zero up to rounding
LOGLIK_TOL = 1e-6

_POOL_STREAM = 7301  # keeps pool draws apart from the run-order draws
_ORDER_STREAM = 7302


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng([k % 2**63 for k in key])


def monthly_dates(n: int, start_year: int) -> list[str]:
    """Strictly increasing ISO month-start dates."""
    return [f"{start_year + t // 12:04d}-{t % 12 + 1:02d}-01" for t in range(n)]


def write_csv(path: Path, series_id: str, dates: list[str], values, fmt: str) -> str:
    """FRED layout: a DATE column and one column named after the series."""
    lines = [f"DATE,{series_id}"]
    lines += [f"{d},{v:{fmt}}" for d, v in zip(dates, values)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def fgls_cell(pool_id: int) -> tuple[int, int]:
    """(series length, increment AR depth) of a run-fgls pool member."""
    cell = pool_id % (len(FGLS_LENGTHS) * len(FGLS_DEPTHS))
    return FGLS_LENGTHS[cell % len(FGLS_LENGTHS)], FGLS_DEPTHS[cell // len(FGLS_LENGTHS)]


def fgls_levels(pool_id: int) -> np.ndarray:
    """(T, 2) price-index levels whose log increments follow a stable VAR.

    The AR depth of the increments varies across the pool so that SBC does
    not select the same (P+, P-) for every pair.
    """
    t_obs, depth = fgls_cell(pool_id)
    rng = _rng(_POOL_STREAM, pool_id)
    mix = np.array([[0.5, 0.25], [0.15, 0.45]])  # spectral radius 0.67
    lags = [rng.uniform(0.4, 0.7) / lag * mix for lag in range(1, depth + 1)]
    mu = np.array([0.003, 0.002])
    chol = np.linalg.cholesky(0.01**2 * np.array([[1.0, 0.3], [0.3, 1.0]]))
    burn = 60
    shocks = rng.standard_normal((t_obs - 1 + burn, 2)) @ chol.T
    dev = np.zeros_like(shocks)
    for t in range(shocks.shape[0]):
        dev[t] = shocks[t]
        for lag, a in enumerate(lags, start=1):
            if t >= lag:
                dev[t] += a @ dev[t - lag]
    increments = mu + dev[burn:]
    logs = np.vstack([np.zeros(2), np.cumsum(increments, axis=0)]) + math.log(100.0)
    return np.exp(logs)


def fgls_order(seed: int) -> list[int]:
    """Pool ids a run uses: FGLS_PER_CELL from every cell, shuffled by seed."""
    rng = _rng(_ORDER_STREAM, seed)
    n_cells = len(FGLS_LENGTHS) * len(FGLS_DEPTHS)
    chosen = []
    for cell in range(n_cells):
        replicas = rng.choice(FGLS_REPLICAS, size=FGLS_PER_CELL, replace=False)
        chosen += [cell + n_cells * int(r) for r in replicas]
    return [int(i) for i in rng.permutation(chosen)]


def garch_levels() -> np.ndarray:
    """(160, 2) log levels: CCC-GARCH(1,1)-t innovations plus a 0.01 drift.

    Same draws and arithmetic as simulating the process with omega=0.02,
    alpha=0.2, beta=0.7, rho=0.4, nu=6 and seed 8 for 159 increments.
    """
    omega, alpha, beta = np.full(2, 0.02), np.full(2, 0.2), np.full(2, 0.7)
    nu, t_obs = 6.0, 159
    rng = np.random.default_rng(8)
    chol = np.linalg.cholesky(np.array([[1.0, 0.4], [0.4, 1.0]]))
    gaussian = rng.standard_normal((t_obs, 2)) @ chol.T
    mixing = rng.chisquare(nu, size=t_obs)
    shocks = gaussian * np.sqrt(nu / mixing)[:, None]
    shocks *= math.sqrt((nu - 2.0) / nu)
    h = np.empty((t_obs, 2))
    h[0] = omega / (1.0 - alpha - beta)
    eps = np.empty((t_obs, 2))
    eps[0] = np.sqrt(h[0]) * shocks[0]
    for t in range(1, t_obs):
        h[t] = omega + alpha * eps[t - 1] ** 2 + beta * h[t - 1]
        eps[t] = np.sqrt(h[t]) * shocks[t]
    return 0.01 * np.arange(t_obs + 1)[:, None] + np.vstack(
        [np.zeros(2), np.cumsum(eps, axis=0)]
    )


def mc_order(seed: int) -> list[int]:
    return [int(i) for i in _rng(_ORDER_STREAM, seed).permutation(MC_POOL)]


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def write_fgls_pair(pool_id: int, directory: Path) -> list[str]:
    levels = fgls_levels(pool_id)
    dates = monthly_dates(levels.shape[0], 1960)
    return [
        write_csv(directory / f"px{pool_id}_{i}.csv", f"PX{pool_id}{'AB'[i]}",
                  dates, levels[:, i], ".6f")
        for i in range(2)
    ]


def write_garch_pair(directory: Path) -> list[str]:
    levels = garch_levels()
    dates = monthly_dates(levels.shape[0], 1999)
    # exp then --log: the 8-decimal rounding is part of the reference input
    return [
        write_csv(directory / f"garch_{i}.csv", f"GX{'AB'[i]}", dates,
                  np.exp(levels[:, i]), ".8f")
        for i in range(2)
    ]


def run_args(inputs: list[str], flags, out: str) -> list[str]:
    return ["run", "--input", *inputs, *flags, "--format", "json", "--out", out]


def mc_args(study: int, reps: int, out: str) -> list[str]:
    return ["mc-size", *MC_ARGS, "--reps", str(reps), "--seed", str(study),
            "--format", "json", "--out", out]


def make_plan(workload: str, seed: int, directory: Path, golden: dict) -> dict:
    """Write the run's inputs under directory and describe its operations.

    Each op carries the CLI arguments, its output path, the Monte-Carlo
    replications it performs (1 for an analysis) and the expected output.
    """
    directory.mkdir(parents=True, exist_ok=True)
    out = str(directory / "report.json")
    if workload == "run-fgls":
        ops = []
        for pool_id in fgls_order(seed):
            inputs = write_fgls_pair(pool_id, directory)
            ops.append({"args": run_args(inputs, FGLS_ARGS, out), "out": out,
                        "reps": 1, "expect": golden["run-fgls"][str(pool_id)]})
        warmup, traced = ops[0]["args"], FGLS_TRACED_OPS
    elif workload == "run-garch":
        inputs = write_garch_pair(directory)
        ops = [{"args": run_args(inputs, GARCH_ARGS, out), "out": out,
                "reps": 1, "expect": golden["run-garch"]}]
        # the FGLS route on the same pair warms every layer but GARCH ML
        warmup = run_args(inputs, ("--log", "--fixed-lags", "1", "1",
                                   "--estimator", "fgls"), out)
        traced = 1
    elif workload == "mc-size":
        reps = golden["mc-size"]["reps"]
        ops = [{"args": mc_args(study, reps, out), "out": out, "reps": reps,
                "expect": golden["mc-size"]["rejections"][str(study)]}
               for study in mc_order(seed)]
        warmup, traced = mc_args(MC_WARMUP_SEED, 5, out), MC_TRACED_OPS
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "seed": seed, "warmup": warmup, "ops": ops,
            "traced_ops": traced}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _mismatch(label: str, got, want) -> list[str]:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != {want.shape}"]
    bad = ~(np.abs(got - want) <= REL_TOL * np.abs(want) + ABS_TOL)
    if np.any(bad):
        i = int(np.argmax(bad))
        return [f"{label}[{i}]: {got.flat[i]!r} != {want.flat[i]!r}"]
    return []


def summarize_run(report: dict) -> dict:
    """The parts of a run report that the checks compare."""
    return {
        "lag_orders": report["provenance"]["lag_orders"],
        "estimator": report["provenance"]["estimator"],
        "values": [row["value"] for row in report["estimates"]],
        "std_errors": [row["std_error"] for row in report["estimates"]],
        "statistics": [row["statistic"] for row in report["hypotheses"]],
        "loglik": report["diagnostics"].get("estimation", {}).get("loglik"),
    }


def mc_rejections(payload: dict) -> list[int]:
    return [round(rate * payload["reps"]) for rate in payload["rates"].values()]


def check_output(workload: str, text: str, expect) -> list[str]:
    """Problems found in one operation's output; empty when it is correct."""
    try:
        payload = json.loads(text)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    if workload == "mc-size":
        got = mc_rejections(payload)
        return [] if got == expect else [f"rejections {got} != {expect}"]
    from asymcause.cli import parse_report  # only worker processes have src on the path

    if json.loads(parse_report(text).to_json()) != payload:
        return ["report does not round-trip through parse_report"]
    got = summarize_run(payload)
    if workload == "run-garch":
        problems = []
        if got["estimator"] != expect["estimator"]:
            problems.append(f"estimator {got['estimator']!r} != {expect['estimator']!r}")
        if got["loglik"] is None or not got["loglik"] >= expect["loglik"] - LOGLIK_TOL:
            problems.append(f"loglik {got['loglik']!r} < {expect['loglik']!r} - {LOGLIK_TOL}")
        stats = got["values"] + got["std_errors"] + got["statistics"]
        if not all(v is not None and math.isfinite(v) for v in stats):
            problems.append("a reported statistic is not finite")
        return problems
    problems = []
    for key in ("lag_orders", "estimator"):
        if got[key] != expect[key]:
            problems.append(f"{key} {got[key]!r} != {expect[key]!r}")
    if problems:
        return problems
    for key in ("values", "std_errors", "statistics"):
        problems += _mismatch(key, got[key], expect[key])
    return problems
