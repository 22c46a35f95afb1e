"""Acceptance gate: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -s` to see one line per criterion.
Criterion 10 needs user-supplied FRED all-share index CSVs (US and China,
monthly, March 1999 - May 2024); point ASYMCAUSE_US_CSV and
ASYMCAUSE_CHINA_CSV at them or drop us_allshares.csv / china_allshares.csv
into tests/data/.  It is skipped when the files are absent.
"""

import os
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from asymcause import (
    DeterministicSpec,
    DgpConfig,
    GarchSpec,
    HypothesisSpec,
    chisq_sf,
    decompose,
    empirical_size,
    fgls_fit,
    fit_sure_garch_t,
    garch_t_loglik,
    ols_fit,
    recompose,
    restriction_for,
    simulate_ccc_garch_t,
    simulate_dgp,
    wald_test,
)
from asymcause.cli import AnalysisConfig, run_pipeline
from asymcause.decomposition import Series

from conftest import exog_two_equation_system, identical_regressor_system, \
    intercept_system


def report_line(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {status} - {description}{suffix}")


def test_criterion_01_recomposition_identity():
    started = time.perf_counter()
    specs = [DeterministicSpec(k) for k in ("none", "drift", "drift_and_trend")]
    worst = 0.0
    count = 0
    for index in range(1000):
        rng = np.random.default_rng((1000, index))
        values = (
            0.05 * np.arange(500)
            + rng.standard_normal(500).cumsum()
            + rng.normal(scale=5.0)
        )
        series = Series(values=values)
        spec = specs[index % 3]
        comps = decompose(series, spec)
        err = np.max(np.abs(recompose(comps) - values))
        bound = 1e-9 * max(1.0, np.max(np.abs(values)))
        worst = max(worst, err / bound)
        count += 1
    elapsed = time.perf_counter() - started
    ok = worst <= 1.0 and elapsed < 5.0
    report_line(
        1,
        "recomposition identity on 1000 seeded walks",
        ok,
        f"worst rel residual {worst:.2e}, {elapsed:.2f}s",
    )
    assert count == 1000
    assert ok


def test_criterion_02_hand_oracle_decomposition():
    comps = decompose(Series(values=[10.0, 12.0, 11.0, 14.0]),
                      DeterministicSpec("drift"))
    expected_pos = np.array([5.0, 19.0 / 3.0, 7.0, 28.0 / 3.0])
    expected_neg = np.array([5.0, 17.0 / 3.0, 4.0, 14.0 / 3.0])
    err = max(
        np.max(np.abs(comps.positive - expected_pos)),
        np.max(np.abs(comps.negative - expected_neg)),
    )
    ok = err <= 1e-12
    report_line(2, "hand-computed decomposition of [10,12,11,14]", ok,
                f"max abs err {err:.2e}")
    assert ok


def test_criterion_03_kruskal_equivalence():
    rng = np.random.default_rng(303)
    system = identical_regressor_system(rng)
    gap = np.max(np.abs(fgls_fit(system).coefficients - ols_fit(system).coefficients))
    ok = gap <= 1e-8
    report_line(3, "FGLS equals OLS with identical regressors", ok,
                f"max coefficient gap {gap:.2e}")
    assert ok


def test_criterion_04_fgls_efficiency():
    started = time.perf_counter()
    sq_ols = sq_fgls = 0.0
    for rep in range(1000):
        rng = np.random.default_rng((404, rep))
        system, truth = exog_two_equation_system(rng, t_obs=100, rho=0.8)
        sq_ols += np.sum((ols_fit(system).coefficients - truth) ** 2)
        sq_fgls += np.sum((fgls_fit(system).coefficients - truth) ** 2)
    ratio = sq_fgls / sq_ols
    elapsed = time.perf_counter() - started
    ok = ratio <= 0.95 and elapsed < 60.0
    report_line(4, "FGLS/OLS mean squared error ratio <= 0.95", ok,
                f"ratio {ratio:.3f}, {elapsed:.1f}s")
    assert ok


def test_criterion_05_wald_identities():
    rng = np.random.default_rng(505)
    system, _ = exog_two_equation_system(rng)
    fit = fgls_fit(system)
    row = np.zeros((1, 4))
    row[0, 1] = 1.0
    single = wald_test(fit, HypothesisSpec("H1", row, "x"))
    t_squared = fit.coefficients[1] ** 2 / fit.covariance[1, 1]
    gap_t = abs(single.statistic - t_squared)

    rows = np.zeros((2, 4))
    rows[0, 1] = 1.0
    rows[1, 3] = 1.0
    base = wald_test(fit, HypothesisSpec("H3", rows, "x")).statistic
    worst_rel = 0.0
    for rep in range(25):
        mixer = np.random.default_rng((506, rep)).standard_normal((2, 2))
        if abs(np.linalg.det(mixer)) < 1e-3:
            continue
        mixed = wald_test(fit, HypothesisSpec("H3", mixer @ rows, "x")).statistic
        worst_rel = max(worst_rel, abs(mixed - base) / base)
    ok = gap_t <= 1e-10 and worst_rel <= 1e-8
    report_line(5, "Wald q=1 equals t^2 and statistic invariant to R -> MR", ok,
                f"|W - t^2| = {gap_t:.2e}, worst rel drift {worst_rel:.2e}")
    assert ok


def test_criterion_06_chi_square_oracle():
    values = (chisq_sf(3.841459, 1), chisq_sf(9.487729, 4))
    oracle = (stats.chi2.sf(3.841459, 1), stats.chi2.sf(9.487729, 4))
    gap = max(abs(values[0] - 0.05), abs(values[1] - 0.05))
    oracle_gap = max(abs(values[0] - oracle[0]), abs(values[1] - oracle[1]))
    ok = gap <= 1e-4 and oracle_gap <= 1e-10
    report_line(6, "chi-square survival at the 5% critical values", ok,
                f"|sf - 0.05| <= {gap:.2e}, vs oracle {oracle_gap:.2e}")
    assert ok


def test_criterion_07_empirical_size():
    started = time.perf_counter()
    config = DgpConfig(m=2, drift=(0.2, 0.1), t_obs=300, seed=707)
    rates = empirical_size(
        config,
        reps=1000,
        level=0.05,
        deterministic=DeterministicSpec("drift"),
        fixed_lags=(1, 1),
        extra_lags=1,
        estimator="fgls",
    )
    elapsed = time.perf_counter() - started
    individual = {hid: rates[hid] for hid in ("H1", "H2", "H5", "H6")}
    ok = all(0.025 <= rate <= 0.09 for rate in individual.values())
    report_line(7, "empirical size of H1/H2/H5/H6 within [2.5%, 9%]", ok,
                ", ".join(f"{k}={v:.3f}" for k, v in individual.items())
                + f", {elapsed:.1f}s")
    assert ok


def test_criterion_08_empirical_power():
    config = DgpConfig(m=2, drift=(0.2, 0.1), t_obs=300, seed=808,
                       causal_feedback=0.5)
    rates = empirical_size(
        config,
        reps=500,
        level=0.05,
        deterministic=DeterministicSpec("drift"),
        fixed_lags=(1, 1),
        extra_lags=1,
        estimator="fgls",
    )
    ok = rates["H1"] >= 0.90
    report_line(8, "power of H1 under positive-shock feedback 0.5", ok,
                f"H1 rejection rate {rates['H1']:.3f}")
    assert ok


@pytest.mark.slow
def test_criterion_09_garch_recovery():
    truth = GarchSpec(
        omega=np.array([0.05, 0.05]),
        alpha=np.array([0.10, 0.10]),
        beta=np.array([0.85, 0.85]),
        correlation=np.array([[1.0, 0.5], [0.5, 1.0]]),
        nu=8.0,
    )
    innovations = simulate_ccc_garch_t(truth, 3000, seed=2024)
    system = intercept_system(innovations)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = fit_sure_garch_t(system)
    loglik_truth = garch_t_loglik(np.zeros(2), truth, system)
    alpha_gap = np.max(np.abs(fit.garch.alpha - truth.alpha))
    beta_gap = np.max(np.abs(fit.garch.beta - truth.beta))
    ok = (
        alpha_gap <= 0.05
        and beta_gap <= 0.05
        and fit.loglik >= loglik_truth - 1e-6
    )
    report_line(
        9,
        "CCC-GARCH(1,1)-t parameter recovery at T=3000",
        ok,
        f"max |alpha err| {alpha_gap:.3f}, max |beta err| {beta_gap:.3f}, "
        f"loglik gain over truth {fit.loglik - loglik_truth:+.3f}",
    )
    assert ok


def _fred_files():
    us = os.environ.get("ASYMCAUSE_US_CSV")
    china = os.environ.get("ASYMCAUSE_CHINA_CSV")
    data_dir = Path(__file__).parent / "data"
    if not us and (data_dir / "us_allshares.csv").exists():
        us = str(data_dir / "us_allshares.csv")
    if not china and (data_dir / "china_allshares.csv").exists():
        china = str(data_dir / "china_allshares.csv")
    if us and china and Path(us).exists() and Path(china).exists():
        return us, china
    return None


def _qualitative_pattern(report) -> tuple[bool, str]:
    estimates = {row["name"]: row["value"] for row in report.estimates}
    beta_plus = estimates["beta+_2,1"]
    beta_minus = estimates["beta-_2,1"]
    gamma_plus = estimates["gamma+_1,1"]
    gamma_minus = estimates["gamma-_1,1"]
    rejected = {row["id"] for row in report.hypotheses if row["p_value"] < 0.05}
    ordering = beta_minus > gamma_minus and gamma_plus > beta_plus
    nine_of_ten = rejected == {f"H{i}" for i in range(1, 11)} - {"H6"}
    detail = (
        f"beta-={beta_minus:.4f} vs gamma-={gamma_minus:.4f}, "
        f"gamma+={gamma_plus:.4f} vs beta+={beta_plus:.4f}, "
        f"rejected {sorted(rejected)}"
    )
    return ordering and nine_of_ten, detail


@pytest.mark.skipif(_fred_files() is None,
                    reason="FRED all-share index CSVs not supplied")
def test_criterion_10_published_application_pattern():
    us, china = _fred_files()
    details = []
    ok = False
    for estimator in ("fgls", "garch_t"):
        config = AnalysisConfig(
            inputs=(us, china),
            log_transform=True,
            deterministic=DeterministicSpec("drift"),
            fixed_lags=(1, 1),
            extra_lags=1,
            estimator=estimator,
            names=("US", "China"),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = run_pipeline(config)
        matched, detail = _qualitative_pattern(report)
        details.append(f"{estimator}: {detail}")
        if matched:
            ok = True
            break
    report_line(10, "qualitative reproduction of the published pattern", ok,
                "; ".join(details))
    assert ok
