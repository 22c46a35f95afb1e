"""DGP simulator and rejection-rate studies."""

import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asymcause.montecarlo as montecarlo
import asymcause.wald
from asymcause.decomposition import DETERMINISTIC_KINDS, decompose
from asymcause.errors import AsymCauseError, DataError, SingularityError
from asymcause.montecarlo import DgpConfig, empirical_size, simulate_dgp
from asymcause.sure import build_design, fgls_fit, ols_fit
from asymcause.wald import HYPOTHESIS_IDS, catalog, run_catalog


def reference_study(config, reps, deterministic, fixed_lags, extra_lags, estimator):
    """Each replication on its own system: (R, 10) statistics and p-values,
    FGLS iterations and convergence flags."""
    rows = []
    for rep in range(reps):
        series = simulate_dgp(replace(config, seed=(config.seed, rep)))
        system = build_design(*[decompose(s, deterministic) for s in series],
                              *fixed_lags, extra_lags)
        fit = fgls_fit(system) if estimator == "fgls" else ols_fit(system)
        results = run_catalog(fit, catalog(system))
        rows.append(([r.statistic for r in results], [r.p_value for r in results],
                     fit.iterations, fit.converged))
    statistics, p_values, iterations, converged = map(np.array, zip(*rows))
    return statistics, p_values, iterations, converged


def constant_paths(draw, constant):
    """The draw with variable constant[r] of replication r held at zero."""
    def patched(config, seeds):
        levels = draw(config, seeds)
        for row, seed in zip(levels, seeds):
            if seed[-1] in constant:
                row[constant[seed[-1]]] = 0.0
        return levels
    return patched


class TestDgpConfig:
    def test_rejects_short_samples(self):
        with pytest.raises(ValueError):
            DgpConfig(t_obs=20)

    def test_rejects_dimension_mismatch(self):
        # the DGP is always a pair, with or without feedback
        for drift, trend in [((0.1,), (0.0, 0.0)), ((0.0,), (0.0,)),
                             ((0.1, 0.1, 0.1), (0.0, 0.0, 0.0)), ((0.1, 0.1), (0.0,))]:
            for feedback in (None, 0.5):
                with pytest.raises(ValueError, match="two entries"):
                    DgpConfig(drift=drift, trend=trend, causal_feedback=feedback)

    def test_rejects_bad_correlation(self):
        for rho in (1.0, -1.0, 1.5, -3.0, float("nan")):
            with pytest.raises(ValueError, match=r"must be in \(-1, 1\)"):
                DgpConfig(error_correlation=rho)

    def test_rejects_low_t_df(self):
        for df in (1.5, 2.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="error_df must be finite and exceed 2"):
                DgpConfig(error_tail="t", error_df=df)
        DgpConfig(error_tail="gaussian", error_df=float("inf"))  # df unused

    def test_rejects_non_finite_settings(self):
        for bad in (float("nan"), float("inf"), -float("inf")):
            for field_name in ("drift", "trend"):
                with pytest.raises(ValueError, match=f"^{field_name} must be finite"):
                    DgpConfig(**{field_name: (0.0, bad)})
            with pytest.raises(ValueError, match="^causal_feedback must be finite"):
                DgpConfig(causal_feedback=bad)

    def test_rejects_bad_seeds(self):
        for seed in (-1, (0, -1), 1.5, (2, "3"), None):
            with pytest.raises(ValueError, match="^seed must be a non-negative integer"):
                DgpConfig(seed=seed)
        for seed in (0, 7, (0,), (3, 4), np.int64(5)):
            assert DgpConfig(seed=seed).seed == seed


class TestSimulateDgp:
    def test_seed_determinism(self):
        config = DgpConfig(drift=(0.1, -0.2), t_obs=200, seed=11)
        a = simulate_dgp(config)
        b = simulate_dgp(config)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.values, y.values)

    def test_independent_increments_have_near_zero_correlation(self):
        config = DgpConfig(t_obs=10_000, seed=21)
        series = simulate_dgp(config)
        increments = np.column_stack([np.diff(s.values) for s in series])
        corr = np.corrcoef(increments, rowvar=False)
        assert abs(corr[0, 1]) < 0.1

    def test_requested_correlation_shows_up(self):
        config = DgpConfig(
            t_obs=10_000,
            seed=22,
            error_correlation=0.6,
        )
        increments = np.column_stack(
            [np.diff(s.values) for s in simulate_dgp(config)]
        )
        corr = np.corrcoef(increments, rowvar=False)
        assert corr[0, 1] == pytest.approx(0.6, abs=0.05)

    def test_correlation_is_one_cholesky_product(self):
        # rho = 0 keeps the raw draws; otherwise they are multiplied once by
        # the transposed Cholesky factor of [[1, rho], [rho, 1]]
        for rho in (0.0, -0.3):
            series = simulate_dgp(DgpConfig(t_obs=60, seed=5, error_correlation=rho))
            shocks = np.random.default_rng(5).standard_normal((59, 2))
            if rho:
                shocks = shocks @ np.linalg.cholesky([[1.0, rho], [rho, 1.0]]).T
            for i, s in enumerate(series):
                np.testing.assert_array_equal(s.values[1:], np.cumsum(shocks[:, i]))

    def test_trend_recovered_by_regression(self):
        config = DgpConfig(trend=(0.5, 0.5), t_obs=2000, seed=23)
        for series in simulate_dgp(config):
            increments = np.diff(series.values)
            t = np.arange(1, increments.size + 1, dtype=float)
            design = np.column_stack([np.ones_like(t), t])
            coef, *_ = np.linalg.lstsq(design, increments, rcond=None)
            assert coef[1] == pytest.approx(0.5, abs=0.01)

    def test_t_tails_are_heavier(self):
        gauss = simulate_dgp(DgpConfig(t_obs=50_000, seed=24))
        heavy = simulate_dgp(
            DgpConfig(t_obs=50_000, seed=24, error_tail="t", error_df=4.0)
        )
        def kurtosis(series):
            inc = np.diff(series.values)
            inc = inc - inc.mean()
            return (inc**4).mean() / (inc**2).mean() ** 2
        assert kurtosis(heavy[0]) > kurtosis(gauss[0]) + 0.5

    def test_feedback_couples_the_right_direction(self):
        # variable 2's positive shocks should predict variable 1's increments
        config = DgpConfig(t_obs=20_000, seed=25, causal_feedback=0.5)
        series = simulate_dgp(config)
        inc = np.column_stack([np.diff(s.values) for s in series])
        lagged_pos_2 = np.maximum(inc[:-1, 1], 0.0)
        lead_corr = np.corrcoef(lagged_pos_2, inc[1:, 0])[0, 1]
        reverse = np.corrcoef(np.maximum(inc[:-1, 0], 0.0), inc[1:, 1])[0, 1]
        assert lead_corr > 0.2
        assert abs(reverse) < 0.05


def draw_alone(config):
    """One replication's (2, T) levels, drawn and summed on its own."""
    rng = np.random.default_rng(config.seed)
    if config.error_tail == "gaussian":
        shocks = rng.standard_normal((config.t_obs - 1, 2))
    else:
        df = config.error_df
        shocks = rng.standard_t(df, size=(config.t_obs - 1, 2)) / np.sqrt(df / (df - 2.0))
    rho = config.error_correlation
    if rho:
        shocks = shocks @ np.linalg.cholesky(np.array([[1.0, rho], [rho, 1.0]])).T
    if config.causal_feedback is not None:
        shocks[1:, 0] += config.causal_feedback * np.maximum(shocks[:-1, 1], 0.0)
    t = np.arange(config.t_obs, dtype=float)
    levels = np.zeros((2, config.t_obs))
    for i in range(2):
        path = config.drift[i] * t + config.trend[i] * t * (t + 1.0) / 2.0
        levels[i, 1:] = path[1:] + np.cumsum(shocks[:, i])
    return levels


class TestStackedDraw:
    @settings(max_examples=40, deadline=None)
    @given(
        tail=st.sampled_from(["gaussian", "t"]),
        rho=st.sampled_from([0.0, 0.6, -0.35]),
        feedback=st.sampled_from([None, 0.4, -1.5]),
        drift=st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
        trend=st.tuples(st.floats(-0.1, 0.1), st.floats(-0.1, 0.1)),
        t_obs=st.integers(50, 90),
        reps=st.integers(1, 9),
        seed=st.integers(0, 2**16),
    )
    def test_a_stack_equals_its_replications_drawn_alone(
            self, tail, rho, feedback, drift, trend, t_obs, reps, seed):
        # each replication's levels are those of its own stream drawn alone,
        # and those of simulate_dgp on its seed, bit for bit
        config = DgpConfig(drift=drift, trend=trend, error_correlation=rho, error_tail=tail,
                           error_df=4.5, causal_feedback=feedback, t_obs=t_obs, seed=seed)
        seeds = [(seed, rep) for rep in range(reps)]
        stack = montecarlo._draw(config, seeds)
        assert stack.shape == (reps, 2, t_obs)
        for levels, rep_seed in zip(stack, seeds):
            rep_config = replace(config, seed=rep_seed)
            alone = draw_alone(rep_config)
            np.testing.assert_array_equal(levels, alone)
            np.testing.assert_array_equal(np.signbit(levels), np.signbit(alone))
            series = simulate_dgp(rep_config)
            np.testing.assert_array_equal(levels, [s.values for s in series])
            assert [s.name for s in series] == ["var1", "var2"]

    def test_a_non_finite_level_raises_the_first_replications_error(self):
        # an overflowing trend is an error of its own, with no warning
        config = DgpConfig(trend=(0.0, 1e308), t_obs=60)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="^series 'var2': non-finite value at index 1$"):
                montecarlo._draw(config, [(0, 0), (0, 1)])


class TestEmpiricalSize:
    def test_rerun_reproduces_rates(self):
        config = DgpConfig(drift=(0.2, 0.1), t_obs=120, seed=31)
        first = empirical_size(config, reps=30, level=0.05)
        second = empirical_size(config, reps=30, level=0.05)
        assert first == second

    def test_rates_are_fractions_over_all_hypotheses(self):
        config = DgpConfig(drift=(0.2, 0.1), t_obs=120, seed=32)
        rates = empirical_size(config, reps=25, level=0.05)
        assert set(rates) == {f"H{i}" for i in range(1, 11)}
        assert all(0.0 <= rate <= 1.0 for rate in rates.values())

    def test_power_shows_in_h1(self):
        config = DgpConfig(drift=(0.2, 0.1), t_obs=300, seed=33,
                           causal_feedback=0.5)
        rates = empirical_size(config, reps=60, level=0.05)
        assert rates["H1"] >= 0.8
        assert rates["H5"] <= 0.3  # reverse direction stays at size level

    def test_catalog_built_once_per_layout(self, monkeypatch):
        calls = []
        original = asymcause.wald.restriction_for

        def counted(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(asymcause.wald, "restriction_for", counted)
        config = DgpConfig(drift=(0.2, 0.1), t_obs=120, seed=35)
        empirical_size(config, reps=20, level=0.05)
        assert len(calls) == 10

    def test_argument_validation(self):
        config = DgpConfig(t_obs=100, seed=1)
        with pytest.raises(ValueError):
            empirical_size(config, reps=0)
        with pytest.raises(ValueError):
            empirical_size(config, reps=10, level=1.5)
        with pytest.raises(ValueError):
            empirical_size(config, reps=10, estimator="ridge")

    @settings(max_examples=20, deadline=None)
    @given(
        t_obs=st.integers(50, 100),
        fixed_lags=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        extra_lags=st.integers(0, 2),
        deterministic=st.sampled_from(DETERMINISTIC_KINDS),
        rho=st.floats(-0.9, 0.9),
        estimator=st.sampled_from(["fgls", "ols"]),
        reps=st.integers(1, 35),
        seed=st.integers(0, 2**16),
    )
    def test_stacked_blocks_equal_the_replication_loop(
            self, t_obs, fixed_lags, extra_lags, deterministic, rho, estimator, reps, seed):
        # every replication's statistics, FGLS iterations and convergence flag
        # are those of its own system, bit for bit, whatever the block size
        config = DgpConfig(drift=(0.1, 0.1), error_correlation=rho, t_obs=t_obs, seed=seed)
        study = dict(deterministic=deterministic, fixed_lags=fixed_lags,
                     extra_lags=extra_lags, estimator=estimator)
        try:
            statistics, p_values, iterations, converged = reference_study(
                config, reps, **study)
        except AsymCauseError as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                empirical_size(config, reps, **study)
            return
        rates = {hid: float(np.mean(p_values[:, i] < 0.05))
                 for i, hid in enumerate(HYPOTHESIS_IDS)}
        seen = []
        original = montecarlo.run_catalog

        def recorded(fit, specs):
            results = original(fit, specs)
            seen.append((np.column_stack([r.statistic for r in results]),
                         fit.iteration_counts, fit.converged))
            return results

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(montecarlo, "run_catalog", recorded)
            assert empirical_size(config, reps, **study) == rates
        np.testing.assert_array_equal(np.vstack([s for s, _, _ in seen]), statistics)
        np.testing.assert_array_equal(np.concatenate([i for _, i, _ in seen]), iterations)
        np.testing.assert_array_equal(np.concatenate([c for _, _, c in seen]), converged)
        for block in (1, 7, reps):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(montecarlo, "STUDY_BLOCK", block)
                assert empirical_size(config, reps, **study) == rates

    @pytest.mark.parametrize("estimator, deterministic", [
        ("fgls", "drift"), ("ols", "drift"),
        ("fgls", "drift_and_trend"), ("ols", "drift_and_trend"),
    ], ids=["fgls", "ols", "fgls-drift_and_trend", "ols-drift_and_trend"])
    @pytest.mark.parametrize("block", [1, 4, 16])
    def test_a_degenerate_replication_fails_the_study(self, monkeypatch, estimator,
                                                      deterministic, block):
        # replication 5's second series is constant: under either kind the
        # study raises that replication's own error, naming its equation and
        # regressor
        config = DgpConfig(drift=(0.1, 0.1), t_obs=80, seed=3)
        monkeypatch.setattr(montecarlo, "_draw", constant_paths(montecarlo._draw, {5: 1}))
        bad = simulate_dgp(replace(config, seed=(3, 5)))
        with pytest.raises(SingularityError) as own:
            ols_fit(build_design(*[decompose(s, deterministic) for s in bad], 1, 1, 1))
        assert str(own.value) == ("equation Z+1 (var1): design matrix is rank-deficient "
                                  "at beta+_2,1, a lag of 'var2'")
        monkeypatch.setattr(montecarlo, "STUDY_BLOCK", block)
        with pytest.raises(SingularityError) as study:
            empirical_size(config, reps=12, deterministic=deterministic, estimator=estimator)
        assert str(study.value) == str(own.value)
