"""DGP simulator and rejection-rate studies."""

import numpy as np
import pytest

import asymcause.wald
from asymcause.montecarlo import DgpConfig, empirical_size, simulate_dgp


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
        with pytest.raises(ValueError):
            DgpConfig(error_tail="t", error_df=1.5)


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
