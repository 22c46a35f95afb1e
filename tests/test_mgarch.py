"""GARCH-t likelihood, parameter transforms, fitting, simulation, ARCH LM."""

import math
import warnings

import numpy as np
import pytest

from asymcause import (
    GarchSpec,
    InsufficientDataError,
    LikelihoodError,
    SingularityError,
    arch_lm_diag,
    fgls_fit,
    fit_sure_garch_t,
    garch_t_loglik,
    simulate_ccc_garch_t,
)
from asymcause.mgarch import constrain_params, unconstrain_params

from conftest import intercept_system


def random_spec(rng, n):
    alpha = rng.uniform(0.02, 0.25, n)
    beta = rng.uniform(0.2, 0.6, n)
    raw = rng.standard_normal((n, n + 2))
    cov = raw @ raw.T
    scale = np.sqrt(np.diag(cov))
    corr = cov / np.outer(scale, scale)
    return GarchSpec(
        omega=rng.uniform(0.2, 2.0, n),
        alpha=alpha,
        beta=beta,
        correlation=corr,
        nu=rng.uniform(3.0, 25.0),
    )


class TestGarchSpecValidation:
    def test_rejects_bad_parameters(self):
        eye = np.eye(2)
        good = dict(omega=np.ones(2), alpha=np.full(2, 0.1),
                    beta=np.full(2, 0.8), correlation=eye, nu=8.0)
        GarchSpec(**good)
        with pytest.raises(ValueError):
            GarchSpec(**{**good, "omega": np.array([1.0, 0.0])})
        with pytest.raises(ValueError):
            GarchSpec(**{**good, "alpha": np.array([0.3, 1.1])})
        with pytest.raises(ValueError):
            GarchSpec(**{**good, "beta": np.array([0.95, 0.8])})  # alpha+beta >= 1
        with pytest.raises(ValueError):
            GarchSpec(**{**good, "nu": 2.0})
        with pytest.raises(ValueError):
            GarchSpec(**{**good, "correlation": np.array([[1.0, 1.2], [1.2, 1.0]])})


class TestParameterTransforms:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_round_trip_identity(self, n, rng):
        for _ in range(20):
            spec = random_spec(rng, n)
            mean = rng.standard_normal(3)
            theta = unconstrain_params(mean, spec)
            mean2, spec2 = constrain_params(theta, 3, n)
            theta2 = unconstrain_params(mean2, spec2)
            np.testing.assert_allclose(theta2, theta, atol=1e-10)

    def test_constrained_points_always_valid(self, rng):
        # any unconstrained vector must map into the admissible region
        for _ in range(50):
            theta = rng.standard_normal(3 + 3 * 2 + 1 + 1) * 3.0
            _, spec = constrain_params(theta, 3, 2)
            assert np.all(spec.omega > 0)
            assert np.all(spec.alpha + spec.beta < 1.0)
            assert np.min(np.linalg.eigvalsh(spec.correlation)) > 0
            assert spec.nu > 2

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="entries"):
            constrain_params(np.zeros(5), 3, 2)


class TestLoglik:
    def test_gaussian_limit_matches_closed_form(self, rng):
        n, t_obs = 2, 400
        corr = np.array([[1.0, 0.4], [0.4, 1.0]])
        omega = np.array([1.5, 0.7])
        sigma = corr * np.outer(np.sqrt(omega), np.sqrt(omega))
        data = rng.multivariate_normal(np.zeros(n), sigma, size=t_obs)
        system = intercept_system(data)
        spec = GarchSpec(omega=omega, alpha=np.zeros(n), beta=np.zeros(n),
                         correlation=corr, nu=1e6)
        value = garch_t_loglik(np.zeros(n), spec, system)
        inv = np.linalg.inv(sigma)
        _, logdet = np.linalg.slogdet(sigma)
        quad = np.einsum("ti,ij,tj->t", data, inv, data)
        gaussian = -0.5 * t_obs * (n * math.log(2 * math.pi) + logdet) - 0.5 * quad.sum()
        assert value == pytest.approx(gaussian, abs=1e-3)

    def test_zero_residuals_unit_variance_value(self):
        system = intercept_system(np.zeros((100, 1)))
        spec = GarchSpec(omega=np.array([1.0]), alpha=np.array([0.0]),
                         beta=np.array([0.0]), correlation=np.eye(1), nu=1e6)
        value = garch_t_loglik(np.zeros(1), spec, system)
        assert value == pytest.approx(-50.0 * math.log(2 * math.pi), abs=1e-3)

    def test_equation_permutation_invariance(self, rng):
        data = rng.standard_normal((150, 3))
        spec = random_spec(rng, 3)
        base = garch_t_loglik(np.zeros(3), spec, intercept_system(data))
        perm = [2, 0, 1]
        spec_p = GarchSpec(
            omega=spec.omega[perm],
            alpha=spec.alpha[perm],
            beta=spec.beta[perm],
            correlation=spec.correlation[np.ix_(perm, perm)],
            nu=spec.nu,
        )
        permuted = garch_t_loglik(
            np.zeros(3), spec_p, intercept_system(data[:, perm])
        )
        assert permuted == pytest.approx(base, rel=1e-12)

    def test_overflow_raises_likelihood_error(self):
        data = np.full((60, 1), 1e200)
        data[::2] *= -1.0
        system = intercept_system(data)
        spec = GarchSpec(omega=np.array([1.0]), alpha=np.array([0.3]),
                         beta=np.array([0.5]), correlation=np.eye(1), nu=5.0)
        with pytest.raises(LikelihoodError):
            garch_t_loglik(np.zeros(1), spec, system)

    def test_dimension_mismatch(self, rng):
        data = rng.standard_normal((80, 2))
        spec = random_spec(rng, 3)
        with pytest.raises(ValueError, match="dimension"):
            garch_t_loglik(np.zeros(2), spec, intercept_system(data))


class TestSimulator:
    def test_unconditional_covariance_lln(self):
        spec = GarchSpec(omega=np.array([2.0, 0.5]), alpha=np.zeros(2),
                         beta=np.zeros(2), correlation=np.eye(2), nu=1e6)
        draws = simulate_ccc_garch_t(spec, 100_000, seed=9)
        cov = np.cov(draws, rowvar=False)
        np.testing.assert_allclose(np.diag(cov), spec.omega, rtol=0.05)
        assert abs(cov[0, 1]) < 0.05

    def test_seed_reproducibility(self):
        spec = GarchSpec(omega=np.ones(2), alpha=np.full(2, 0.1),
                         beta=np.full(2, 0.8),
                         correlation=np.array([[1.0, 0.3], [0.3, 1.0]]), nu=7.0)
        a = simulate_ccc_garch_t(spec, 500, seed=123)
        b = simulate_ccc_garch_t(spec, 500, seed=123)
        np.testing.assert_array_equal(a, b)

    def test_garch_draws_have_excess_kurtosis(self):
        spec = GarchSpec(omega=np.ones(2), alpha=np.full(2, 0.3),
                         beta=np.full(2, 0.6), correlation=np.eye(2), nu=8.0)
        draws = simulate_ccc_garch_t(spec, 20_000, seed=4)
        centered = draws - draws.mean(axis=0)
        kurtosis = (centered**4).mean(axis=0) / draws.var(axis=0) ** 2
        assert np.all(kurtosis > 3.0)

    def test_bad_length(self):
        spec = GarchSpec(omega=np.ones(1), alpha=np.zeros(1), beta=np.zeros(1),
                         correlation=np.eye(1), nu=5.0)
        with pytest.raises(ValueError):
            simulate_ccc_garch_t(spec, 0, seed=1)


class TestFit:
    def test_homoskedastic_data_yields_no_arch_effect(self):
        # with alpha ~ 0 the beta loading is weakly identified (the variance
        # recursion is flat), so the ARCH loading and the likelihood parity
        # are the identified implications to check
        passes = 0
        for seed in range(3):
            rng = np.random.default_rng((500, seed))
            sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
            data = rng.multivariate_normal(np.zeros(2), sigma, size=300)
            system = intercept_system(data)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                fit = fit_sure_garch_t(system)
            gaussian_fgls = fgls_fit(system)
            t_obs, n = 300, 2
            _, logdet = np.linalg.slogdet(gaussian_fgls.omega)
            gauss_loglik = -0.5 * t_obs * (n * math.log(2 * math.pi) + logdet + n)
            extra_params = 2 * n + 1  # (omega,alpha,beta) vs one variance, plus nu
            small_arch = np.all(fit.garch.alpha < 0.1)
            close_loglik = abs(fit.loglik - gauss_loglik) <= 2.0 * extra_params
            passes += small_arch and close_loglik
            assert fit.loglik >= fit.trace[0] - 1e-9
        assert passes >= 2

    def test_trace_is_nondecreasing_loglik(self, rng):
        spec = GarchSpec(omega=np.array([0.2, 0.2]), alpha=np.full(2, 0.15),
                         beta=np.full(2, 0.7),
                         correlation=np.array([[1.0, 0.4], [0.4, 1.0]]), nu=6.0)
        data = simulate_ccc_garch_t(spec, 400, seed=31)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fit = fit_sure_garch_t(intercept_system(data), max_iter=60)
        trace = fit.trace
        assert all(later >= earlier for earlier, later in zip(trace, trace[1:]))
        assert fit.mean.estimator == "garch_t_ml"
        assert fit.information.shape[0] == 2 + 3 * 2 + 1 + 1

    def test_small_sample_warning(self, rng):
        data = rng.standard_normal((60, 2))
        with pytest.warns(UserWarning, match="free parameters"):
            fit_sure_garch_t(intercept_system(data), max_iter=5)


class TestArchLm:
    def test_size_under_iid_gaussian(self):
        rejections = 0
        reps = 1000
        for rep in range(reps):
            rng = np.random.default_rng((55, rep))
            u = rng.standard_normal((500, 2))
            result = arch_lm_diag(u, lags=1)
            rejections += result.p_value < 0.05
        assert 0.02 <= rejections / reps <= 0.09

    def test_power_under_garch(self):
        spec = GarchSpec(omega=np.array([0.1, 0.1]), alpha=np.full(2, 0.3),
                         beta=np.full(2, 0.6), correlation=np.eye(2), nu=8.0)
        rejections = 0
        for rep in range(50):
            draws = simulate_ccc_garch_t(spec, 1000, seed=(7, rep))
            rejections += arch_lm_diag(draws, lags=1).p_value < 0.05
        assert rejections >= 45

    def test_constant_residuals_error(self):
        with pytest.raises(SingularityError, match="degenerate"):
            arch_lm_diag(np.ones((100, 2)), lags=1)

    def test_insufficient_observations(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InsufficientDataError):
            arch_lm_diag(rng.standard_normal((8, 3)), lags=2)

    def test_rows_are_observations(self, rng):
        # a wide array is 2 observations of 100 series, not transposed
        with pytest.raises(InsufficientDataError):
            arch_lm_diag(rng.standard_normal((2, 100)), lags=1)
        with pytest.raises(ValueError, match=r"\(T, n\)"):
            arch_lm_diag(rng.standard_normal(100), lags=1)

    def test_dof_formula(self, rng):
        u = rng.standard_normal((300, 2))
        result = arch_lm_diag(u, lags=2)
        assert result.dof == 2 * 9  # lags * (n(n+1)/2)^2
