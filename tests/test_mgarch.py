"""GARCH-t likelihood, parameter transforms, fitting, simulation, ARCH LM."""

import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from asymcause import fgls_fit, mgarch, optim
from asymcause.decomposition import Series, decompose, decompose_stack
from asymcause.errors import InsufficientDataError, LikelihoodError, SingularityError
from asymcause.mgarch import (
    GarchSpec,
    arch_lm_diag,
    fit_sure_garch_t,
    garch_t_loglik,
    garch_t_score,
    simulate_ccc_garch_t,
)
from asymcause.mgarch import (
    _LOGIT_LIMIT,
    _initial_spec,
    _negative_loglik,
    _nu_shifts,
    _psi_gap,
    constrain_params,
    unconstrain_params,
)
from asymcause.optim import GTOL, gradient_jacobian
from asymcause.sure import build_design

from conftest import garch_pair_levels, garch_robustness_system, intercept_system


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


def pair_system(levels, p_pos=1, p_neg=1):
    """The 4-equation signed-component system of a (T, 2) pair of levels."""
    components = [decompose(Series(levels[:, i]), "drift") for i in range(2)]
    return build_design(*components, p_pos, p_neg, 1)


@pytest.fixture(scope="module")
def garch_pair():
    return pair_system(garch_pair_levels())


@pytest.fixture(scope="module")
def garch_pair_fit(garch_pair):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # 158 observations for 39 parameters
        return fit_sure_garch_t(garch_pair)


def reference_loglik(coefficients, spec, system):
    """The log-likelihood as first written, with the recursion on numpy rows."""
    resid = system.residuals(coefficients[None])[:, 0]
    n = spec.n
    s2 = np.mean(resid**2, axis=0)
    h = np.empty(resid.shape)
    h[0] = spec.omega + (spec.alpha + spec.beta) * s2
    sq = resid**2
    for t in range(1, resid.shape[0]):
        h[t] = spec.omega + spec.alpha * sq[t - 1] + spec.beta * h[t - 1]
    chol = np.linalg.cholesky(spec.correlation)
    quad = np.sum(np.linalg.solve(chol, (resid / np.sqrt(h)).T) ** 2, axis=0)
    logdet_h = 2.0 * np.sum(np.log(np.diag(chol))) + np.sum(np.log(h), axis=1)
    nu = spec.nu
    # lgamma((nu + n) / 2) - lgamma(nu / 2) as a finite sum, for even n
    const = (sum(np.log(nu / 2.0 + j) for j in range(n // 2))
             - 0.5 * n * np.log(np.pi * (nu - 2.0)))
    terms = const - 0.5 * logdet_h - 0.5 * (nu + n) * np.log1p(quad / (nu - 2.0))
    return float(np.sum(terms))


def fit_closures(system):
    """The objective, gradient and start that fit_sure_garch_t hands to
    minimize_bfgs; the fit itself does not run."""
    captured = {}

    def capture(fun, grad, x0):
        captured.update(fun=fun, grad=grad, x0=x0)
        raise StopIteration

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mgarch, "minimize_bfgs", capture)
        with pytest.raises(StopIteration), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fit_sure_garch_t(system)
    return captured["fun"], captured["grad"], captured["x0"]


def counting_forward(patch, rows):
    """Wrap mgarch._forward so that each call appends its row count to rows."""
    forward = mgarch._forward

    def counted(system, mean, params):
        rows.append(len(mean))
        return forward(system, mean, params)

    patch.setattr(mgarch, "_forward", counted)


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
        nan_corr = np.array([[1.0, np.nan], [np.nan, 1.0]])
        for name, value in [("omega", np.array([np.nan, 0.1])),
                            ("alpha", np.array([0.1, np.nan])),
                            ("beta", np.array([np.nan, 0.8])),
                            ("correlation", nan_corr), ("nu", np.inf), ("nu", np.nan)]:
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                GarchSpec(**{**good, name: value})


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
        # any unconstrained vector must map into the admissible region; the
        # correlation coordinate is unbounded, so it is drawn up to +-1e3
        for _ in range(50):
            theta = rng.standard_normal(3 + 3 * 2 + 1 + 1) * 3.0
            theta[-2] = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-1.0, 3.0)
            _, spec = constrain_params(theta, 3, 2)
            assert np.all(spec.omega > 0)
            assert np.all(spec.alpha + spec.beta < 1.0)
            assert np.all(np.diag(spec.correlation) == 1.0)
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
        system = intercept_system(np.zeros((100, 2)))
        spec = GarchSpec(omega=np.ones(2), alpha=np.zeros(2),
                         beta=np.zeros(2), correlation=np.eye(2), nu=1e6)
        value = garch_t_loglik(np.zeros(2), spec, system)
        assert value == pytest.approx(-100.0 * math.log(2 * math.pi), abs=1e-3)

    def test_equation_permutation_invariance(self, rng):
        data = rng.standard_normal((150, 4))
        spec = random_spec(rng, 4)
        base = garch_t_loglik(np.zeros(4), spec, intercept_system(data))
        perm = [3, 0, 1, 2]
        spec_p = GarchSpec(
            omega=spec.omega[perm],
            alpha=spec.alpha[perm],
            beta=spec.beta[perm],
            correlation=spec.correlation[np.ix_(perm, perm)],
            nu=spec.nu,
        )
        permuted = garch_t_loglik(
            np.zeros(4), spec_p, intercept_system(data[:, perm])
        )
        assert permuted == pytest.approx(base, rel=1e-12)

    def test_overflow_raises_likelihood_error(self):
        data = np.full((60, 2), 1e200)
        data[::2] *= -1.0
        system = intercept_system(data)
        spec = GarchSpec(omega=np.ones(2), alpha=np.full(2, 0.3),
                         beta=np.full(2, 0.5), correlation=np.eye(2), nu=5.0)
        with pytest.raises(LikelihoodError):
            garch_t_loglik(np.zeros(2), spec, system)

    def test_nu_edges_raise_likelihood_error(self, rng):
        # log(nu - 2) = -40 or -800 rounds nu to exactly 2, which GarchSpec
        # refuses; at +709, pi (nu - 2) overflows
        system = intercept_system(rng.standard_normal((80, 2)))
        theta = unconstrain_params(np.zeros(2), random_spec(rng, 2))
        for log_excess in (-40.0, -800.0, 709.0):
            theta[-1] = log_excess
            if log_excess < 0:
                with pytest.raises(ValueError, match="nu must exceed 2"):
                    constrain_params(theta, 2, 2)
            else:
                with pytest.raises(LikelihoodError):
                    garch_t_loglik(*constrain_params(theta, 2, 2), system)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert _negative_loglik(theta, system) == np.inf

    def test_transform_overflow_is_a_likelihood_failure(self, garch_pair):
        # exp(710) and the square of a correlation coordinate past 1e154
        # overflow inside the transforms, before any likelihood arithmetic
        start = fgls_fit(garch_pair)
        theta0 = unconstrain_params(start.coefficients, _initial_spec(start.residuals))
        k_mean, n = garch_pair.n_coefficients, garch_pair.n_equations
        for index, value in ((k_mean, 710.0), (theta0.size - 1, 710.0),
                             (k_mean + 3 * n, 1e160), (k_mean + 3 * n, 1e300)):
            theta = theta0.copy()
            theta[index] = value
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert _negative_loglik(theta, garch_pair) == np.inf
                with pytest.raises(LikelihoodError, match="score evaluation failed"):
                    garch_t_score(theta, garch_pair)

    def test_mean_overflow_is_a_likelihood_failure(self, garch_pair):
        # a lag coefficient of 1e308 overflows the residual product itself
        start = fgls_fit(garch_pair)
        theta = unconstrain_params(start.coefficients, _initial_spec(start.residuals))
        theta[1] = 1e308
        k_mean, n = garch_pair.n_coefficients, garch_pair.n_equations
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _negative_loglik(theta, garch_pair) == np.inf
            with pytest.raises(LikelihoodError, match="residual evaluation failed"):
                garch_t_score(theta, garch_pair)
            with pytest.raises(LikelihoodError, match="residual evaluation failed"):
                garch_t_loglik(*constrain_params(theta, k_mean, n), garch_pair)

    def test_dimension_mismatch(self, rng):
        data = rng.standard_normal((80, 2))
        spec = random_spec(rng, 3)
        with pytest.raises(ValueError, match="dimension"):
            garch_t_loglik(np.zeros(2), spec, intercept_system(data))


class TestScore:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), signed_pair=st.booleans(),
           spread=st.floats(0.0, 1.0), rho=st.none() | st.floats(0.9, 0.99))
    @example(seed=3, signed_pair=True, spread=0.0, rho=0.95)
    # at strong correlation a 1e-6-step central difference rounds past the bound
    @example(seed=937, signed_pair=True, spread=0.9806004175740891,
             rho=0.9806004175740891)
    def test_matches_central_differences(self, seed, signed_pair, spread, rho):
        rng = np.random.default_rng(seed)
        draws = simulate_ccc_garch_t(random_spec(rng, 2), 120, seed=seed)
        if signed_pair:
            levels = np.vstack([np.zeros(2), np.cumsum(draws, axis=0)])
            system = pair_system(levels, *rng.integers(1, 3, size=2))
        else:
            system = intercept_system(draws)
        k_mean, n = system.n_coefficients, system.n_equations
        spec = random_spec(rng, n)
        if rho is not None:
            # every |correlation| = rho: Cholesky rows far from the identity's
            signs = rng.choice([-1.0, 1.0], n)
            strong = rho * np.outer(signs, signs) + (1.0 - rho) * np.eye(n)
            spec = dataclasses.replace(spec, correlation=strong)
        theta = unconstrain_params(fgls_fit(system).coefficients, spec)
        theta += spread * rng.standard_normal(theta.size)

        def loglik(t):
            return garch_t_loglik(*constrain_params(t, k_mean, n), system)

        # the fourth-order stencil (8 (f(+1) - f(-1)) - (f(+2) - f(-2))) / 12 h
        steps = 1e-4 * np.maximum(1.0, np.abs(theta))
        differences = np.array([
            (8.0 * (loglik(theta + e) - loglik(theta - e))
             - (loglik(theta + 2.0 * e) - loglik(theta - 2.0 * e))) / (12.0 * h)
            for h, e in zip(steps, np.diag(steps))])
        # the differences themselves carry rounding error ~ eps |loglik| / step
        rounding = 10.0 * np.finfo(float).eps * abs(loglik(theta)) / steps
        score = garch_t_score(theta, system)
        assert np.all(np.abs(score - differences)
                      <= 1e-6 * np.maximum(1.0, np.abs(differences)) + rounding)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), signed_pair=st.booleans(),
           spread=st.floats(0.0, 1.0), n_rows=st.integers(1, 5))
    def test_stacked_rows_equal_single_calls(self, seed, signed_pair, spread, n_rows):
        rng = np.random.default_rng(seed)
        draws = simulate_ccc_garch_t(random_spec(rng, 2), 120, seed=seed)
        if signed_pair:
            levels = np.vstack([np.zeros(2), np.cumsum(draws, axis=0)])
            system = pair_system(levels, *rng.integers(1, 3, size=2))
        else:
            system = intercept_system(draws)
        spec = random_spec(rng, system.n_equations)
        theta = unconstrain_params(fgls_fit(system).coefficients, spec)
        stack = theta + spread * rng.standard_normal((n_rows, theta.size))
        stacked = garch_t_score(stack, system)
        assert stacked.shape == stack.shape
        single = np.array([garch_t_score(row, system) for row in stack])
        assert np.all(np.abs(stacked - single) <= 1e-12 * np.abs(single) + 1e-12)

    def test_a_failing_row_fails_the_stack(self, garch_pair):
        start = fgls_fit(garch_pair)
        theta = unconstrain_params(start.coefficients, _initial_spec(start.residuals))
        bad = theta.copy()
        bad[0] = 1e200  # an intercept whose squared residuals overflow
        assert np.all(np.isfinite(garch_t_score(np.stack([theta, theta]), garch_pair)))
        for stack in (bad, np.stack([theta, bad, theta]), np.stack([theta, bad])):
            with pytest.raises(LikelihoodError, match="failed"):
                garch_t_score(stack, garch_pair)

    @settings(max_examples=300, deadline=None)
    @given(log_nu=st.floats(math.log(2.0 + 1e-4), math.log(1e15)),
           n=st.sampled_from([2, 4]))
    def test_psi_gap_matches_mpmath(self, log_nu, n):
        nu = math.exp(log_nu)
        with mpmath.workdps(40):
            exact = float(mpmath.digamma((mpmath.mpf(nu) + n) / 2)
                          - mpmath.digamma(mpmath.mpf(nu) / 2))
        assert abs(_psi_gap(np.array([nu]), n)[0] - exact) <= 1e-14 * exact

    @settings(max_examples=300, deadline=None)
    @given(log_nu=st.floats(math.log(2.0 + 1e-4), math.log(1e15)),
           n=st.sampled_from([2, 4]))
    @example(log_nu=math.log(2.0 + 1e-4), n=4)  # both ends of the range
    @example(log_nu=math.log(1e15), n=4)
    def test_lgamma_gap_matches_mpmath(self, log_nu, n):
        # the likelihood's constant: the sum of the shifts' logs
        nu = math.exp(log_nu)
        with mpmath.workdps(40):
            exact = float(mpmath.loggamma((mpmath.mpf(nu) + n) / 2)
                          - mpmath.loggamma(mpmath.mpf(nu) / 2))
        gap = np.sum(np.log(_nu_shifts(np.array([nu]), n)), axis=0)[0]
        assert abs(gap - exact) <= 1e-14 * max(1.0, abs(exact))

    def test_odd_equation_count_rejected(self, rng):
        system = intercept_system(rng.standard_normal((80, 3)))
        coefficients, spec = np.zeros(3), random_spec(rng, 3)
        with pytest.raises(ValueError, match="even number of equations, got 3"):
            garch_t_loglik(coefficients, spec, system)
        with pytest.raises(ValueError, match="even number of equations, got 3"):
            garch_t_score(unconstrain_params(coefficients, spec), system)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), spread=st.floats(0.0, 3.0))
    def test_objective_is_the_loglik_bit_for_bit(self, garch_pair, seed, spread):
        # the fit's objective and garch_t_loglik at constrain_params share one
        # residual product and one forward pass
        start = fgls_fit(garch_pair)
        theta = unconstrain_params(start.coefficients, _initial_spec(start.residuals))
        theta += spread * np.random.default_rng(seed).standard_normal(theta.size)
        value = _negative_loglik(theta, garch_pair)
        if np.isfinite(value):
            k_mean, n = garch_pair.n_coefficients, garch_pair.n_equations
            assert -value == garch_t_loglik(*constrain_params(theta, k_mean, n), garch_pair)

    def test_loglik_matches_the_row_recursion_bit_for_bit(self, garch_pair):
        start = fgls_fit(garch_pair)
        spec = _initial_spec(start.residuals)
        np.testing.assert_array_equal(
            garch_t_loglik(start.coefficients, spec, garch_pair),
            reference_loglik(start.coefficients, spec, garch_pair),
        )

    def test_standard_errors_are_step_stable(self, garch_pair, garch_pair_fit,
                                             monkeypatch):
        fit = garch_pair_fit
        assert np.min(np.linalg.eigvalsh(fit.information)) > 0
        theta = unconstrain_params(fit.mean.coefficients, fit.garch)
        k_mean, step = garch_pair.n_coefficients, optim.HESSIAN_STEP
        errors = {}
        for factor in (1.0, 0.5, 2.0):
            monkeypatch.setattr(optim, "HESSIAN_STEP", factor * step)
            info = gradient_jacobian(lambda t: -garch_t_score(t, garch_pair), theta)
            assert np.min(np.linalg.eigvalsh(info)) > 0
            errors[factor] = np.sqrt(np.diag(np.linalg.inv(info))[:k_mean])
        for factor in (0.5, 2.0):
            assert np.max(np.abs(errors[factor] / errors[1.0] - 1.0)) <= 1e-3


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
    def test_a_stack_of_systems_is_rejected_by_its_shape(self):
        # one system per fit: a stack used to fail inside numpy ("m has more
        # than 2 dimensions")
        levels = np.stack([garch_pair_levels().T] * 2)
        system = build_design(*decompose_stack(levels, "drift", ("a", "b")), 1, 1, 1)
        with pytest.raises(ValueError, match=r"^fit_sure_garch_t fits one system, "
                                             r"not a stack of shape \(2,\)$"):
            fit_sure_garch_t(system)

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

    def test_trace_is_nondecreasing_loglik(self, rng, monkeypatch):
        spec = GarchSpec(omega=np.array([0.2, 0.2]), alpha=np.full(2, 0.15),
                         beta=np.full(2, 0.7),
                         correlation=np.array([[1.0, 0.4], [0.4, 1.0]]), nu=6.0)
        data = simulate_ccc_garch_t(spec, 400, seed=31)
        monkeypatch.setattr(optim, "BFGS_MAX_ITER", 60)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fit = fit_sure_garch_t(intercept_system(data))
        trace = fit.trace
        assert all(later >= earlier for earlier, later in zip(trace, trace[1:]))
        assert fit.mean.estimator == "garch_t"
        assert fit.information.shape[0] == 2 + 3 * 2 + 1 + 1

    def test_signed_pair_fit_reaches_a_stationary_point(self, garch_pair_fit):
        fit = garch_pair_fit
        assert fit.mean.converged
        assert fit.mean.iterations <= 60  # 465 from an identity inverse Hessian
        assert fit.gradient_max < GTOL
        assert fit.stop == "gradient norm below tolerance"
        assert fit.loglik >= fit.trace[0]
        assert np.all(np.isfinite(np.diag(fit.mean.covariance)))

    def test_objective_refuses_saturated_sigmoid_coordinates(self, garch_pair):
        k_mean, n = garch_pair.n_coefficients, garch_pair.n_equations
        start = fgls_fit(garch_pair)
        theta0 = unconstrain_params(start.coefficients, _initial_spec(start.residuals))
        assert np.isfinite(_negative_loglik(theta0, garch_pair))
        beyond = _LOGIT_LIMIT + 0.5
        # persistence and share logits are guarded
        for i in range(k_mean + n, k_mean + 3 * n):
            for value in (beyond, -beyond):
                theta = theta0.copy()
                theta[i] = value
                assert _negative_loglik(theta, garch_pair) == np.inf
        # the correlation coordinates cannot saturate and are not guarded
        for i in range(k_mean + 3 * n, theta0.size - 1):
            for value in (beyond, -beyond):
                theta = theta0.copy()
                theta[i] = value
                assert np.isfinite(_negative_loglik(theta, garch_pair))
        # nor are log omega and log(nu - 2)
        for i in (k_mean, theta0.size - 1):
            theta = theta0.copy()
            theta[i] += beyond
            assert np.isfinite(_negative_loglik(theta, garch_pair))

    @pytest.mark.parametrize("pair", [0, 8])
    def test_boundary_pairs_return_a_fit(self, pair):
        # from the curvature start, these fits head for a saturated sigmoid,
        # where the information loses rank or alpha + beta rounds to 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fit = fit_sure_garch_t(garch_robustness_system(pair))
        assert np.all(np.isfinite(fit.information))
        trace = fit.trace
        assert all(later >= earlier for earlier, later in zip(trace, trace[1:]))

    @pytest.mark.slow
    def test_robustness_pairs_end_on_the_gradient_rule(self):
        fits = []
        for pair in range(16):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                fit = fit_sure_garch_t(garch_robustness_system(pair))
            trace = fit.trace
            assert all(later >= earlier for earlier, later in zip(trace, trace[1:]))
            fits.append(fit)
        stops = [fit.stop for fit in fits]
        # 13 of the 16 measured; the last bit of the arithmetic can move a boundary
        # pair, so a failure names every pair's stop to show which ones moved
        summary = "\n".join(
            f"pair {pair}: {fit.stop}, {fit.mean.iterations} iterations, "
            f"log-likelihood {fit.loglik!r}" for pair, fit in enumerate(fits))
        assert stops.count("gradient norm below tolerance") >= 10, summary

    def test_odd_equation_count_fit_rejected(self, rng):
        # the parity error reaches the caller instead of an infinite objective
        system = intercept_system(rng.standard_normal((200, 3)))
        with pytest.raises(ValueError, match="even number of equations, got 3"):
            fit_sure_garch_t(system)

    def test_small_sample_warning(self, rng, monkeypatch):
        monkeypatch.setattr(optim, "BFGS_MAX_ITER", 5)
        data = rng.standard_normal((60, 2))
        with pytest.warns(UserWarning, match="free parameters"):
            fit_sure_garch_t(intercept_system(data))


class TestScoreReuse:
    """The fit's score at an accepted iterate finishes the objective's forward
    pass; every other call runs garch_t_score."""

    @pytest.mark.parametrize("pair", [None, 0, 8])
    def test_fit_is_the_plain_bfgs_run_bit_for_bit(self, garch_pair, pair, monkeypatch):
        system = garch_pair if pair is None else garch_robustness_system(pair)
        runs = []

        def recorded(fun, grad, x0):
            runs.append((x0, optim.minimize_bfgs(fun, grad, x0)))
            return runs[-1][1]

        monkeypatch.setattr(mgarch, "minimize_bfgs", recorded)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fit_sure_garch_t(system)
        (x0, fused), = runs
        plain = optim.minimize_bfgs(lambda t: _negative_loglik(t, system),
                                    lambda t: -garch_t_score(t, system), x0)
        for name in ("x", "fun", "gradient", "hessian", "n_evals", "n_gradients",
                     "message", "f_trace", "iterations"):
            np.testing.assert_array_equal(getattr(fused, name), getattr(plain, name),
                                          err_msg=name)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), spread=st.floats(0.0, 1.0))
    def test_gradient_equals_the_score_after_any_objective_call(self, garch_pair, seed,
                                                                spread):
        fun, grad, x0 = fit_closures(garch_pair)
        rng = np.random.default_rng(seed)
        theta = x0 + spread * rng.standard_normal(x0.size)
        other = theta + 1e-3 * rng.standard_normal(x0.size)
        assume(np.isfinite(_negative_loglik(theta, garch_pair))
               and np.isfinite(_negative_loglik(other, garch_pair)))
        saturated = theta.copy()
        saturated[garch_pair.n_coefficients + garch_pair.n_equations] = _LOGIT_LIMIT + 1.0
        pair = np.stack([theta, theta])
        rows = []
        with pytest.MonkeyPatch.context() as patch:
            counting_forward(patch, rows)
            # (objective calls, gradient stack, the gradient's forward rows)
            for evaluated, stack, passes in (([theta], theta[None], []),
                                             ([theta], other[None], [1]),
                                             ([theta], pair, [2]),
                                             ([theta, saturated], theta[None], [1])):
                for point in evaluated:
                    fun(point)
                del rows[:]
                np.testing.assert_array_equal(grad(stack), -garch_t_score(stack, garch_pair))
                assert rows[:-1] == passes  # the last is the reference's
            # a finished evaluation is not finished twice
            fun(theta)
            grad(theta[None])
            del rows[:]
            grad(theta[None])
            assert rows == [1]

    def test_one_forward_pass_per_evaluation(self, garch_pair, monkeypatch):
        rows = []
        counting_forward(monkeypatch, rows)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fit = fit_sure_garch_t(garch_pair)
        k = fit.information.shape[0]
        # 25 accepted iterates and 3 Jacobians; the iterates' scores add no pass
        assert (fit.n_evals, fit.n_gradients) == (34, 25 + 3 * 2 * k)
        assert sorted(rows) == [1] * 34 + [2 * k] * 3


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

    def test_statistic_matches_textbook_formula(self, rng):
        # LM = T m - T tr(E0'E0^-1 E1'E1): E0 the demeaned outer-product terms,
        # E1 the residuals of their regression on a constant and their lags
        u = rng.standard_normal((200, 3))
        lags = 2
        u = u - u.mean(axis=0)
        rows, cols = np.tril_indices(3)
        v = u[:, rows] * u[:, cols]
        y = v[lags:]
        x = np.column_stack(
            [np.ones(len(y))] + [v[lags - j : len(v) - j] for j in range(1, lags + 1)]
        )
        e1 = y - x @ np.linalg.lstsq(x, y, rcond=None)[0]
        e0 = y - y.mean(axis=0)
        t_aux, m = y.shape
        expected = t_aux * (m - np.trace(np.linalg.inv(e0.T @ e0) @ (e1.T @ e1)))
        result = arch_lm_diag(u, lags=lags)
        assert result.statistic == pytest.approx(expected, rel=1e-10)
