"""Joint ML estimation of the mean system with CCC-GARCH(1,1)-t errors.

Each equation's conditional variance follows its own GARCH(1,1) recursion,
cross-equation correlation is constant, and the shocks are multivariate t
scaled so the conditional covariance matrix is D_t * correlation * D_t.
Includes a simulator for the same process and a multivariate ARCH LM
diagnostic used to decide whether this estimator is needed at all.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    InsufficientDataError,
    LikelihoodError,
    SingularityError,
)
from .optim import minimize_bfgs
from .sure import CoefficientEstimate, SureSystem, _lagged_design, fgls_fit
from .wald import chisq_sf

_INTERIOR = 1e-12  # probabilities are clipped into the open unit interval
# The fit refuses persistence and share logits beyond this: sigmoid(30) = 1 - 9.4e-14
# keeps every transform's slope nonzero, while from ~36.7 on the sigmoid rounds to 1.
_LOGIT_LIMIT = 30.0


@dataclass(frozen=True)
class GarchSpec:
    """CCC-GARCH(1,1) variance parameters with t-distributed shocks."""

    omega: np.ndarray  # n positive variance intercepts
    alpha: np.ndarray  # n ARCH loadings in [0, 1)
    beta: np.ndarray  # n GARCH loadings in [0, 1), alpha + beta < 1
    correlation: np.ndarray  # n x n constant conditional correlation
    nu: float  # t degrees of freedom, > 2

    def __post_init__(self):
        omega = np.atleast_1d(np.asarray(self.omega, dtype=float))
        alpha = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        corr = np.asarray(self.correlation, dtype=float)
        n = omega.size
        if alpha.size != n or beta.size != n or corr.shape != (n, n):
            raise ValueError("parameter dimensions disagree")
        for name, value in (("omega", omega), ("alpha", alpha), ("beta", beta),
                            ("correlation", corr), ("nu", self.nu)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
        if np.any(omega <= 0):
            raise ValueError("omega entries must be positive")
        if np.any(alpha < 0) or np.any(alpha >= 1):
            raise ValueError("alpha entries must lie in [0, 1)")
        if np.any(beta < 0) or np.any(beta >= 1):
            raise ValueError("beta entries must lie in [0, 1)")
        if np.any(alpha + beta >= 1):
            raise ValueError("alpha + beta must be < 1 per equation")
        if not np.allclose(corr, corr.T, atol=1e-10):
            raise ValueError("correlation matrix must be symmetric")
        if not np.allclose(np.diag(corr), 1.0, atol=1e-8):
            raise ValueError("correlation matrix must have unit diagonal")
        if np.min(np.linalg.eigvalsh(corr)) <= 0:
            raise ValueError("correlation matrix must be positive definite")
        if not self.nu > 2:
            raise ValueError("nu must exceed 2 so conditional covariances exist")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "correlation", (corr + corr.T) / 2.0)
        object.__setattr__(self, "nu", float(self.nu))

    @property
    def n(self) -> int:
        return self.omega.size

    def unconditional_covariance(self) -> np.ndarray:
        scale = np.sqrt(self.omega / (1.0 - self.alpha - self.beta))
        return self.correlation * np.outer(scale, scale)


@dataclass(frozen=True)
class GarchFit:
    """Fitted mean + variance system with observed-information covariance."""

    mean: CoefficientEstimate
    garch: GarchSpec
    loglik: float
    information: np.ndarray  # over all transformed parameters, mean block first
    gradient_max: float  # max |score| at the returned point
    stop: str  # the rule that ended the fit
    n_evals: int  # log-likelihood evaluations by minimize_bfgs
    n_gradients: int  # score rows they evaluated, each Jacobian's 2k probes included
    trace: tuple[float, ...] = ()  # log-likelihood at accepted iterates

    def __post_init__(self):
        if not np.isfinite(self.loglik):
            raise ValueError("log-likelihood must be finite")
        info = np.asarray(self.information, dtype=float)
        object.__setattr__(self, "information", (info + info.T) / 2.0)

    @property
    def information_condition(self) -> float:
        """2-norm condition number of the information matrix."""
        return float(np.linalg.cond(self.information))


class ArchLmResult(NamedTuple):
    statistic: float
    dof: int
    p_value: float


# ---------------------------------------------------------------------------
# parameter transforms (unconstrained <-> constrained)
# ---------------------------------------------------------------------------


def _sigmoid(x: np.ndarray) -> np.ndarray:
    ex = np.exp(-np.abs(x))  # exp(-x) for x >= 0 and exp(x) below: never overflows
    return np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


def _logit(p: np.ndarray) -> np.ndarray:
    p = np.clip(np.asarray(p, dtype=float), _INTERIOR, 1.0 - _INTERIOR)
    return np.log(p) - np.log1p(-p)


def _unit_rows(lower: np.ndarray, n: int) -> np.ndarray:
    """Cholesky factors of the correlations, one per row of `lower`: the rows
    of the unit-lower-triangular matrix with strictly-lower entries `lower`,
    each scaled to unit length."""
    chol = np.zeros((len(lower), n, n))
    chol[:, np.tri(n, k=-1, dtype=bool)] = lower
    chol += np.eye(n)
    return chol / np.sqrt(np.sum(chol**2, axis=2))[:, :, None]


def _blocks(theta: np.ndarray, k_mean: int, n: int) -> list[np.ndarray]:
    """theta cut, along its last axis, into the blocks that unconstrain_params
    concatenates."""
    theta = np.asarray(theta, dtype=float)
    sizes = (k_mean, n, n, n, n * (n - 1) // 2, 1)
    if theta.shape[-1] != sum(sizes):
        raise ValueError(
            f"parameter vector has {theta.shape[-1]} entries, need {sum(sizes)}"
        )
    bounds = np.cumsum((0, *sizes)).tolist()
    return [theta[..., a:b] for a, b in zip(bounds, bounds[1:])]


class _Params(NamedTuple):
    """GarchSpec's parameters for a stack of P parameter vectors."""

    omega: np.ndarray  # (P, n)
    alpha: np.ndarray  # (P, n)
    beta: np.ndarray  # (P, n)
    correlation: np.ndarray  # (P, n, n)
    nu: np.ndarray  # (P,)


def _constrained(theta: np.ndarray, k_mean: int, n: int):
    """constrain_params on each row of a (P, k) stack: the (P, k_mean) mean
    block, the variance parameters, and the sigmoid persistence and share."""
    mean, log_omega, persistence, share, lower, log_nu = _blocks(theta, k_mean, n)
    persistence, share = _sigmoid(persistence), _sigmoid(share)
    with np.errstate(over="raise", invalid="raise"):  # FloatingPointError, not inf
        chol = _unit_rows(lower, n)
        omega = np.exp(log_omega)
        nu = 2.0 + np.exp(log_nu[:, 0])
    corr = chol @ chol.swapaxes(1, 2)
    corr[:, range(n), range(n)] = 1.0
    params = _Params(omega, persistence * share, persistence * (1.0 - share), corr, nu)
    return mean, params, persistence, share


def constrain_params(
    theta: np.ndarray, k_mean: int, n: int
) -> tuple[np.ndarray, GarchSpec]:
    """Map the unconstrained optimizer vector to (mean coefficients, GarchSpec)."""
    mean, params, _, _ = _constrained(np.asarray(theta, dtype=float)[None], k_mean, n)
    return mean[0], GarchSpec(*(field[0] for field in params))


def unconstrain_params(mean: np.ndarray, spec: GarchSpec) -> np.ndarray:
    """Inverse of constrain_params; requires interior alpha/beta/correlation."""
    persistence = spec.alpha + spec.beta
    with np.errstate(divide="ignore", invalid="ignore"):
        share = np.where(persistence > 0, spec.alpha / np.maximum(persistence, _INTERIOR), 0.5)
    chol = np.linalg.cholesky(spec.correlation)
    lower = (chol / np.diag(chol)[:, None])[np.tri(spec.n, k=-1, dtype=bool)]
    return np.concatenate(
        [
            np.asarray(mean, dtype=float),
            np.log(spec.omega),
            _logit(persistence),
            _logit(share),
            lower,
            [math.log(spec.nu - 2.0)],
        ]
    )


# ---------------------------------------------------------------------------
# likelihood
# ---------------------------------------------------------------------------


def _linear_recursion(rows: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """rows[t] = rows[t] + beta * rows[t-1] for t = 1, 2, ..., in place.

    One row at a time, in this order, so each entry is rounded exactly as a
    scalar loop over the same recursion rounds it.
    """
    step = np.empty_like(rows[0])
    multiply, add = np.multiply, np.add
    previous = rows[0]
    for row in rows[1:]:
        multiply(beta, previous, step)  # positional out: ~25% less call overhead
        add(row, step, row)
        previous = row
    return rows


def _nu_shifts(nu: np.ndarray, n: int) -> np.ndarray:
    """nu / 2 + j for j < n / 2: an (n / 2, P) array for a (P,) nu and even n.

    By Gamma(x + 1) = x Gamma(x), their log sum is lgamma((nu + n) / 2) -
    lgamma(nu / 2) and their reciprocal sum psi((nu + n) / 2) - psi(nu / 2).
    """
    if n % 2:
        raise ValueError(f"the GARCH-t likelihood needs an even number of equations, got {n}")
    return nu / 2.0 + np.arange(n // 2)[:, None]


class _Forward(NamedTuple):
    """One likelihood evaluation of P rows, with what the score reuses."""

    value: np.ndarray  # (P,) log-likelihoods
    resid: np.ndarray  # (T, P, n) residuals
    sq: np.ndarray  # (T, P, n) squared residuals
    s2: np.ndarray  # (P, n) their means, the presample variance and shock
    h: np.ndarray  # (T, P, n) conditional variances
    std_resid: np.ndarray  # (T, P, n) z = e / sqrt(h)
    chol: np.ndarray  # (P, n, n) lower Cholesky factors of the correlations
    half: np.ndarray  # (P, n, T) chol^-1 z'
    quad: np.ndarray  # (P, T) q = z' correlation^-1 z


def _forward(system: SureSystem, mean: np.ndarray, params: _Params) -> _Forward:
    """garch_t_loglik of each of P rows: a (P, k_mean) stack of mean
    coefficients and their variance parameters, n even.

    Presample squared shock and variance are both set to the sample mean
    square of each equation's residuals, so h_0 = omega + (alpha+beta)*s2
    and the GARCH(1,1) recursion needs no presample observations.
    """
    n = system.n_equations
    nu = params.nu
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        try:
            resid = system.residuals(mean)
        except FloatingPointError as exc:
            raise LikelihoodError(f"residual evaluation failed: {exc}") from None
        try:
            # the scale matrix S_t = (nu - 2) / nu * H_t folds into pi (nu - 2)
            const = (np.sum(np.log(_nu_shifts(nu, n)), axis=0)
                     - 0.5 * n * np.log(np.pi * (nu - 2.0)))
            sq = resid**2
            s2 = np.mean(sq, axis=0)
            h = np.empty_like(sq)
            h[0] = params.omega + (params.alpha + params.beta) * s2
            np.multiply(params.alpha, sq[:-1], out=h[1:])
            h[1:] += params.omega
            _linear_recursion(h, params.beta)
            if np.any(~np.isfinite(h)) or np.any(h <= 0):
                raise LikelihoodError("conditional variances are not positive finite")
            std_resid = resid / np.sqrt(h)
            chol = np.linalg.cholesky(params.correlation)
            half = np.linalg.solve(chol, std_resid.transpose(1, 2, 0))
            quad = np.sum(half**2, axis=1)
            logdet_corr = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
            logdet_h = logdet_corr[:, None] + np.sum(np.log(h), axis=2).T
            kernel = np.log1p(quad / (nu - 2.0)[:, None])
            terms = const[:, None] - 0.5 * logdet_h - (0.5 * (nu + n))[:, None] * kernel
            value = np.sum(terms, axis=1)
        except (FloatingPointError, np.linalg.LinAlgError) as exc:
            raise LikelihoodError(f"log-likelihood evaluation failed: {exc}") from None
    if not np.all(np.isfinite(value)):
        raise LikelihoodError("log-likelihood is not finite")
    return _Forward(value, resid, sq, s2, h, std_resid, chol, half, quad)


def garch_t_loglik(
    coefficients: np.ndarray, spec: GarchSpec, system: SureSystem
) -> float:
    """Joint log-likelihood of mean coefficients and GARCH-t parameters.

    The conditional covariance is H_t = D_t * correlation * D_t with D_t the
    diagonal of conditional standard deviations; the multivariate t density is
    scaled by (nu-2)/nu so H_t is the actual conditional covariance.  An odd
    number of equations raises ValueError: see _nu_shifts.
    """
    if system.n_equations != spec.n:
        raise ValueError("GarchSpec dimension does not match the system")
    params = _Params(spec.omega[None], spec.alpha[None], spec.beta[None],
                     spec.correlation[None], np.array([spec.nu]))
    return float(_forward(system, np.asarray(coefficients, dtype=float)[None], params).value[0])


def _psi_gap(nu: np.ndarray, n: int) -> np.ndarray:
    """psi((nu + n) / 2) - psi(nu / 2) of a (P,) nu, for even n."""
    return np.sum(1.0 / _nu_shifts(nu, n), axis=0)


def garch_t_score(theta: np.ndarray, system: SureSystem) -> np.ndarray:
    """Gradient of the log-likelihood with respect to the vector theta.

    theta is the unconstrained vector of constrain_params, mean block first,
    or a (P, k) stack of such vectors; the result has theta's shape, one
    gradient per row.  One forward pass, then the adjoint of the variance
    recursion, lambda_t = dl_t/dh_t + beta * lambda_{t+1}, which also reaches
    the mean coefficients through the presample variance (Bollerslev 1990;
    Fiorentini, Sentana & Calzolari 2003).  Every step runs on all rows at
    once; the recursions loop over the T observations only.  Like the
    log-likelihood, it needs an even number of equations.
    """
    stack = np.asarray(theta, dtype=float)
    k_mean, n = system.n_coefficients, system.n_equations
    try:
        mean, params, persistence, share = _constrained(np.atleast_2d(stack), k_mean, n)
    except FloatingPointError as exc:
        raise LikelihoodError(f"score evaluation failed: {exc}") from None
    t_eff = system.effective_sample
    _, resid, sq, s2, h, z, chol, half, quad = _forward(system, mean, params)
    nu = params.nu[:, None]
    # (T, P, n) arrays stay C-ordered, so each recursion step is one contiguous
    # row, and each is dropped once spent: a Jacobian's stack has P = 2k rows
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        try:
            weight = (nu + n) / (nu - 2.0 + quad)  # -2 dl_t/dq_t
            u = np.linalg.solve(chol.swapaxes(1, 2), half)  # correlation^-1 z
            del half
            u = np.ascontiguousarray(u.transpose(2, 0, 1))
            weighted = np.ascontiguousarray(weight.T)[:, :, None] * u
            # dL/dR = (sum_t w_t u_t u_t' - T R^-1) / 2, chained through R = C C'
            # and C's rows c_i = l_i / |l_i|, where 1 / |l_i| = c_ii
            corr_bar = 0.5 * (weighted.transpose(1, 2, 0) @ u.transpose(1, 0, 2)
                              - t_eff * np.linalg.inv(params.correlation))
            del u
            lam = weighted * z  # dl/dh_t for h_t alone, then dL/dh_t through every later h
            del z
            lam -= 1.0
            lam /= 2.0 * h
            lam = _linear_recursion(lam[::-1], params.beta)[::-1]
            resid_bar = weighted  # dl/de through z only
            resid_bar /= -np.sqrt(h)
            omega_bar = lam.sum(axis=0)
            alpha_bar = np.sum(lam[1:] * sq[:-1], axis=0) + lam[0] * s2
            del sq
            beta_bar = np.sum(lam[1:] * h[:-1], axis=0) + lam[0] * s2
            del h
            # the recursion's alpha e_t^2 and the presample variance's mean square
            lagged = lam[1:] * resid[:-1]
            lagged *= 2.0 * params.alpha
            resid_bar[:-1] += lagged
            del lagged
            resid *= 2.0 * (params.alpha + params.beta) * lam[0] / t_eff
            resid_bar += resid
            del resid, lam
            # each equation's columns against its own column of resid_bar
            mean_bar = -np.concatenate([system.design[:, sl].T @ resid_bar[:, :, i]
                                        for i, sl in enumerate(system.slices)]).T
            chol_bar = 2.0 * corr_bar @ chol
            chol_bar -= np.sum(chol_bar * chol, axis=2)[:, :, None] * chol
            diag = np.diagonal(chol, axis1=1, axis2=2)[:, :, None]
            lower_bar = (chol_bar * diag)[:, np.tri(n, k=-1, dtype=bool)]
            nu_bar = 0.5 * np.sum(
                _psi_gap(params.nu, n)[:, None] - n / (nu - 2.0) - np.log1p(quad / (nu - 2.0))
                + weight * quad / (nu - 2.0), axis=1
            )
        except (FloatingPointError, np.linalg.LinAlgError) as exc:
            raise LikelihoodError(f"score evaluation failed: {exc}") from None
    # Jacobians of the exp and sigmoid transforms
    score = np.concatenate([
        mean_bar,
        omega_bar * params.omega,
        (alpha_bar * share + beta_bar * (1.0 - share)) * persistence * (1.0 - persistence),
        (alpha_bar - beta_bar) * persistence * share * (1.0 - share),
        lower_bar,
        (nu_bar * (params.nu - 2.0))[:, None],
    ], axis=1)
    return score if stack.ndim == 2 else score[0]


# ---------------------------------------------------------------------------
# estimation
# ---------------------------------------------------------------------------


def _negative_loglik(theta: np.ndarray, system: SureSystem) -> float:
    """The fit's objective, -garch_t_loglik at constrain_params(theta) on the
    score's forward pass; +inf where the likelihood or a transform fails, and
    where a persistence or share logit passes _LOGIT_LIMIT."""
    k_mean, n = system.n_coefficients, system.n_equations
    _, _, persistence, share, _, _ = _blocks(theta, k_mean, n)
    if np.max(np.abs(np.concatenate([persistence, share]))) > _LOGIT_LIMIT:
        return np.inf
    try:
        mean, params, _, _ = _constrained(theta[None], k_mean, n)
        return -float(_forward(system, mean, params).value[0])
    except (LikelihoodError, ArithmeticError):
        return np.inf


def _initial_spec(resid: np.ndarray) -> GarchSpec:
    n = resid.shape[1]
    s2 = np.mean(resid**2, axis=0)
    alpha0, beta0 = 0.05, 0.80
    corr = np.corrcoef(resid, rowvar=False)
    corr = np.atleast_2d(corr)
    # shrink toward identity so the starting point is safely interior
    corr = 0.9 * corr + 0.1 * np.eye(n)
    return GarchSpec(
        omega=s2 * (1.0 - alpha0 - beta0),
        alpha=np.full(n, alpha0),
        beta=np.full(n, beta0),
        correlation=corr,
        nu=8.0,
    )


def fit_sure_garch_t(
    system: SureSystem, init: Optional[CoefficientEstimate] = None
) -> GarchFit:
    """Maximize the GARCH-t likelihood over transformed parameters.

    Mean coefficients start from FGLS (or the supplied estimate); variance
    parameters start from moment-based values.  One `minimize_bfgs` call,
    at most optim.BFGS_MAX_ITER iterations, returns the observed information
    as its Hessian: central differences of the score.
    The objective runs the score's forward pass on a one-row stack and is
    +inf once a persistence or share logit passes +-_LOGIT_LIMIT, so the fit
    stops short of a boundary (alpha or beta = 0, alpha + beta = 1) instead
    of saturating the map.  The correlation is C C' with C's rows those of a
    unit-lower-triangular matrix scaled to unit length, so its coordinates
    need no guard.
    The reported covariance of the mean coefficients is the corresponding
    block of the inverse information at the returned point.
    """
    if system.stack_shape:
        raise ValueError(f"fit_sure_garch_t fits one system, not a stack of shape "
                         f"{system.stack_shape}")
    base = init if init is not None else fgls_fit(system)
    k_mean = system.n_coefficients
    n = system.n_equations
    theta0 = unconstrain_params(base.coefficients, _initial_spec(base.residuals))
    if system.effective_sample < 10 * theta0.size:
        warnings.warn(
            f"effective sample {system.effective_sample} is below 10x the "
            f"{theta0.size} free parameters; estimates may be unstable",
            stacklevel=2,
        )

    def objective(theta: np.ndarray) -> float:
        return _negative_loglik(theta, system)

    def gradient(theta: np.ndarray) -> np.ndarray:
        return -garch_t_score(theta, system)

    result = minimize_bfgs(objective, gradient, theta0)
    mean_hat, spec_hat = constrain_params(result.x, k_mean, n)
    try:
        info_inv = np.linalg.inv(result.hessian)
    except np.linalg.LinAlgError:
        raise SingularityError("observed information matrix is not invertible; "
                               f"the fit stopped on: {result.message}") from None
    mean_cov = info_inv[:k_mean, :k_mean]
    mean_estimate = CoefficientEstimate(
        coefficients=mean_hat,
        covariance=mean_cov,
        omega=spec_hat.unconditional_covariance(),
        residuals=system.residuals(mean_hat),
        estimator="garch_t",
        iterations=result.iterations,
        converged=result.converged,
    )
    return GarchFit(
        mean=mean_estimate,
        garch=spec_hat,
        loglik=-result.fun,
        information=result.hessian,
        gradient_max=float(np.max(np.abs(result.gradient))),
        stop=result.message,
        n_evals=result.n_evals,
        n_gradients=result.n_gradients,
        trace=tuple(-f for f in result.f_trace),
    )


# ---------------------------------------------------------------------------
# simulation and diagnostics
# ---------------------------------------------------------------------------


def simulate_ccc_garch_t(spec: GarchSpec, t_obs: int, seed) -> np.ndarray:
    """Draw t_obs innovation vectors from the CCC-GARCH(1,1)-t process.

    Shocks are standardized multivariate t (unit variances, covariance equal
    to the correlation matrix); the recursion starts from the unconditional
    variance.  Deterministic given the seed.
    """
    if t_obs < 1:
        raise ValueError("t_obs must be >= 1")
    rng = np.random.default_rng(seed)
    n = spec.n
    chol = np.linalg.cholesky(spec.correlation)
    gaussian = rng.standard_normal((t_obs, n)) @ chol.T
    mixing = rng.chisquare(spec.nu, size=t_obs)
    shocks = gaussian * np.sqrt(spec.nu / mixing)[:, None]
    shocks *= math.sqrt((spec.nu - 2.0) / spec.nu)  # unit-variance scaling
    h = np.empty((t_obs, n))
    h[0] = spec.omega / (1.0 - spec.alpha - spec.beta)
    eps = np.empty((t_obs, n))
    eps[0] = np.sqrt(h[0]) * shocks[0]
    for t in range(1, t_obs):
        h[t] = spec.omega + spec.alpha * eps[t - 1] ** 2 + spec.beta * h[t - 1]
        eps[t] = np.sqrt(h[t]) * shocks[t]
    return eps


def arch_lm_diag(residuals: np.ndarray, lags: int = 1) -> ArchLmResult:
    """Multivariate ARCH LM diagnostic on (T, n) residuals.

    Regresses the vectorized outer products of the demeaned residuals on
    their own lags and measures the explained variation; the statistic is
    asymptotically chi-square under conditional homoskedasticity.  Advisory:
    the CLI uses it to pick between FGLS and the GARCH-t estimator.
    """
    if lags < 1:
        raise ValueError("lags must be >= 1")
    u = np.asarray(residuals, dtype=float)
    if u.ndim != 2:
        raise ValueError("residuals must be a (T, n) array")
    t_obs, n = u.shape
    u = u - u.mean(axis=0)
    rows, cols = np.tril_indices(n)
    v = u[:, rows] * u[:, cols]  # T x n(n+1)/2 outer-product terms
    m = v.shape[1]
    t_aux = t_obs - lags
    if t_aux <= 1 + lags * m:
        raise InsufficientDataError(
            f"{t_obs} observations are too few for the ARCH regression with "
            f"{lags} lag(s) of {m} outer-product terms"
        )
    y = v[lags:]
    x = _lagged_design(v, lags, lags)
    centered = y - y.mean(axis=0)
    omega_null = centered.T @ centered / t_aux
    try:
        chol = np.linalg.cholesky(omega_null)
    except np.linalg.LinAlgError:
        raise SingularityError(
            "outer-product residual terms are degenerate (constant residuals?)"
        ) from None
    coef, *_ = np.linalg.lstsq(x, y, rcond=None)
    fitted_resid = y - x @ coef
    # tr(omega_null^-1 omega_fit), whitened by the Cholesky factor as in wald_test
    trace = float(np.sum(np.linalg.solve(chol, fitted_resid.T) ** 2)) / t_aux
    r2_multivariate = 1.0 - trace / m
    statistic = t_aux * m * r2_multivariate
    dof = lags * m * m
    return ArchLmResult(
        statistic=float(statistic), dof=int(dof), p_value=chisq_sf(max(statistic, 0.0), dof)
    )
