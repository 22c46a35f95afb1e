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
from .optim import central_hessian, minimize_bfgs
from .sure import CoefficientEstimate, SureSystem, _lagged_design, fgls_fit
from .wald import chisq_sf

_INTERIOR = 1e-12  # probabilities are clipped into the open unit interval


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
    trace: tuple[float, ...] = ()  # log-likelihood at accepted iterates

    def __post_init__(self):
        if not np.isfinite(self.loglik):
            raise ValueError("log-likelihood must be finite")
        info = np.asarray(self.information, dtype=float)
        object.__setattr__(self, "information", (info + info.T) / 2.0)


class ArchLmResult(NamedTuple):
    statistic: float
    dof: int
    p_value: float


# ---------------------------------------------------------------------------
# parameter transforms (unconstrained <-> constrained)
# ---------------------------------------------------------------------------


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _logit(p: np.ndarray) -> np.ndarray:
    p = np.clip(np.asarray(p, dtype=float), _INTERIOR, 1.0 - _INTERIOR)
    return np.log(p) - np.log1p(-p)


def _angles_to_cholesky(angles: np.ndarray, n: int) -> np.ndarray:
    chol = np.zeros((n, n))
    chol[0, 0] = 1.0
    idx = 0
    for i in range(1, n):
        remaining = 1.0
        for j in range(i):
            theta = angles[idx]
            idx += 1
            chol[i, j] = math.cos(theta) * remaining
            remaining *= math.sin(theta)
        chol[i, i] = remaining
    return chol


def _correlation_to_angles(corr: np.ndarray) -> np.ndarray:
    n = corr.shape[0]
    chol = np.linalg.cholesky(corr)
    angles = np.empty(n * (n - 1) // 2)
    idx = 0
    for i in range(1, n):
        remaining = 1.0
        for j in range(i):
            cosine = np.clip(chol[i, j] / remaining, -1.0, 1.0)
            theta = math.acos(cosine)
            angles[idx] = theta
            idx += 1
            remaining *= math.sin(theta)
    return angles


def constrain_params(
    theta: np.ndarray, k_mean: int, n: int
) -> tuple[np.ndarray, GarchSpec]:
    """Map the unconstrained optimizer vector to (mean coefficients, GarchSpec)."""
    theta = np.asarray(theta, dtype=float)
    expected = k_mean + 3 * n + n * (n - 1) // 2 + 1
    if theta.size != expected:
        raise ValueError(f"parameter vector has {theta.size} entries, need {expected}")
    pos = k_mean
    mean = theta[:pos]
    omega = np.exp(theta[pos : pos + n])
    pos += n
    persistence = _sigmoid(theta[pos : pos + n])
    pos += n
    share = _sigmoid(theta[pos : pos + n])
    pos += n
    alpha = persistence * share
    beta = persistence * (1.0 - share)
    n_angles = n * (n - 1) // 2
    angles = math.pi * _sigmoid(theta[pos : pos + n_angles])
    pos += n_angles
    chol = _angles_to_cholesky(angles, n)
    corr = chol @ chol.T
    np.fill_diagonal(corr, 1.0)
    nu = 2.0 + math.exp(theta[pos])
    return mean.copy(), GarchSpec(omega=omega, alpha=alpha, beta=beta,
                                  correlation=corr, nu=nu)


def unconstrain_params(mean: np.ndarray, spec: GarchSpec) -> np.ndarray:
    """Inverse of constrain_params; requires interior alpha/beta/correlation."""
    persistence = spec.alpha + spec.beta
    with np.errstate(divide="ignore", invalid="ignore"):
        share = np.where(persistence > 0, spec.alpha / np.maximum(persistence, _INTERIOR), 0.5)
    angles = _correlation_to_angles(spec.correlation)
    return np.concatenate(
        [
            np.asarray(mean, dtype=float),
            np.log(spec.omega),
            _logit(persistence),
            _logit(share),
            _logit(angles / math.pi),
            [math.log(spec.nu - 2.0)],
        ]
    )


# ---------------------------------------------------------------------------
# likelihood
# ---------------------------------------------------------------------------


def _conditional_variances(resid: np.ndarray, spec: GarchSpec) -> np.ndarray:
    """GARCH(1,1) recursion per equation.

    Presample squared shock and variance are both set to the sample mean
    square of each equation's residuals, so h_0 = omega + (alpha+beta)*s2
    and the recursion needs no presample observations.
    """
    t_eff, n = resid.shape
    s2 = np.mean(resid**2, axis=0)
    h = np.empty((t_eff, n))
    h[0] = spec.omega + (spec.alpha + spec.beta) * s2
    sq = resid**2
    for t in range(1, t_eff):
        h[t] = spec.omega + spec.alpha * sq[t - 1] + spec.beta * h[t - 1]
    return h


def garch_t_loglik(
    coefficients: np.ndarray, spec: GarchSpec, system: SureSystem
) -> float:
    """Joint log-likelihood of mean coefficients and GARCH-t parameters.

    The conditional covariance is H_t = D_t * correlation * D_t with D_t the
    diagonal of conditional standard deviations; the multivariate t density is
    scaled by (nu-2)/nu so H_t is the actual conditional covariance.
    """
    n = spec.n
    if system.n_equations != n:
        raise ValueError("GarchSpec dimension does not match the system")
    resid = system.residuals(np.asarray(coefficients, dtype=float))
    t_eff = resid.shape[0]
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        try:
            h = _conditional_variances(resid, spec)
            if np.any(~np.isfinite(h)) or np.any(h <= 0):
                raise LikelihoodError("conditional variances are not positive finite")
            std_resid = resid / np.sqrt(h)
            chol = np.linalg.cholesky(spec.correlation)
            half = np.linalg.solve(chol, std_resid.T)
            quad = np.sum(half**2, axis=0)
            logdet_corr = 2.0 * np.sum(np.log(np.diag(chol)))
            logdet_h = logdet_corr + np.sum(np.log(h), axis=1)
            nu = spec.nu
            scale = (nu - 2.0) / nu  # scale matrix S_t = scale * H_t
            const = (
                math.lgamma((nu + n) / 2.0)
                - math.lgamma(nu / 2.0)
                - 0.5 * n * math.log(nu * math.pi)
            )
            terms = (
                const
                - 0.5 * (logdet_h + n * math.log(scale))
                - 0.5 * (nu + n) * np.log1p(quad / scale / nu)
            )
            value = float(np.sum(terms))
        except (FloatingPointError, np.linalg.LinAlgError) as exc:
            raise LikelihoodError(f"log-likelihood evaluation failed: {exc}") from None
    if not np.isfinite(value):
        raise LikelihoodError("log-likelihood is not finite")
    return value


# ---------------------------------------------------------------------------
# estimation
# ---------------------------------------------------------------------------


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
    system: SureSystem,
    init: Optional[CoefficientEstimate] = None,
    max_iter: int = 500,
) -> GarchFit:
    """Maximize the GARCH-t likelihood over transformed parameters.

    Mean coefficients start from FGLS (or the supplied estimate); variance
    parameters start from moment-based values.  The reported covariance of
    the mean coefficients is the corresponding block of the inverse observed
    information (negative numerical Hessian of the log-likelihood).
    """
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
        try:
            mean, spec = constrain_params(theta, k_mean, n)
            return -garch_t_loglik(mean, spec, system)
        except (LikelihoodError, OverflowError, ValueError):
            return np.inf

    result = minimize_bfgs(objective, theta0, max_iter=max_iter)
    mean_hat, spec_hat = constrain_params(result.x, k_mean, n)
    information = central_hessian(objective, result.x)
    try:
        info_inv = np.linalg.inv(information)
    except np.linalg.LinAlgError:
        raise SingularityError(
            "observed information matrix is not invertible"
        ) from None
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
        information=information,
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
