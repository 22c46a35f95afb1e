"""Block seemingly-unrelated-regression system for signed components.

Positive components are regressed only on lagged positive components and
negative components only on lagged negative ones (the zero blocks of the
system matrix), with an intercept per equation.  Unit roots are handled by
appending extra unrestricted lags; estimation is per-equation OLS or iterated
feasible GLS exploiting the cross-equation error covariance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Sequence

import numpy as np

from .decomposition import SignedComponents
from .errors import InsufficientDataError, NotPositiveDefiniteError, SingularityError

# per-parameter penalty of each lag-selection criterion at sample size t_c
_PENALTIES = {"aic": lambda t_c: 2.0, "sbc": np.log,
              "hq": lambda t_c: 2.0 * np.log(np.log(t_c))}
CRITERIA = tuple(_PENALTIES)
ESTIMATORS = ("ols", "fgls", "garch_t")
FGLS_TOL = 1e-8  # FGLS stops when no coefficient moves by this much ...
FGLS_MAX_ITER = 100  # ... or after this many GLS solves


def _slope_symbol(eq_var: int) -> str:
    # Variable 1's equations carry beta coefficients, variable 2's gamma;
    # higher dimensions get a generic theta<i>.
    if eq_var == 1:
        return "beta"
    if eq_var == 2:
        return "gamma"
    return f"theta{eq_var}"


@dataclass(frozen=True)
class LayoutEntry:
    """One coefficient slot: its name, its equation and its regressor."""

    name: str
    eq_var: int  # 1-based variable of the dependent component
    eq_sign: str  # "+" or "-"
    reg_var: int | None  # 1-based regressor variable, None for the intercept
    restricted: bool  # True for lags 1..P, False for intercept and extra lags

    @property
    def causal(self) -> bool:
        """A restricted lag of the other variable of the pair 1, 2: a
        coefficient that the no-causality and symmetry nulls restrict."""
        return self.restricted and self.reg_var == 3 - self.eq_var


@dataclass(frozen=True)
class SureSystem:
    """Stacked block design: regressand and design matrix per equation.

    Also holds the per-block cross-products, formed once at construction:
    block (i, j) of the k x k ``gram`` is X_i'X_j and of the k x n ``xty``
    is X_i'y_j.  ``slices`` and ``equation_index`` map the stacked
    coefficients to their equations.  Every equation has the same rows.
    """

    regressands: tuple[np.ndarray, ...]
    regressors: tuple[np.ndarray, ...]
    layout: tuple[LayoutEntry, ...]
    variable_names: tuple[str, ...] = ()
    slices: tuple[slice, ...] = field(init=False, compare=False, repr=False)
    equation_index: np.ndarray = field(init=False, compare=False, repr=False)
    gram: np.ndarray = field(init=False, compare=False, repr=False)
    xty: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        ys = tuple(np.asarray(y, dtype=float) for y in self.regressands)
        xs = tuple(np.asarray(x, dtype=float) for x in self.regressors)
        if len(ys) != len(xs):
            raise ValueError("regressands and regressors count mismatch")
        for i, (y, x) in enumerate(zip(ys, xs)):
            if y.shape != (len(ys[0]),):
                raise ValueError(f"equation {i}: regressand is not a vector of "
                                 f"{len(ys[0])} rows like equation 0's")
            if x.shape[0] != len(y):
                raise ValueError(f"equation {i}: design rows != regressand rows")
        widths = [x.shape[1] for x in xs]
        if sum(widths) != len(self.layout):
            raise ValueError("layout size does not match total coefficient count")
        bounds = [0, *accumulate(widths)]
        object.__setattr__(self, "regressands", ys)
        object.__setattr__(self, "regressors", xs)
        object.__setattr__(self, "layout", tuple(self.layout))
        object.__setattr__(self, "slices", tuple(map(slice, bounds, bounds[1:])))
        object.__setattr__(self, "equation_index", np.repeat(np.arange(len(xs)), widths))
        # formed block by block: on ill-conditioned systems a single product
        # of the stacked design rounds differently and moves the estimates
        object.__setattr__(self, "gram", np.block([[a.T @ b for b in xs] for a in xs]))
        xty = np.vstack([np.column_stack([x.T @ y for y in ys]) for x in xs])
        object.__setattr__(self, "xty", xty)

    @property
    def effective_sample(self) -> int:
        return len(self.regressands[0])

    @property
    def n_equations(self) -> int:
        return len(self.regressands)

    @property
    def n_coefficients(self) -> int:
        return len(self.layout)

    def residuals(self, coefficients: np.ndarray) -> np.ndarray:
        """(T, n) residuals of every equation at a stacked coefficient vector."""
        return np.column_stack(
            [
                y - x @ coefficients[sl]
                for y, x, sl in zip(self.regressands, self.regressors, self.slices)
            ]
        )


@dataclass(frozen=True)
class CoefficientEstimate:
    """Stacked coefficient vector with its covariance and residual moments."""

    coefficients: np.ndarray
    covariance: np.ndarray
    omega: np.ndarray
    residuals: np.ndarray  # (T, n), one column per equation
    estimator: str
    iterations: int = 1
    converged: bool = True

    def __post_init__(self):
        coef = np.asarray(self.coefficients, dtype=float)
        cov = np.asarray(self.covariance, dtype=float)
        omega = np.asarray(self.omega, dtype=float)
        residuals = np.asarray(self.residuals, dtype=float)
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"unknown estimator tag {self.estimator!r}")
        if cov.shape != (coef.size, coef.size):
            raise ValueError("covariance shape does not match coefficient count")
        if residuals.ndim != 2:
            raise ValueError("residuals must be a (T, n) array")
        if omega.shape != (residuals.shape[1], residuals.shape[1]):
            raise ValueError("omega shape does not match equation count")
        object.__setattr__(self, "coefficients", coef)
        object.__setattr__(self, "covariance", (cov + cov.T) / 2.0)
        object.__setattr__(self, "omega", (omega + omega.T) / 2.0)
        object.__setattr__(self, "residuals", residuals)


def _lagged_design(block: np.ndarray, start: int, depth: int) -> np.ndarray:
    """[1, block lag 1, ..., block lag depth] for rows start.. of a (T, m) block."""
    n_obs = block.shape[0]
    return np.column_stack(
        [np.ones(n_obs - start)]
        + [block[start - lag : n_obs - lag] for lag in range(1, depth + 1)]
    )


def build_design(
    components: Sequence[SignedComponents],
    p_pos: int,
    p_neg: int,
    extra_lags: int = 1,
) -> SureSystem:
    """Assemble the 2m-equation block system from m decomposed variables.

    Equations 1..m regress each positive component on lags 1..p_pos+extra_lags
    of all positive components; equations m+1..2m do the same for the negative
    components with p_neg.  Lags beyond the selected order are the unrestricted
    augmentation lags and are excluded from causality restrictions.
    """
    if p_pos < 1 or p_neg < 1:
        raise ValueError("lag orders must be >= 1")
    if extra_lags < 0:
        raise ValueError("extra_lags must be >= 0")
    m = len(components)
    if m < 1:
        raise ValueError("need at least one decomposed variable")
    n_obs = len(components[0])
    if any(len(c) != n_obs for c in components):
        raise ValueError("all components must have equal length")

    start = max(p_pos, p_neg) + extra_lags
    t_eff = n_obs - start
    names = tuple(c.name or f"var{i + 1}" for i, c in enumerate(components))

    regressands: list[np.ndarray] = []
    regressors: list[np.ndarray] = []
    layout: list[LayoutEntry] = []
    for sign, depth, order in (("+", p_pos + extra_lags, p_pos),
                               ("-", p_neg + extra_lags, p_neg)):
        k_eq = 1 + m * depth
        if t_eff <= k_eq:
            raise InsufficientDataError(
                f"effective sample {t_eff} <= {k_eq} per-equation parameters "
                f"(length {n_obs}, lags {max(p_pos, p_neg)}+{extra_lags})"
            )
        data = [c.positive if sign == "+" else c.negative for c in components]
        design = _lagged_design(np.column_stack(data), start, depth)
        for i in range(m):
            eq_var = i + 1
            symbol = _slope_symbol(eq_var)
            regressands.append(data[i][start:])
            # one array per equation: when two equations share one, numpy
            # forms X_i'X_j by syrk instead of gemm, which rounds differently
            regressors.append(design.copy())
            layout.append(
                LayoutEntry(f"lambda{sign}_{eq_var}", eq_var, sign, None, False)
            )
            layout.extend(
                LayoutEntry(
                    f"{symbol}{sign}_{j + 1},{lag}", eq_var, sign, j + 1, lag <= order
                )
                for lag in range(1, depth + 1)
                for j in range(m)
            )

    return SureSystem(
        regressands=tuple(regressands),
        regressors=tuple(regressors),
        layout=tuple(layout),
        variable_names=names,
    )


def _block_criterion_values(
    block: np.ndarray, p_max: int, criterion: str
) -> np.ndarray:
    """Information-criterion value of a VAR(p) on one sign block, p=1..p_max.

    All candidates are fitted on the sample aligned at p_max, as the first
    1 + m*p columns of one design, so the values are comparable; the criterion
    is the log-determinant of the residual covariance plus a _PENALTIES term.
    """
    n_obs, m = block.shape
    t_c = n_obs - p_max
    if t_c <= 1 + m * p_max:
        raise InsufficientDataError(
            f"p_max={p_max} leaves {t_c} observations for up to "
            f"{1 + m * p_max} parameters per equation"
        )
    y = block[p_max:]
    design = _lagged_design(block, p_max, p_max)
    penalty = _PENALTIES[criterion](t_c)
    values = np.empty(p_max)
    for p in range(1, p_max + 1):
        x = design[:, : 1 + m * p]
        coef, *_ = np.linalg.lstsq(x, y, rcond=None)
        resid = y - x @ coef
        sign, logdet = np.linalg.slogdet(resid.T @ resid / t_c)
        if sign <= 0:
            raise SingularityError(
                "degenerate residual covariance in lag selection "
                "(a component may have zero stochastic variation)"
            )
        values[p - 1] = logdet + penalty * (m * (1 + m * p)) / t_c
    return values


def lag_order_table(
    components: Sequence[SignedComponents], p_max: int, criterion: str = "sbc"
) -> dict:
    """Criterion values per candidate order for both sign blocks.

    "selected" holds the (P+, P-) pair minimizing each block's criterion.
    """
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion {criterion!r}; expected one of {CRITERIA}")
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    pos = _block_criterion_values(
        np.column_stack([c.positive for c in components]), p_max, criterion
    )
    neg = _block_criterion_values(
        np.column_stack([c.negative for c in components]), p_max, criterion
    )
    return {
        "criterion": criterion,
        "positive": pos,
        "negative": neg,
        "selected": (int(np.argmin(pos)) + 1, int(np.argmin(neg)) + 1),
    }


def ols_fit(system: SureSystem) -> CoefficientEstimate:
    """Equation-by-equation least squares; consistent but not efficient."""
    coefs, gram_invs = [], []
    for i, sl in enumerate(system.slices):
        gram = system.gram[sl, sl]
        try:
            chol = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            entry, names = system.layout[sl.start], system.variable_names
            name = f" ({names[entry.eq_var - 1]})" if entry.eq_var <= len(names) else ""
            raise SingularityError(
                f"equation Z{entry.eq_sign}{entry.eq_var}{name}: design matrix "
                "is rank-deficient"
            ) from None
        coefs.append(np.linalg.solve(gram, system.xty[sl, i]))
        inv_chol = np.linalg.solve(chol, np.eye(chol.shape[0]))
        gram_invs.append(inv_chol.T @ inv_chol)
    coefficients = np.concatenate(coefs)
    u = system.residuals(coefficients)
    omega = u.T @ u / system.effective_sample
    covariance = np.zeros((coefficients.size, coefficients.size))
    for i, sl in enumerate(system.slices):
        covariance[sl, sl] = omega[i, i] * gram_invs[i]
    return CoefficientEstimate(
        coefficients=coefficients,
        covariance=covariance,
        omega=omega,
        residuals=u,
        estimator="ols",
    )


def gls_solve(
    system: SureSystem, omega: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One generalized least squares solve for a given error covariance.

    Returns the stacked coefficient vector and its covariance
    [Z'(omega^-1 (x) I)Z]^-1, weighting the system's cached cross-product
    blocks by the matching entries of omega^-1.
    """
    omega = np.asarray(omega, dtype=float)
    n = system.n_equations
    if omega.shape != (n, n):
        raise ValueError("omega shape does not match equation count")
    try:
        weight = np.linalg.inv(np.linalg.cholesky(omega))
        weight = weight.T @ weight  # omega^-1 via its Cholesky factor
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(
            "residual covariance is not positive definite"
        ) from None
    rows = weight[system.equation_index]
    a = system.gram * rows[:, system.equation_index]
    b = (system.xty * rows).sum(axis=1)
    try:
        coef = np.linalg.solve(a, b)
        cov = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        raise SingularityError("stacked GLS system is singular") from None
    return coef, (cov + cov.T) / 2.0


def fgls_fit(system: SureSystem) -> CoefficientEstimate:
    """Iterated feasible GLS: alternate the error covariance and the GLS solve.

    Starts from the OLS residual covariance and stops when the largest
    coefficient change drops below FGLS_TOL; the reported covariance uses the
    covariance matrix from the final solve.
    """
    ols = ols_fit(system)
    previous, omega = ols.coefficients, ols.omega
    for iterations in range(1, FGLS_MAX_ITER + 1):
        coef, cov = gls_solve(system, omega)
        u = system.residuals(coef)
        converged = bool(np.max(np.abs(coef - previous)) < FGLS_TOL)
        if converged or iterations == FGLS_MAX_ITER:
            break
        previous, omega = coef, u.T @ u / system.effective_sample
    return CoefficientEstimate(
        coefficients=coef,
        covariance=cov,
        omega=omega,
        residuals=u,
        estimator="fgls",
        iterations=iterations,
        converged=converged,
    )
