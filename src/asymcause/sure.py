"""Block seemingly-unrelated-regression system for signed components.

Positive components are regressed only on lagged positive components and
negative components only on lagged negative ones (the zero blocks of the
system matrix), with an intercept per equation.  Unit roots are handled by
appending extra unrestricted lags; estimation is per-equation OLS or iterated
feasible GLS exploiting the cross-equation error covariance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    """Stacked block system: (n, T) ``targets`` (row i: equation i's regressand)
    and (T, k) ``design`` (column j: coefficient j's regressor).

    Equation i is the i-th run of equal (eq_var, eq_sign) in the layout, and
    ``slices`` and ``equation_index`` map the coefficients to those runs.
    With X_i = design[:, slices[i]], block (i, j) of the k x k ``gram`` is
    X_i'X_j and of the k x n ``xty`` is X_i'y_j, formed once at construction.
    """

    targets: np.ndarray
    design: np.ndarray
    layout: tuple[LayoutEntry, ...]
    variable_names: tuple[str, ...] = ()
    slices: tuple[slice, ...] = field(init=False, compare=False, repr=False)
    equation_index: np.ndarray = field(init=False, compare=False, repr=False)
    gram: np.ndarray = field(init=False, compare=False, repr=False)
    xty: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # C-ordered, so each regressand is a contiguous row: as strided columns
        # of a (T, n) array, X_i'y_j rounds differently and moves the estimates
        targets = np.ascontiguousarray(self.targets, dtype=float)
        design = np.ascontiguousarray(self.design, dtype=float)
        keys = [(e.eq_var, e.eq_sign) for e in self.layout]
        starts = [j for j, key in enumerate(keys) if j == 0 or key != keys[j - 1]]
        if design.shape != (targets.shape[-1], len(keys)):
            raise ValueError(f"design has shape {design.shape}, not (T, k) = "
                             f"{(targets.shape[-1], len(keys))} of the targets and layout")
        if len(set(keys)) != len(starts):
            raise ValueError("an equation's layout entries are split into more than one run")
        if targets.shape != (len(starts), len(design)):
            raise ValueError(f"targets have shape {targets.shape}, not (n, T) = "
                             f"{(len(starts), len(design))} of the layout and design")
        bounds = [*starts, len(keys)]
        slices = tuple(map(slice, bounds, bounds[1:]))
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "design", design)
        object.__setattr__(self, "layout", tuple(self.layout))
        object.__setattr__(self, "slices", slices)
        index = np.repeat(np.arange(len(starts)), np.diff(bounds))
        object.__setattr__(self, "equation_index", index)
        # block by block, each on a contiguous copy of its columns: on the stacked
        # design, or on a column view (X_i'y_j for X_i up to 3 columns wide,
        # X_i'X_j for 1 wide), a product rounds differently and moves the estimates
        xs = [np.ascontiguousarray(design[:, sl]) for sl in slices]
        object.__setattr__(self, "gram", np.block([[a.T @ b for b in xs] for a in xs]))
        xty = np.vstack([np.column_stack([x.T @ y for y in targets]) for x in xs])
        object.__setattr__(self, "xty", xty)

    @property
    def effective_sample(self) -> int:
        return self.targets.shape[1]

    @property
    def n_equations(self) -> int:
        return self.targets.shape[0]

    @property
    def n_coefficients(self) -> int:
        return len(self.layout)

    def residuals(self, coefficients: np.ndarray) -> np.ndarray:
        """Residuals of every equation: (T, n) at a (k,) coefficient vector,
        C-ordered (T, P, n) at a (P, k) stack of them."""
        # one matrix-vector product per equation and row: a stacked row equals its
        # (k,) call bit for bit, and a product of the whole design moves FGLS's bits
        stack = np.atleast_2d(coefficients)
        fitted = np.concatenate([self.design[:, sl] @ stack[:, sl, None]
                                 for sl in self.slices], axis=2)
        resid = np.subtract(self.targets.T[:, None], fitted.transpose(1, 0, 2), order="C")
        return resid if np.ndim(coefficients) == 2 else resid[:, 0]


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
    first: SignedComponents,
    second: SignedComponents,
    p_pos: int,
    p_neg: int,
    extra_lags: int = 1,
) -> SureSystem:
    """Assemble the four-equation block system of a decomposed pair.

    Equations 1 and 2 regress each positive component on lags
    1..p_pos+extra_lags of both positive components; equations 3 and 4 do the
    same for the negative components with p_neg.  Lags beyond the selected
    order are the unrestricted augmentation lags and are excluded from
    causality restrictions.
    """
    if p_pos < 1 or p_neg < 1:
        raise ValueError("lag orders must be >= 1")
    if extra_lags < 0:
        raise ValueError("extra_lags must be >= 0")
    n_obs = len(first)
    if len(second) != n_obs:
        raise ValueError("both components must have equal length")

    start = max(p_pos, p_neg) + extra_lags
    t_eff = n_obs - start
    names = (first.name or "var1", second.name or "var2")

    targets, blocks, layout = [], [], []
    for sign, depth, order in (("+", p_pos + extra_lags, p_pos),
                               ("-", p_neg + extra_lags, p_neg)):
        k_eq = 1 + 2 * depth
        if t_eff <= k_eq:
            raise InsufficientDataError(
                f"effective sample {t_eff} <= {k_eq} per-equation parameters "
                f"(length {n_obs}, lags {max(p_pos, p_neg)}+{extra_lags})"
            )
        data = [c.positive if sign == "+" else c.negative for c in (first, second)]
        design = _lagged_design(np.column_stack(data), start, depth)
        for eq_var, symbol in ((1, "beta"), (2, "gamma")):
            targets.append(data[eq_var - 1][start:])
            blocks.append(design)
            layout.append(
                LayoutEntry(f"lambda{sign}_{eq_var}", eq_var, sign, None, False)
            )
            layout.extend(
                LayoutEntry(f"{symbol}{sign}_{j},{lag}", eq_var, sign, j, lag <= order)
                for lag in range(1, depth + 1)
                for j in (1, 2)
            )

    return SureSystem(
        targets=np.stack(targets),
        design=np.hstack(blocks),
        layout=tuple(layout),
        variable_names=names,
    )


def lag_order_table(
    first: SignedComponents,
    second: SignedComponents,
    p_max: int,
    criterion: str = "sbc",
) -> dict:
    """Criterion values per candidate order for both sign blocks.

    Candidate VAR(p), p=1..p_max, is the first k = 1 + m*p columns of one
    design on the sample aligned at p_max.  With Q the reduced QR factor of
    that design, z = Q'y and e the p_max residual, its residual cross-product
    is e'e + sum_{j>=k} z_j z_j'.  A value is the log-determinant of the
    residual covariance plus a _PENALTIES term; "selected" holds the (P+, P-)
    pair minimizing each block's criterion.
    """
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion {criterion!r}; expected one of {CRITERIA}")
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    names = (first.name or "var1", second.name or "var2")
    blocks = np.stack([np.column_stack([first.positive, second.positive]),
                       np.column_stack([first.negative, second.negative])])
    n_obs, m = blocks.shape[1:]
    t_c, k_max = n_obs - p_max, 1 + m * p_max
    if t_c < k_max + m:
        raise InsufficientDataError(
            f"p_max={p_max} leaves {t_c} observations; lag selection needs "
            f"{k_max} parameters per equation plus {m} residual degrees of freedom"
        )
    y = blocks[:, p_max:]
    q, r = np.linalg.qr(np.stack([_lagged_design(b, p_max, p_max) for b in blocks]))
    # matrix_rank's default tolerance, applied to R's diagonal
    diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
    tol = diag.max(axis=1, keepdims=True) * max(t_c, k_max) * np.finfo(float).eps
    deficient = np.argwhere(diag < tol)
    if deficient.size:
        block, col = deficient[0]
        raise SingularityError(
            f"lag selection: the {('positive', 'negative')[block]} design is "
            f"rank-deficient at lag {(col + m - 1) // m} of {names[(col - 1) % m]!r} "
            "(a component may have zero stochastic variation)"
        )
    z = q.swapaxes(1, 2) @ y
    e = y - q @ z
    # entry k of the reverse cumulative sum: e'e + sum_{j>=k} z_j z_j'
    terms = [z[..., None] * z[..., None, :], (e.swapaxes(1, 2) @ e)[:, None]]
    cross = np.cumsum(np.concatenate(terms, axis=1)[:, ::-1], axis=1)[:, ::-1]
    sign, logdet = np.linalg.slogdet(cross[:, 1 + m : k_max + 1 : m] / t_c)
    if np.any(sign <= 0):
        raise SingularityError(
            "degenerate residual covariance in lag selection "
            "(a component may have zero stochastic variation)"
        )
    penalty = _PENALTIES[criterion](t_c) * m * (1 + m * np.arange(1, p_max + 1)) / t_c
    pos, neg = logdet + penalty
    return {
        "criterion": criterion,
        "positive": pos,
        "negative": neg,
        "selected": (int(np.argmin(pos)) + 1, int(np.argmin(neg)) + 1),
    }


def _dependent_column(x: np.ndarray) -> int:
    """The first column of x in the span of the columns before it, by
    matrix_rank's default tolerance on R's diagonal; else the weakest one."""
    diag = np.abs(np.diagonal(np.linalg.qr(x, mode="r")))
    below = np.flatnonzero(diag < diag.max() * max(x.shape) * np.finfo(float).eps)
    return int(below[0]) if below.size else int(np.argmin(diag))


def ols_fit(system: SureSystem) -> CoefficientEstimate:
    """Equation-by-equation least squares; consistent but not efficient."""
    coefs, gram_inv = [], np.zeros_like(system.gram)
    for i, sl in enumerate(system.slices):
        gram = system.gram[sl, sl]
        try:
            chol = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            entry, names = system.layout[sl.start], system.variable_names
            name = f" ({names[entry.eq_var - 1]})" if entry.eq_var <= len(names) else ""
            column = system.layout[sl.start + _dependent_column(system.design[:, sl])]
            if column.reg_var is None:
                regressor = "the intercept"
            elif column.reg_var <= len(names):
                regressor = f"a lag of {names[column.reg_var - 1]!r}"
            else:
                regressor = "a regressor"
            raise SingularityError(
                f"equation Z{entry.eq_sign}{entry.eq_var}{name}: design matrix "
                f"is rank-deficient at {column.name}, {regressor}"
            ) from None
        coefs.append(np.linalg.solve(gram, system.xty[sl, i]))
        inv_chol = np.linalg.solve(chol, np.eye(chol.shape[0]))
        gram_inv[sl, sl] = inv_chol.T @ inv_chol
    coefficients = np.concatenate(coefs)
    u = system.residuals(coefficients)
    omega = u.T @ u / system.effective_sample
    covariance = np.diag(omega)[system.equation_index, None] * gram_inv
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
