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
from .errors import (DataError, InsufficientDataError, NotPositiveDefiniteError,
                     SingularityError)

# per-parameter penalty of each lag-selection criterion at sample size t_c
_PENALTIES = {"aic": lambda t_c: 2.0, "sbc": np.log,
              "hq": lambda t_c: 2.0 * np.log(np.log(t_c)),
              "hjc": lambda t_c: (np.log(t_c) + 2.0 * np.log(np.log(t_c))) / 2.0}
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


def _assemble(blocks: list[list[np.ndarray]]) -> np.ndarray:
    """np.block of a nested list of (stacked) matrices, without its overhead."""
    return np.concatenate([np.concatenate(row, axis=-1) for row in blocks], axis=-2)


@dataclass(frozen=True)
class SureSystem:
    """Stacked block system: (n, T) ``targets`` (row i: equation i's regressand)
    and (T, k) ``design`` (column j: coefficient j's regressor).

    Equation i is the i-th run of equal (eq_var, eq_sign) in the layout, and
    ``slices`` and ``equation_index`` map the coefficients to those runs.
    With X_i = design[:, slices[i]], block (i, j) of the k x k ``gram`` is
    X_i'X_j and of the k x n ``xty`` is X_i'y_j, formed once at construction.

    Targets (B, n, T) and design (B, T, k) are a stack of B systems on one
    layout, such as a block of Monte-Carlo replications; every array then
    carries the same leading axis, and each system's values are those it has
    on its own.
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
        stack, t_obs = targets.shape[:-2], targets.shape[-1]
        if design.shape != (*stack, t_obs, len(keys)):
            raise ValueError(f"design has shape {design.shape}, not (T, k) = "
                             f"{(*stack, t_obs, len(keys))} of the targets and layout")
        if len(set(keys)) != len(starts):
            raise ValueError("an equation's layout entries are split into more than one run")
        if targets.shape != (*stack, len(starts), t_obs):
            raise ValueError(f"targets have shape {targets.shape}, not (n, T) = "
                             f"{(len(starts), t_obs)} of the layout and design")
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
        # X_i'X_j for 1 wide), a product rounds differently and moves the estimates.
        # A stacked product runs the same BLAS call on each system of the stack.
        xs = [np.ascontiguousarray(design[..., sl]) for sl in slices]
        ys = [y[..., None] for y in np.moveaxis(targets, -2, 0)]
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            gram = _assemble([[a.swapaxes(-1, -2) @ b for b in xs] for a in xs])
            xty = _assemble([[x.swapaxes(-1, -2) @ y for y in ys] for x in xs])
        if not (np.isfinite(gram).all() and np.isfinite(xty).all()):
            raise DataError("the data are too large: their cross products overflow "
                            "double precision; rescale them, for example with --log")
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "xty", xty)

    @property
    def effective_sample(self) -> int:
        return self.targets.shape[-1]

    @property
    def n_equations(self) -> int:
        return self.targets.shape[-2]

    @property
    def n_coefficients(self) -> int:
        return len(self.layout)

    @property
    def stack_shape(self) -> tuple[int, ...]:
        """The leading axes of a stack of systems; () for one system."""
        return self.targets.shape[:-2]

    def residuals(self, coefficients: np.ndarray) -> np.ndarray:
        """Residuals of every equation: (..., T, n) at (..., k) coefficients, one
        vector per system of the stack, and C-ordered (..., T, P, n) at a
        (..., P, k) stack of P vectors per system."""
        # one matrix-vector product per equation and row: a stacked row equals its
        # (k,) call bit for bit, and a product of the whole design moves FGLS's bits
        coefficients = np.asarray(coefficients)
        rows = coefficients.ndim == len(self.stack_shape) + 2
        stack = coefficients if rows else coefficients[..., None, :]
        fitted = np.concatenate([self.design[..., None, :, sl] @ stack[..., sl, None]
                                 for sl in self.slices], axis=-1)
        resid = np.subtract(self.targets.swapaxes(-1, -2)[..., None, :],
                            fitted.swapaxes(-2, -3), order="C")
        return resid if rows else resid[..., 0, :]


@dataclass(frozen=True)
class CoefficientEstimate:
    """Stacked coefficient vector with its covariance and residual moments.

    The estimate of a stack of systems carries the stack's leading axes on
    every array and takes one ``iterations`` count and ``converged`` flag per
    system: it keeps the counts in ``iteration_counts`` and reports their
    largest, the GLS solves the stack ran, as ``iterations``.
    """

    coefficients: np.ndarray  # (k,)
    covariance: np.ndarray  # (k, k)
    omega: np.ndarray  # (n, n)
    residuals: np.ndarray  # (T, n), one column per equation
    estimator: str
    iterations: int | np.ndarray = 1
    converged: bool | np.ndarray = True
    iteration_counts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        coef = np.asarray(self.coefficients, dtype=float)
        cov = np.asarray(self.covariance, dtype=float)
        omega = np.asarray(self.omega, dtype=float)
        residuals = np.asarray(self.residuals, dtype=float)
        stack = coef.shape[:-1]
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"unknown estimator tag {self.estimator!r}")
        if coef.ndim < 1 or cov.shape != coef.shape + coef.shape[-1:]:
            raise ValueError("covariance shape does not match coefficient count")
        if residuals.shape[:-2] != stack or residuals.ndim != coef.ndim + 1:
            raise ValueError("residuals must be a (T, n) array")
        if omega.shape != (*stack, residuals.shape[-1], residuals.shape[-1]):
            raise ValueError("omega shape does not match equation count")
        counts = np.broadcast_to(self.iterations, stack)
        object.__setattr__(self, "coefficients", coef)
        object.__setattr__(self, "covariance", (cov + cov.swapaxes(-1, -2)) / 2.0)
        object.__setattr__(self, "omega", (omega + omega.swapaxes(-1, -2)) / 2.0)
        object.__setattr__(self, "residuals", residuals)
        object.__setattr__(self, "iteration_counts", counts)
        object.__setattr__(self, "iterations", int(counts.max()))
        converged = np.broadcast_to(self.converged, stack) if stack else bool(self.converged)
        object.__setattr__(self, "converged", converged)


def _lagged_design(block: np.ndarray, start: int, depth: int) -> np.ndarray:
    """[1, block lag 1, ..., block lag depth] for rows start.. of a (..., T, m)
    block, stacked like the block."""
    n_obs = block.shape[-2]
    return np.concatenate(
        [np.ones((*block.shape[:-2], n_obs - start, 1))]
        + [block[..., start - lag : n_obs - lag, :] for lag in range(1, depth + 1)],
        axis=-1,
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
    causality restrictions.  Components holding a stack of pairs, with
    leading axes before the observations, give the stack of their systems.
    """
    if p_pos < 1 or p_neg < 1:
        raise ValueError("lag orders must be >= 1")
    if extra_lags < 0:
        raise ValueError("extra_lags must be >= 0")
    n_obs = len(first)
    if second.positive.shape != first.positive.shape:
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
        design = _lagged_design(np.stack(data, axis=-1), start, depth)
        for eq_var, symbol in ((1, "beta"), (2, "gamma")):
            targets.append(data[eq_var - 1][..., start:])
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
        targets=np.stack(targets, axis=-2),
        design=np.concatenate(blocks, axis=-1),
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
    stack = first.positive.shape[:-1] or second.positive.shape[:-1]
    if stack:
        raise ValueError(f"lag selection takes one pair of components, not a stack of "
                         f"shape {stack}")
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
    q, r = np.linalg.qr(_lagged_design(blocks, p_max, p_max))
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


def _rank_deficiency(system: SureSystem) -> SingularityError:
    """The error naming the first equation, of the first system in a stack,
    whose X_i'X_i has no Cholesky factor, and the regressor that makes it so."""
    index, sl = next((index, sl) for index in np.ndindex(system.stack_shape)
                     for sl in system.slices
                     if not _has_cholesky(system.gram[index][sl, sl]))
    entry, names = system.layout[sl.start], system.variable_names
    name = f" ({names[entry.eq_var - 1]})" if entry.eq_var <= len(names) else ""
    column = system.layout[sl.start + _dependent_column(system.design[index][:, sl])]
    if column.reg_var is None:
        regressor = "the intercept"
    elif column.reg_var <= len(names):
        regressor = f"a lag of {names[column.reg_var - 1]!r}"
    else:
        regressor = "a regressor"
    return SingularityError(
        f"equation Z{entry.eq_sign}{entry.eq_var}{name}: design matrix "
        f"is rank-deficient at {column.name}, {regressor}"
    )


def _has_cholesky(matrix: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        return False
    return True


def ols_fit(system: SureSystem) -> CoefficientEstimate:
    """Equation-by-equation least squares; consistent but not efficient.

    The covariance is the sandwich G^-1 (omega[idx, idx] * gram) G^-1, with
    G^-1 the block-diagonal inverse of the X_i'X_i: its block (i, j) is
    omega_ij (X_i'X_i)^-1 X_i'X_j (X_j'X_j)^-1, so a null that spans two
    equations sees the correlation of their errors.
    """
    coefs, gram_inv = [], np.zeros_like(system.gram)
    for i, sl in enumerate(system.slices):
        gram = system.gram[..., sl, sl]
        try:
            chol = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            raise _rank_deficiency(system) from None
        coefs.append(np.linalg.solve(gram, system.xty[..., sl, i, None])[..., 0])
        inv_chol = np.linalg.solve(chol, np.broadcast_to(np.eye(chol.shape[-1]), chol.shape))
        gram_inv[..., sl, sl] = inv_chol.swapaxes(-1, -2) @ inv_chol
    coefficients = np.concatenate(coefs, axis=-1)
    u = system.residuals(coefficients)
    omega = u.swapaxes(-1, -2) @ u / system.effective_sample
    index = system.equation_index
    covariance = gram_inv @ (omega[..., index[:, None], index] * system.gram) @ gram_inv
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

    Returns the stacked coefficient vector and the GLS matrix
    Z'(omega^-1 (x) I)Z, whose inverse is the coefficient covariance, weighting
    the system's cached cross-product blocks by the matching entries of
    omega^-1.  A stack of systems takes one omega per system.
    """
    omega = np.asarray(omega, dtype=float)
    n = system.n_equations
    if omega.shape != (*system.stack_shape, n, n):
        raise ValueError("omega shape does not match equation count")
    try:
        weight = np.linalg.inv(np.linalg.cholesky(omega))
        weight = weight.swapaxes(-1, -2) @ weight  # omega^-1 via its Cholesky factor
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(
            "residual covariance is not positive definite"
        ) from None
    rows = weight[..., system.equation_index, :]
    a = system.gram * rows[..., system.equation_index]
    b = (system.xty * rows).sum(axis=-1)
    try:
        coef = np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        raise SingularityError("stacked GLS system is singular") from None
    return coef, a


def fgls_fit(system: SureSystem) -> CoefficientEstimate:
    """Iterated feasible GLS: alternate the error covariance and the GLS solve.

    Starts from the OLS residual covariance and stops when the largest
    coefficient change drops below FGLS_TOL; the reported covariance is the
    inverse of the final solve's GLS matrix.  On a stack, a system that meets
    the tolerance leaves the live set and keeps its error covariance, so each
    later solve repeats its last one bit for bit, and the loop runs until no
    system is live: every system ends where it would on its own.
    """
    ols = ols_fit(system)
    previous, omega = ols.coefficients, ols.omega
    counts = np.zeros(system.stack_shape, dtype=int)
    live = np.ones(system.stack_shape, dtype=bool)
    for iterations in range(1, FGLS_MAX_ITER + 1):
        coef, gls_matrix = gls_solve(system, omega)
        u = system.residuals(coef)
        counts[live] = iterations
        live &= ~(np.max(np.abs(coef - previous), axis=-1) < FGLS_TOL)
        if not live.any() or iterations == FGLS_MAX_ITER:
            break
        update = u.swapaxes(-1, -2) @ u / system.effective_sample
        previous, omega = coef, np.where(live[..., None, None], update, omega)
    return CoefficientEstimate(
        coefficients=coef,
        covariance=np.linalg.inv(gls_matrix),  # its LU factor succeeded in the solve
        omega=omega,
        residuals=u,
        estimator="fgls",
        iterations=counts,
        converged=~live,
    )
