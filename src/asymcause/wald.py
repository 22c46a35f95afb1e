"""Wald tests of the ten causality/asymmetry hypotheses.

The catalog covers, for a two-variable system: individual no-causality nulls
for each signed direction, their joint versions, equality of the positive and
negative causal parameters (symmetry), and the fully joint variants.  Each
null is a set of linear restrictions on the stacked coefficient vector,
tested with the quadratic-form statistic against a chi-square reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SingularityError
from .sure import CoefficientEstimate, LayoutEntry


@dataclass(frozen=True)
class HypothesisSpec:
    """A testable null: restriction matrix over the coefficient layout."""

    id: str
    restriction: np.ndarray  # q x K matrix of 0/+1/-1 entries
    label: str
    null: str = ""  # human-readable form of the restrictions

    def __post_init__(self):
        r = np.asarray(self.restriction, dtype=float)
        if r.ndim != 2:
            raise ValueError("restriction must be a matrix")
        if np.linalg.matrix_rank(r) != r.shape[0]:
            raise ValueError(f"{self.id}: restriction matrix is not full row rank")
        object.__setattr__(self, "restriction", r)

    @property
    def dof(self) -> int:
        """Chi-square degrees of freedom: one per restriction row."""
        return self.restriction.shape[0]


@dataclass(frozen=True)
class WaldResult:
    statistic: float
    p_value: float
    hypothesis: HypothesisSpec


_GAMMA_EPS = 1e-15  # both expansions stop once a step moves the result by less
_GAMMA_MAX_ITER = 800


def _gamma_p_series(a: float, x: float) -> float:
    """Lower regularized incomplete gamma P(a, x) by its power series."""
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_GAMMA_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _GAMMA_EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_q_contfrac(a: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(a, x) by modified Lentz continued fraction."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, _GAMMA_MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAMMA_EPS:
            break
    return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h


def chisq_sf(x: float, q: int) -> float:
    """Survival function P(chi2_q > x) via the regularized incomplete gamma."""
    if q < 1 or int(q) != q:
        raise ValueError("degrees of freedom must be a positive integer")
    if not np.isfinite(x) or x < 0:
        raise ValueError("statistic must be finite and nonnegative")
    if x == 0.0:
        return 1.0
    a = q / 2.0
    half = x / 2.0
    if half < a + 1.0:
        p = 1.0 - _gamma_p_series(a, half)
    else:
        p = _gamma_q_contfrac(a, half)
    return float(min(1.0, max(0.0, p)))


# Each null's terms in catalog row order.  A group (eq_var, sign) stands for
# the restricted lags of the other variable in that equation, all set to zero;
# a pair (plus, minus) of groups states that their sums are equal.
_BETA_POS, _BETA_NEG, _GAMMA_POS, _GAMMA_NEG = (1, "+"), (1, "-"), (2, "+"), (2, "-")
_BETA_SYM, _GAMMA_SYM = (_BETA_POS, _BETA_NEG), (_GAMMA_POS, _GAMMA_NEG)
_NULLS = {
    "H1": (_BETA_POS,),
    "H2": (_BETA_NEG,),
    "H3": (_BETA_POS, _BETA_NEG),
    "H4": (_BETA_SYM,),
    "H5": (_GAMMA_POS,),
    "H6": (_GAMMA_NEG,),
    "H7": (_GAMMA_POS, _GAMMA_NEG),
    "H8": (_GAMMA_SYM,),
    "H9": (_BETA_POS, _BETA_NEG, _GAMMA_POS, _GAMMA_NEG),
    "H10": (_BETA_SYM, _GAMMA_SYM),
}
HYPOTHESIS_IDS = tuple(_NULLS)

_LABELS = {
    "H1": "A rising {v2} does not cause a rising {v1}.",
    "H2": "A falling {v2} does not cause a falling {v1}.",
    "H3": "Neither rising nor falling {v2} causes rising or falling {v1}.",
    "H4": "The impact of rising and falling {v2} on {v1} is the same "
    "(symmetric causality).",
    "H5": "A rising {v1} does not cause a rising {v2}.",
    "H6": "A falling {v1} does not cause a falling {v2}.",
    "H7": "Neither rising nor falling {v1} causes rising or falling {v2}.",
    "H8": "The impact of rising and falling {v1} on {v2} is the same "
    "(symmetric causality).",
    "H9": "{v1} and {v2} are not causing each other for either rising "
    "or falling components.",
    "H10": "The joint causal impacts of {v1} and {v2} on each other are "
    "symmetric.",
}


def restriction_for(
    hypothesis_id: str,
    layout: Sequence[LayoutEntry],
    variable_names: Sequence[str] | None = None,
    sum_restrictions: bool = False,
) -> HypothesisSpec:
    """Build the restriction matrix for one catalog hypothesis.

    With sum_restrictions=False (default) each no-causality null zeroes every
    restricted lag coefficient individually; with True it restricts only the
    sum across lags, one row per coefficient group.  The symmetry nulls (H4,
    H8, H10) always compare sums, which stays well defined when the positive
    and negative lag orders differ.
    """
    if hypothesis_id not in _NULLS:
        raise ValueError(f"unknown hypothesis id {hypothesis_id!r}")
    layout = tuple(layout)
    groups: dict[tuple[int, str], list[int]] = {}
    for k, entry in enumerate(layout):
        # variables 1 and 2 cause each other: the regressor is the other one
        if entry.restricted and entry.reg_var == 3 - entry.eq_var:
            groups.setdefault((entry.eq_var, entry.eq_sign), []).append(k)

    def group(key: tuple[int, str]) -> list[int]:
        if key not in groups:
            eq_var, sign = key
            raise ValueError(
                f"layout has no restricted lag of variable {3 - eq_var} in the "
                f"{sign} equation of variable {eq_var}; is this a 2-variable system?"
            )
        return groups[key]

    def joined(positions: list[int], sign: str) -> str:
        return f" {sign} ".join(layout[k].name for k in positions)

    rows: list[tuple[list[int], list[int], str]] = []  # (+1 at, -1 at, text)
    for term in _NULLS[hypothesis_id]:
        if isinstance(term[0], tuple):  # symmetry: equal sums of two groups
            plus, minus = group(term[0]), group(term[1])
            text = f"{joined(plus, '+')} - {joined(minus, '-')} = 0"
            rows.append((plus, minus, text))
        elif sum_restrictions:
            rows.append((group(term), [], f"{joined(group(term), '+')} = 0"))
        else:
            rows.extend(([k], [], f"{layout[k].name} = 0") for k in group(term))
    restriction = np.zeros((len(rows), len(layout)))
    for row, (plus, minus, _) in zip(restriction, rows):
        row[plus] = 1.0
        row[minus] = -1.0

    v1, v2 = "variable 1", "variable 2"
    if variable_names:
        v1 = variable_names[0] or v1
        if len(variable_names) > 1:
            v2 = variable_names[1] or v2
    return HypothesisSpec(
        id=hypothesis_id,
        restriction=restriction,
        label=_LABELS[hypothesis_id].format(v1=v1, v2=v2),
        null=" and ".join(text for _, _, text in rows),
    )


def catalog(
    layout: Sequence[LayoutEntry],
    variable_names: Sequence[str] | None = None,
    sum_restrictions: bool = False,
) -> tuple[HypothesisSpec, ...]:
    """All ten hypotheses in catalog order for one coefficient layout.

    The specs depend only on the layout, so build them once and test every
    estimate on that layout against them.
    """
    return tuple(
        restriction_for(hid, layout, variable_names, sum_restrictions)
        for hid in HYPOTHESIS_IDS
    )


def wald_test(estimate: CoefficientEstimate, spec: HypothesisSpec) -> WaldResult:
    """Quadratic-form test of R c = 0 with chi-square reference distribution."""
    r = spec.restriction
    c = estimate.coefficients
    if r.shape[1] != c.size:
        raise ValueError(
            f"{spec.id}: restriction has {r.shape[1]} columns for "
            f"{c.size} coefficients"
        )
    rc = r @ c
    s = r @ estimate.covariance @ r.T
    s = (s + s.T) / 2.0
    try:
        chol = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        raise SingularityError(
            f"{spec.id}: R Var(C) R' is not positive definite "
            "(degenerate restriction set)"
        ) from None
    half = np.linalg.solve(chol, rc)
    statistic = float(half @ half)
    return WaldResult(
        statistic=statistic,
        p_value=chisq_sf(statistic, spec.dof),
        hypothesis=spec,
    )


def run_catalog(
    estimate: CoefficientEstimate, specs: Sequence[HypothesisSpec]
) -> list[WaldResult]:
    """Wald test of the estimate against each spec, in the given order."""
    return [wald_test(estimate, spec) for spec in specs]
