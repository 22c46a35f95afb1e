"""Signed cumulative-sum decomposition of integrated series.

An integrated series with drift/trend is split into a positive and a negative
component: each component carries half of the deterministic part and the
initial value, plus the running sum of the positive (resp. negative) fitted
innovations.  The two components add back to the original series exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DataError

DETERMINISTIC_KINDS = ("none", "drift", "drift_and_trend")


@dataclass(frozen=True)
class Series:
    """A raw observed time series.

    values are levels (possibly already log-transformed by the caller);
    timestamps are opaque ordered labels used only for reporting.
    """

    values: np.ndarray
    timestamps: Optional[tuple[str, ...]] = None
    name: str = ""

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise DataError(f"series {self.name!r}: values must be one-dimensional")
        if values.size < 3:
            raise DataError(
                f"series {self.name!r}: need at least 3 observations, got {values.size}"
            )
        if not np.all(np.isfinite(values)):
            bad = int(np.flatnonzero(~np.isfinite(values))[0])
            raise DataError(f"series {self.name!r}: non-finite value at index {bad}")
        object.__setattr__(self, "values", values)
        if self.timestamps is not None:
            stamps = tuple(self.timestamps)
            if len(stamps) != values.size:
                raise DataError(
                    f"series {self.name!r}: {len(stamps)} timestamps for "
                    f"{values.size} values"
                )
            object.__setattr__(self, "timestamps", stamps)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class SignedComponents:
    """Positive/negative partial cumulative sums of one variable.

    positive[t] and negative[t] are defined at every observation index; at
    t=0 both are half the initial value (empty partial sum).  Arrays of shape
    (..., T) hold a stack of such paths, one per leading index.
    """

    positive: np.ndarray
    negative: np.ndarray
    name: str = ""
    degenerate_warning: Optional[str] = field(default=None, compare=False)

    def __post_init__(self):
        pos = np.asarray(self.positive, dtype=float)
        neg = np.asarray(self.negative, dtype=float)
        if pos.shape != neg.shape or pos.ndim < 1:
            raise DataError("positive/negative components must have equal shapes "
                            "with the observations on the last axis")
        object.__setattr__(self, "positive", pos)
        object.__setattr__(self, "negative", neg)

    def __len__(self) -> int:
        return self.positive.shape[-1]


def _check_kind(kind: str) -> None:
    if kind not in DETERMINISTIC_KINDS:
        raise ValueError(
            f"unknown deterministic kind {kind!r}; "
            f"expected one of {DETERMINISTIC_KINDS}"
        )


def fit_deterministic(series: Series, kind: str) -> tuple[float, float]:
    """Estimate the drift and trend coefficients of the increments.

    Returns (drift, trend).  kind is one of DETERMINISTIC_KINDS: "none" (pure
    random walk) fixes both at zero; "drift" uses the mean first difference;
    "drift_and_trend" regresses the first differences on a constant and the
    time index t = 1..T by least squares.
    """
    drift, trend = _fit(np.diff(series.values[None]), kind)
    return float(drift[0, 0]), float(trend[0, 0])


def _fit(diffs: np.ndarray, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """(drift, trend), each (..., V, 1), of a (..., V, T-1) stack of increments."""
    _check_kind(kind)
    zeros = np.zeros((*diffs.shape[:-1], 1))
    if kind == "none":
        return zeros, zeros
    mean = diffs.sum(axis=-1, keepdims=True) / diffs.shape[-1]  # np.mean without its overhead
    if kind == "drift":
        return mean, zeros
    # least squares on [1, t], centred; t - t.mean() and its squares' sum are exact
    t = np.arange(1, diffs.shape[-1] + 1, dtype=float)
    centred = t - t.mean()
    trend = (centred * diffs).sum(axis=-1, keepdims=True) / (centred @ centred)
    return mean - trend * t.mean(), trend


def _deterministic_path(n: int, drift, trend) -> np.ndarray:
    """drift*t + trend*t(t+1)/2 for t = 0..n-1: t deterministic increments
    summed; (..., 1) coefficients give a (..., n) stack of paths."""
    t = np.arange(n, dtype=float)
    return drift * t + trend * t * (t + 1.0) / 2.0


def decompose_stack(levels: np.ndarray, kind: str,
                    names: Sequence[str]) -> tuple[SignedComponents, ...]:
    """Decompose a (..., V, T) stack of V variables' levels at once.

    Returns one SignedComponents per variable, holding its (..., T) stack of
    paths; each path's components equal those of ``decompose`` on it alone,
    bit for bit.  names[v] names variable v.  Paths shorter than a Series'
    3 observations are rejected as a Series rejects them.
    """
    levels = np.asarray(levels, dtype=float)
    if levels.ndim < 2 or levels.shape[-2] != len(names):
        raise ValueError(f"levels of shape {levels.shape} do not hold one variable "
                         f"per name of {tuple(names)}")
    if levels.shape[-1] < 3:
        raise DataError(f"series {names[0]!r}: need at least 3 observations, "
                        f"got {levels.shape[-1]}")
    diffs = levels[..., 1:] - levels[..., :-1]
    drift, trend = _fit(diffs, kind)
    innovations = diffs - drift - trend * np.arange(1, levels.shape[-1], dtype=float)
    rises = np.maximum(innovations, 0.0).cumsum(axis=-1)
    falls = np.minimum(innovations, 0.0).cumsum(axis=-1)
    negative = (_deterministic_path(levels.shape[-1], drift, trend) + levels[..., :1]) / 2.0
    positive = negative.copy()
    positive[..., 1:] += rises
    negative[..., 1:] += falls

    components = []
    for v, name in enumerate(names):
        # a sum of same-signed terms is zero only if every term is: a variable
        # warns when any of its paths has no rising (falling) innovation
        warning = None
        if not (rises[..., v, -1] > 0).all():
            warning = (f"series {name!r}: no positive innovations; the positive "
                       "component has zero stochastic variation")
        elif not (falls[..., v, -1] < 0).all():
            warning = (f"series {name!r}: no negative innovations; the negative "
                       "component has zero stochastic variation")
        components.append(SignedComponents(positive[..., v, :], negative[..., v, :],
                                           name, warning))
    return tuple(components)


def decompose(series: Series, kind: str) -> SignedComponents:
    """Split a series into its positive and negative partial cumulative sums.

    Fitted innovations e_t = dZ_t - drift - trend*t are separated into their
    nonnegative and nonpositive parts; each component is half the
    deterministic path plus the running sum of one signed part.
    """
    return decompose_stack(series.values[None], kind, (series.name,))[0]


def recompose(components: SignedComponents) -> np.ndarray:
    """Elementwise sum of the two components; recovers the original series."""
    return components.positive + components.negative
