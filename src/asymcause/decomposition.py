"""Signed cumulative-sum decomposition of integrated series.

An integrated series with drift/trend is split into a positive and a negative
component: each component carries half of the deterministic part and the
initial value, plus the running sum of the positive (resp. negative) fitted
innovations.  The two components add back to the original series exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DataError, SingularityError

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
    t=0 both are half the initial value (empty partial sum).
    """

    positive: np.ndarray
    negative: np.ndarray
    name: str = ""
    degenerate_warning: Optional[str] = field(default=None, compare=False)

    def __post_init__(self):
        pos = np.asarray(self.positive, dtype=float)
        neg = np.asarray(self.negative, dtype=float)
        if pos.shape != neg.shape or pos.ndim != 1:
            raise DataError("positive/negative components must be 1-d and equal length")
        object.__setattr__(self, "positive", pos)
        object.__setattr__(self, "negative", neg)

    def __len__(self) -> int:
        return self.positive.size


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
    _check_kind(kind)
    diffs = np.diff(series.values)
    if kind == "none":
        return 0.0, 0.0
    if kind == "drift":
        return float(diffs.mean()), 0.0
    # drift_and_trend
    if np.ptp(series.values) == 0.0:
        raise SingularityError(
            f"series {series.name!r}: constant series, trend fit is rank-deficient"
        )
    t = np.arange(1, diffs.size + 1, dtype=float)
    design = np.column_stack([np.ones_like(t), t])
    coef, *_ = np.linalg.lstsq(design, diffs, rcond=None)
    return float(coef[0]), float(coef[1])


def _deterministic_path(n: int, drift: float, trend: float) -> np.ndarray:
    """drift*t + trend*t(t+1)/2 for t = 0..n-1: t deterministic increments summed."""
    t = np.arange(n, dtype=float)
    return drift * t + trend * t * (t + 1.0) / 2.0


def decompose(series: Series, kind: str) -> SignedComponents:
    """Split a series into its positive and negative partial cumulative sums.

    Fitted innovations e_t = dZ_t - drift - trend*t are separated into their
    nonnegative and nonpositive parts; each component is half the
    deterministic path plus the running sum of one signed part.
    """
    drift, trend = fit_deterministic(series, kind)
    values = series.values
    t = np.arange(1, values.size, dtype=float)
    innovations = np.diff(values) - drift - trend * t
    e_pos = np.maximum(innovations, 0.0)
    e_neg = np.minimum(innovations, 0.0)

    half = (_deterministic_path(values.size, drift, trend) + float(values[0])) / 2.0
    positive = half.copy()
    positive[1:] += np.cumsum(e_pos)
    negative = half.copy()
    negative[1:] += np.cumsum(e_neg)

    warning = None
    if not np.any(e_pos > 0):
        warning = (
            f"series {series.name!r}: no positive innovations; the positive "
            "component has zero stochastic variation"
        )
    elif not np.any(e_neg < 0):
        warning = (
            f"series {series.name!r}: no negative innovations; the negative "
            "component has zero stochastic variation"
        )

    return SignedComponents(
        positive=positive,
        negative=negative,
        name=series.name,
        degenerate_warning=warning,
    )


def recompose(components: SignedComponents) -> np.ndarray:
    """Elementwise sum of the two components; recovers the original series."""
    return components.positive + components.negative
