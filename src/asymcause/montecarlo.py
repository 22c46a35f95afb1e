"""Synthetic data generation and size/power studies for the test pipeline.

The data-generating process is a pair of random walks with optional drift and
trend and correlated innovations.  An optional feedback coefficient
injects variable 2's lagged positive innovations into variable 1's increments,
so the catalog's H1 ("rising variable 2 does not cause rising variable 1")
is the null violated in power studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .decomposition import Series, _deterministic_path, decompose_stack
from .errors import DataError
from .sure import build_design, fgls_fit, ols_fit
from .wald import HYPOTHESIS_IDS, catalog, run_catalog

ERROR_TAILS = ("gaussian", "t")
STUDY_ESTIMATORS = ("fgls", "ols")
# replications per stacked block: larger blocks save little time once the
# per-call overhead is shared, and each one adds to the peak memory
STUDY_BLOCK = 16
VARIABLES = ("var1", "var2")


@dataclass(frozen=True)
class DgpConfig:
    """Two random walks: increments drift + trend*t + correlated innovations."""

    drift: tuple[float, float] = (0.0, 0.0)
    trend: tuple[float, float] = (0.0, 0.0)
    error_correlation: float = 0.0  # correlation of the two innovation series
    error_tail: str = "gaussian"
    error_df: float = 5.0  # used when error_tail == "t"
    causal_feedback: Optional[float] = None
    t_obs: int = 300
    seed: int | tuple[int, ...] = 0

    def __post_init__(self):
        for field_name in ("drift", "trend"):
            vec = tuple(float(v) for v in getattr(self, field_name))
            if len(vec) != 2:
                raise ValueError(f"{field_name} must have two entries")
            if not all(map(math.isfinite, vec)):
                raise ValueError(f"{field_name} must be finite")
            object.__setattr__(self, field_name, vec)
        if not -1.0 < self.error_correlation < 1.0:
            raise ValueError("error_correlation must be in (-1, 1)")
        if self.t_obs < 50:
            raise ValueError("t_obs must be >= 50")
        if self.error_tail not in ERROR_TAILS:
            raise ValueError(f"error_tail must be one of {ERROR_TAILS}")
        if self.error_tail == "t" and not 2 < self.error_df < math.inf:
            raise ValueError("error_df must be finite and exceed 2 for "
                             "unit-variance scaling")
        if self.causal_feedback is not None and not math.isfinite(self.causal_feedback):
            raise ValueError("causal_feedback must be finite")
        seeds = self.seed if isinstance(self.seed, tuple) else (self.seed,)
        if not all(isinstance(s, (int, np.integer)) and s >= 0 for s in seeds):
            raise ValueError("seed must be a non-negative integer or a tuple of "
                             f"them, got {self.seed!r}")


def _draw(config: DgpConfig, seeds: Sequence[int | tuple[int, ...]]) -> np.ndarray:
    """(R, 2, T) levels of the two random walks, one replication per seed.

    Replication r draws from its own default_rng(seeds[r]) stream; the
    scaling, correlation, feedback and sums then run once on the stack, and
    each replication's levels equal those it has when drawn alone.
    """
    t_obs = config.t_obs
    draws = [np.random.default_rng(seed) for seed in seeds]
    if config.error_tail == "gaussian":
        shocks = np.stack([rng.standard_normal((t_obs - 1, 2)) for rng in draws])
    else:
        df = config.error_df
        shocks = np.stack([rng.standard_t(df, size=(t_obs - 1, 2)) for rng in draws])
        shocks /= np.sqrt(df / (df - 2.0))
    rho = config.error_correlation  # at rho = 0 the factor is the identity: same bits
    # a stacked product runs one BLAS call per replication, as when drawn alone
    shocks = shocks @ np.linalg.cholesky(np.array([[1.0, rho], [rho, 1.0]])).T
    if config.causal_feedback is not None:
        # lagged positive innovations of variable 2 feed variable 1's increment
        shocks[:, 1:, 0] += config.causal_feedback * np.maximum(shocks[:, :-1, 1], 0.0)
    # zero first levels: path[:, 0] is -0.0 when drift and trend are negative
    levels = np.zeros((len(draws), 2, t_obs))
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        path = _deterministic_path(t_obs, np.array(config.drift)[:, None],
                                   np.array(config.trend)[:, None])
        levels[..., 1:] = path[:, 1:] + shocks.cumsum(axis=1).swapaxes(1, 2)
    finite = np.isfinite(levels)
    if not finite.all():  # the first replication's error, as its Series raises it
        _, variable, index = np.argwhere(~finite)[0]
        raise DataError(f"series {VARIABLES[variable]!r}: non-finite value at index {index}")
    return levels


def simulate_dgp(config: DgpConfig) -> list[Series]:
    """Generate the two random walks of length t_obs from 0; deterministic per seed."""
    return [Series(values, name=name)
            for values, name in zip(_draw(config, [config.seed])[0], VARIABLES)]


def empirical_size(
    config: DgpConfig,
    reps: int,
    level: float = 0.05,
    deterministic: str = "drift",
    fixed_lags: tuple[int, int] = (1, 1),
    extra_lags: int = 1,
    estimator: str = "fgls",
) -> dict[str, float]:
    """Rejection rate of each catalog hypothesis over seeded replications.

    Replication r draws from the stream (seed, r), so the rates do not depend
    on execution order and rerunning with the same configuration reproduces
    them exactly.  With causal_feedback set this measures power rather than
    size.  Meant for reps >= 100; smaller values are accepted but noisy.

    The replications run in blocks of STUDY_BLOCK, each one stacked system
    through one fit and one pass of the catalog.  Each replication's
    statistics are those it has on its own, so the rates do not depend on
    the block size.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    if estimator not in STUDY_ESTIMATORS:
        raise ValueError("estimator must be 'fgls' or 'ols'")
    base_seed = config.seed if isinstance(config.seed, tuple) else (config.seed,)
    rejections = {hid: 0 for hid in HYPOTHESIS_IDS}
    specs = None  # every replication has the same layout: one catalog
    for start in range(0, reps, STUDY_BLOCK):
        seeds = [base_seed + (rep,) for rep in range(start, min(start + STUDY_BLOCK, reps))]
        components = decompose_stack(_draw(config, seeds), deterministic, VARIABLES)
        system = build_design(*components, *fixed_lags, extra_lags)
        fit = fgls_fit(system) if estimator == "fgls" else ols_fit(system)
        if specs is None:
            specs = catalog(system)
        for result in run_catalog(fit, specs):
            rejections[result.hypothesis.id] += int(np.count_nonzero(result.p_value < level))
        del components, system, fit  # the next block is built without them
    return {hid: rejections[hid] / reps for hid in HYPOTHESIS_IDS}
