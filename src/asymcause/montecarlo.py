"""Synthetic data generation and size/power studies for the test pipeline.

The data-generating process is a pair of random walks with optional drift and
trend and correlated innovations.  An optional feedback coefficient
injects variable 2's lagged positive innovations into variable 1's increments,
so the catalog's H1 ("rising variable 2 does not cause rising variable 1")
is the null violated in power studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .decomposition import Series, _deterministic_path, decompose
from .sure import build_design, fgls_fit, ols_fit
from .wald import HYPOTHESIS_IDS, catalog, run_catalog

ERROR_TAILS = ("gaussian", "t")
STUDY_ESTIMATORS = ("fgls", "ols")


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


def simulate_dgp(config: DgpConfig) -> list[Series]:
    """Generate the two random walks of length t_obs from 0; deterministic per seed."""
    rng = np.random.default_rng(config.seed)
    t_obs = config.t_obs
    n_inc = t_obs - 1
    if config.error_tail == "gaussian":
        shocks = rng.standard_normal((n_inc, 2))
    else:
        df = config.error_df
        shocks = rng.standard_t(df, size=(n_inc, 2)) / np.sqrt(df / (df - 2.0))
    rho = config.error_correlation
    if rho:
        shocks = shocks @ np.linalg.cholesky(np.array([[1.0, rho], [rho, 1.0]])).T
    if config.causal_feedback is not None:
        # lagged positive innovations of variable 2 feed variable 1's increment
        shocks[1:, 0] += config.causal_feedback * np.maximum(shocks[:-1, 1], 0.0)
    out = []
    for i in range(2):
        path = _deterministic_path(t_obs, config.drift[i], config.trend[i])
        levels = np.zeros(t_obs)  # path[0] is -0.0 when drift and trend are negative
        levels[1:] = path[1:] + np.cumsum(shocks[:, i])
        out.append(Series(values=levels, name=f"var{i + 1}"))
    return out


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
    for rep in range(reps):
        rep_config = replace(config, seed=base_seed + (rep,))
        series = simulate_dgp(rep_config)
        components = [decompose(s, deterministic) for s in series]
        system = build_design(components, *fixed_lags, extra_lags)
        fit = fgls_fit(system) if estimator == "fgls" else ols_fit(system)
        if specs is None:
            specs = catalog(system.layout, system.variable_names)
        for result in run_catalog(fit, specs):
            if result.p_value < level:
                rejections[result.hypothesis.id] += 1
    return {hid: rejections[hid] / reps for hid in HYPOTHESIS_IDS}
