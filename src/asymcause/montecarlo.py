"""Synthetic data generation and size/power studies for the test pipeline.

The data-generating process is a set of random walks with optional drift and
trend and cross-correlated innovations.  An optional feedback coefficient
injects variable 2's lagged positive innovations into variable 1's increments,
so the catalog's H1 ("rising variable 2 does not cause rising variable 1")
is the null violated in power studies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .decomposition import DeterministicSpec, Series, decompose
from .sure import build_design, fgls_fit, lag_order_table, ols_fit
from .wald import HYPOTHESIS_IDS, HypothesisSpec, catalog, run_catalog

ERROR_TAILS = ("gaussian", "t")
STUDY_ESTIMATORS = ("fgls", "ols")


@dataclass(frozen=True)
class DgpConfig:
    """Random-walk DGP: increments drift + trend*t + correlated innovations."""

    m: int = 2
    drift: tuple[float, ...] = (0.0, 0.0)
    trend: tuple[float, ...] = (0.0, 0.0)
    initial: tuple[float, ...] = (0.0, 0.0)
    error_correlation: Optional[np.ndarray] = None  # None means identity
    error_tail: str = "gaussian"
    error_df: float = 5.0  # used when error_tail == "t"
    causal_feedback: Optional[float] = None
    t_obs: int = 300
    seed: int | tuple[int, ...] = 0

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.t_obs < 50:
            raise ValueError("t_obs must be >= 50")
        for field_name in ("drift", "trend", "initial"):
            vec = tuple(float(v) for v in getattr(self, field_name))
            if len(vec) != self.m:
                raise ValueError(f"{field_name} must have {self.m} entries")
            object.__setattr__(self, field_name, vec)
        if self.error_tail not in ERROR_TAILS:
            raise ValueError(f"error_tail must be one of {ERROR_TAILS}")
        if self.error_tail == "t" and not self.error_df > 2:
            raise ValueError("error_df must exceed 2 for unit-variance scaling")
        if self.causal_feedback is not None and self.m < 2:
            raise ValueError("causal_feedback needs at least two variables")
        if self.error_correlation is not None:
            corr = np.asarray(self.error_correlation, dtype=float)
            if corr.shape != (self.m, self.m):
                raise ValueError("error_correlation shape must be (m, m)")
            if not np.allclose(corr, corr.T, atol=1e-10):
                raise ValueError("error_correlation must be symmetric")
            if not np.allclose(np.diag(corr), 1.0, atol=1e-10):
                raise ValueError("error_correlation must have unit diagonal")
            if np.min(np.linalg.eigvalsh(corr)) <= 0:
                raise ValueError("error_correlation must be positive definite")
            object.__setattr__(self, "error_correlation", corr)


def simulate_dgp(config: DgpConfig) -> list[Series]:
    """Generate m random-walk series of length t_obs; deterministic per seed."""
    rng = np.random.default_rng(config.seed)
    m, t_obs = config.m, config.t_obs
    n_inc = t_obs - 1
    if config.error_tail == "gaussian":
        shocks = rng.standard_normal((n_inc, m))
    else:
        df = config.error_df
        shocks = rng.standard_t(df, size=(n_inc, m)) / np.sqrt(df / (df - 2.0))
    if config.error_correlation is not None:
        shocks = shocks @ np.linalg.cholesky(config.error_correlation).T
    if config.causal_feedback is not None:
        # lagged positive innovations of variable 2 feed variable 1's increment
        shocks[1:, 0] += config.causal_feedback * np.maximum(shocks[:-1, 1], 0.0)
    t = np.arange(1, t_obs, dtype=float)
    out = []
    for i in range(m):
        levels = np.empty(t_obs)
        levels[0] = config.initial[i]
        levels[1:] = (
            config.initial[i]
            + config.drift[i] * t
            + config.trend[i] * t * (t + 1.0) / 2.0
            + np.cumsum(shocks[:, i])
        )
        out.append(Series(values=levels, name=f"var{i + 1}"))
    return out


def empirical_size(
    config: DgpConfig,
    reps: int,
    level: float = 0.05,
    deterministic: DeterministicSpec = DeterministicSpec("drift"),
    fixed_lags: Optional[tuple[int, int]] = (1, 1),
    p_max: Optional[int] = None,
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
    # the layout depends only on the lag orders: one catalog per (P+, P-)
    catalogs: dict[tuple[int, int], tuple[HypothesisSpec, ...]] = {}
    for rep in range(reps):
        rep_config = replace(config, seed=base_seed + (rep,))
        series = simulate_dgp(rep_config)
        components = [decompose(s, deterministic) for s in series]
        if fixed_lags is not None:
            p_pos, p_neg = fixed_lags
        else:
            if p_max is None:
                raise ValueError("either fixed_lags or p_max must be given")
            p_pos, p_neg = lag_order_table(components, p_max)["selected"]
        system = build_design(components, p_pos, p_neg, extra_lags)
        fit = fgls_fit(system) if estimator == "fgls" else ols_fit(system)
        specs = catalogs.get((p_pos, p_neg))
        if specs is None:
            specs = catalogs[p_pos, p_neg] = catalog(
                system.layout, system.variable_names
            )
        for result in run_catalog(fit, specs):
            if result.p_value < level:
                rejections[result.hypothesis.id] += 1
    return {hid: rejections[hid] / reps for hid in HYPOTHESIS_IDS}
