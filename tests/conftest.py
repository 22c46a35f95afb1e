"""Shared builders for hand-constructed systems used across test modules."""

import numpy as np
import pytest

from asymcause.decomposition import Series, decompose
from asymcause.mgarch import GarchSpec, simulate_ccc_garch_t
from asymcause.sure import LayoutEntry, SureSystem, build_design


def intercept_system(data: np.ndarray) -> SureSystem:
    """Intercept-only mean system; one equation per column of data."""
    t_obs, n = data.shape
    layout = tuple(
        LayoutEntry(
            name=f"lambda+_{i + 1}",
            eq_var=i + 1,
            eq_sign="+",
            reg_var=None,
            restricted=False,
        )
        for i in range(n)
    )
    return SureSystem(targets=data.T, design=np.ones((t_obs, n)), layout=layout)


def exog_two_equation_system(rng: np.random.Generator, t_obs: int = 100,
                             rho: float = 0.8):
    """Two equations with distinct exogenous regressors and correlated errors.

    Returns (system, true stacked coefficients).
    """
    x1 = np.column_stack([np.ones(t_obs), rng.standard_normal(t_obs)])
    x2 = np.column_stack([np.ones(t_obs), rng.standard_normal(t_obs)])
    cov = np.array([[1.0, rho], [rho, 1.0]])
    errors = rng.multivariate_normal(np.zeros(2), cov, size=t_obs)
    b1 = np.array([1.0, 2.0])
    b2 = np.array([-0.5, 1.5])
    y1 = x1 @ b1 + errors[:, 0]
    y2 = x2 @ b2 + errors[:, 1]
    layout = (
        LayoutEntry("lambda+_1", 1, "+", None, False),
        LayoutEntry("beta+_2,1", 1, "+", 2, True),
        LayoutEntry("lambda+_2", 2, "+", None, False),
        LayoutEntry("gamma+_1,1", 2, "+", 1, True),
    )
    system = SureSystem(targets=np.stack([y1, y2]), design=np.hstack([x1, x2]),
                        layout=layout)
    return system, np.concatenate([b1, b2])


def identical_regressor_system(rng: np.random.Generator, t_obs: int = 80):
    """Every equation shares the same design matrix (the Kruskal case)."""
    x = np.column_stack(
        [np.ones(t_obs), rng.standard_normal(t_obs), rng.standard_normal(t_obs)]
    )
    cov = np.array([[1.0, 0.7], [0.7, 2.0]])
    errors = rng.multivariate_normal(np.zeros(2), cov, size=t_obs)
    y1 = x @ np.array([1.0, 2.0, -1.0]) + errors[:, 0]
    y2 = x @ np.array([0.5, -1.0, 3.0]) + errors[:, 1]
    layout = (
        LayoutEntry("lambda+_1", 1, "+", None, False),
        LayoutEntry("beta+_1,1", 1, "+", 1, True),
        LayoutEntry("beta+_2,1", 1, "+", 2, True),
        LayoutEntry("lambda+_2", 2, "+", None, False),
        LayoutEntry("gamma+_1,1", 2, "+", 1, True),
        LayoutEntry("gamma+_2,1", 2, "+", 2, True),
    )
    return SureSystem(targets=np.stack([y1, y2]), design=np.hstack([x, x]), layout=layout)


def garch_pair_levels() -> np.ndarray:
    """(160, 2) levels of the GARCH test pair: a 0.01 drift plus the partial
    sums of CCC-GARCH(1,1)-t innovations (seed 8)."""
    spec = GarchSpec(
        omega=np.array([0.02, 0.02]),
        alpha=np.array([0.2, 0.2]),
        beta=np.array([0.7, 0.7]),
        correlation=np.array([[1.0, 0.4], [0.4, 1.0]]),
        nu=6.0,
    )
    eps = simulate_ccc_garch_t(spec, 159, seed=8)
    return 0.01 * np.arange(160)[:, None] + np.vstack(
        [np.zeros(2), np.cumsum(eps, axis=0)]
    )


def garch_robustness_system(s: int) -> SureSystem:
    """Signed-component system of GARCH robustness pair s.

    alpha, beta and nu are drawn from rng (77, s); the innovations are
    CCC-GARCH(1,1)-t draws of length 160 + 40 (s mod 4), replaced by 0.3
    times Gaussian draws at correlation 0.5 when s mod 3 = 2.  The levels
    start at zero with a 0.01 drift; P+ is 1 + s mod 2 and P- is 1.
    """
    rng = np.random.default_rng((77, s))
    a = rng.uniform(0.05, 0.25)
    b = rng.uniform(0.5, 0.9 - a)
    nu = rng.uniform(4.0, 12.0)
    spec = GarchSpec(omega=np.full(2, 0.02), alpha=np.full(2, a), beta=np.full(2, b),
                     correlation=np.array([[1.0, 0.4], [0.4, 1.0]]), nu=nu)
    draws = simulate_ccc_garch_t(spec, 160 + 40 * (s % 4), seed=s)
    if s % 3 == 2:
        draws = 0.3 * rng.multivariate_normal(
            np.zeros(2), [[1.0, 0.5], [0.5, 1.0]], size=len(draws))
    levels = np.vstack([np.zeros(2), np.cumsum(draws + 0.01, axis=0)])
    components = [decompose(Series(levels[:, i]), "drift") for i in range(2)]
    return build_design(*components, 1 + s % 2, 1, 1)


@pytest.fixture
def rng():
    return np.random.default_rng(20240612)
