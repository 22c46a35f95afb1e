"""Shared builders for hand-constructed systems used across test modules."""

import numpy as np
import pytest

from asymcause.sure import LayoutEntry, SureSystem


def intercept_system(data: np.ndarray) -> SureSystem:
    """Intercept-only mean system; one equation per column of data."""
    t_obs, n = data.shape
    regressands, regressors, layout = [], [], []
    for i in range(n):
        regressands.append(data[:, i])
        regressors.append(np.ones((t_obs, 1)))
        layout.append(
            LayoutEntry(
                name=f"lambda+_{i + 1}",
                eq_var=i + 1,
                eq_sign="+",
                reg_var=None,
                restricted=False,
            )
        )
    return SureSystem(
        regressands=tuple(regressands),
        regressors=tuple(regressors),
        layout=tuple(layout),
    )


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
    system = SureSystem(regressands=(y1, y2), regressors=(x1, x2), layout=layout)
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
    return SureSystem(regressands=(y1, y2), regressors=(x, x), layout=layout)


@pytest.fixture
def rng():
    return np.random.default_rng(20240612)
