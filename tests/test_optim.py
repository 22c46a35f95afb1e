"""BFGS minimizer and numerical derivative checks."""

import numpy as np
import pytest

from asymcause.optim import GTOL, central_gradient, central_hessian, minimize_bfgs


def quadratic(a, b):
    def fun(x):
        return 0.5 * x @ a @ x - b @ x

    return fun


def rosenbrock(x):
    return 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2


class TestDerivatives:
    def test_gradient_of_quadratic(self, rng):
        a = np.array([[3.0, 0.5], [0.5, 1.5]])
        b = np.array([1.0, -2.0])
        x = rng.standard_normal(2)
        grad = central_gradient(quadratic(a, b), x)
        np.testing.assert_allclose(grad, a @ x - b, atol=1e-7)

    def test_hessian_of_quadratic(self, rng):
        a = np.array([[4.0, 1.0, 0.0], [1.0, 2.0, -0.5], [0.0, -0.5, 3.0]])
        x = rng.standard_normal(3)
        hess = central_hessian(quadratic(a, np.zeros(3)), x)
        np.testing.assert_allclose(hess, a, atol=1e-5)


class TestBfgs:
    def test_quadratic_minimum(self):
        a = np.array([[3.0, 0.5], [0.5, 1.5]])
        b = np.array([1.0, -2.0])
        result = minimize_bfgs(quadratic(a, b), np.zeros(2))
        assert result.converged
        np.testing.assert_allclose(result.x, np.linalg.solve(a, b), atol=1e-5)

    def test_rosenbrock(self):
        result = minimize_bfgs(rosenbrock, np.array([-1.2, 1.0]), max_iter=2000)
        assert result.converged
        np.testing.assert_allclose(result.x, [1.0, 1.0], atol=1e-3)

    def test_trace_strictly_decreasing(self):
        result = minimize_bfgs(rosenbrock, np.array([-1.2, 1.0]), max_iter=2000)
        trace = result.f_trace
        assert all(later < earlier for earlier, later in zip(trace, trace[1:]))

    def test_infinite_region_is_avoided(self):
        def boxed(x):
            if np.any(np.abs(x) > 2.0):
                return np.inf
            return (x[0] - 1.0) ** 2 + (x[1] + 0.5) ** 2

        result = minimize_bfgs(boxed, np.array([1.9, -1.9]))
        assert result.converged
        np.testing.assert_allclose(result.x, [1.0, -0.5], atol=1e-5)

    def test_infinite_start_rejected(self):
        with pytest.raises(ValueError, match="starting point"):
            minimize_bfgs(lambda x: np.inf, np.zeros(2))

    def test_iteration_budget_respected(self):
        result = minimize_bfgs(rosenbrock, np.array([-1.2, 1.0]), max_iter=3)
        assert result.iterations <= 3
        assert not result.converged

    def test_small_change_with_large_gradient_is_not_converged(self):
        # near f = 1e9 FTOL_REL stops on a step that gains 3e-5, far from x = 0
        result = minimize_bfgs(lambda x: 1e9 + 50.0 * x[0] ** 2, np.array([1e-3]))
        assert result.message == "relative objective change below tolerance"
        assert np.max(np.abs(result.gradient)) > GTOL
        assert not result.converged
