"""BFGS minimizer and numerical derivative checks."""

import numpy as np
import pytest

from asymcause.optim import (
    GTOL,
    central_gradient,
    central_hessian,
    gradient_jacobian,
    minimize_bfgs,
)
from asymcause import optim


def quadratic(a, b):
    def fun(x):
        return 0.5 * x @ a @ x - b @ x

    return fun


def rosenbrock(x):
    return 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2


def rosenbrock_gradient(x):
    """The gradient at each row of a (P, 2) stack."""
    x0, x1 = x[:, 0], x[:, 1]
    return np.column_stack([-400.0 * x0 * (x1 - x0**2) - 2.0 * (1.0 - x0),
                            200.0 * (x1 - x0**2)])


def bfgs(fun, x0):
    """minimize_bfgs on the central-difference gradient of fun, row by row."""
    def grad(x):
        return np.array([central_gradient(fun, row) for row in x])

    return minimize_bfgs(fun, grad, x0)


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

    def test_jacobian_of_quadratic_gradient(self, rng):
        a = np.array([[4.0, 1.0, 0.0], [1.0, 2.0, -0.5], [0.0, -0.5, 3.0]])
        x = rng.standard_normal(3)
        np.testing.assert_allclose(gradient_jacobian(lambda z: z @ a.T, x), a, atol=1e-10)

    def test_jacobian_probes_go_to_grad_as_one_stack(self, rng):
        calls = []

        def grad(z):
            calls.append(z.shape)
            return np.sin(z) * z[:, ::-1] ** 2 + z**3

        x = rng.standard_normal(4) * np.array([1.0, 3.0, 0.1, 10.0])
        jac = gradient_jacobian(grad, x)
        assert calls == [(8, 4)]
        # the per-probe formula: column i is (grad(x + e_i) - grad(x - e_i)) / 2 s_i
        steps = optim.HESSIAN_STEP * np.maximum(1.0, np.abs(x))
        columns = [(grad((x + e)[None])[0] - grad((x - e)[None])[0]) / (2.0 * s)
                   for s, e in zip(steps, np.diag(steps))]
        per_probe = np.column_stack(columns)
        np.testing.assert_allclose(jac, (per_probe + per_probe.T) / 2.0, rtol=1e-12)

    def test_gradient_rows_are_counted(self, monkeypatch):
        rows = []

        def grad(z):
            rows.append(len(z))
            return rosenbrock_gradient(z)

        monkeypatch.setattr(optim, "BFGS_MAX_ITER", 2)
        result = minimize_bfgs(rosenbrock, grad, np.array([1.1, 1.2]))
        assert result.message == "maximum iterations reached"
        # the curvature at x0 and the Hessian at the returned point; one row
        # at x0 and at every accepted iterate
        assert rows == [1, 4, 1, 1, 4]
        assert result.n_gradients == sum(rows)


class TestBfgs:
    def test_quadratic_minimum(self):
        a = np.array([[3.0, 0.5], [0.5, 1.5]])
        b = np.array([1.0, -2.0])
        result = bfgs(quadratic(a, b), np.zeros(2))
        assert result.converged
        np.testing.assert_allclose(result.x, np.linalg.solve(a, b), atol=1e-5)

    def test_rosenbrock(self, monkeypatch):
        monkeypatch.setattr(optim, "BFGS_MAX_ITER", 2000)
        result = bfgs(rosenbrock, np.array([-1.2, 1.0]))
        assert result.converged
        np.testing.assert_allclose(result.x, [1.0, 1.0], atol=1e-3)

    def test_trace_strictly_decreasing(self, monkeypatch):
        monkeypatch.setattr(optim, "BFGS_MAX_ITER", 2000)
        result = bfgs(rosenbrock, np.array([-1.2, 1.0]))
        trace = result.f_trace
        assert all(later < earlier for earlier, later in zip(trace, trace[1:]))

    def test_infinite_region_is_avoided(self):
        def boxed(x):
            if np.any(np.abs(x) > 2.0):
                return np.inf
            return (x[0] - 1.0) ** 2 + (x[1] + 0.5) ** 2

        result = bfgs(boxed, np.array([1.9, -1.9]))
        assert result.converged
        np.testing.assert_allclose(result.x, [1.0, -0.5], atol=1e-5)

    def test_infinite_start_rejected(self):
        with pytest.raises(ValueError, match="starting point"):
            bfgs(lambda x: np.inf, np.zeros(2))

    def test_iteration_budget_respected(self, monkeypatch):
        monkeypatch.setattr(optim, "BFGS_MAX_ITER", 3)
        result = bfgs(rosenbrock, np.array([-1.2, 1.0]))
        assert result.iterations == 3
        assert result.message == "maximum iterations reached"
        assert not result.converged

    def test_curvature_start_solves_an_ill_conditioned_quadratic(self, rng):
        # Hessian eigenvalues 1 .. 1e8 in a random rotation: started from the
        # identity, BFGS needs over a hundred iterations to learn the scales
        rotation, _ = np.linalg.qr(rng.standard_normal((10, 10)))
        a = (rotation * np.logspace(0, 8, 10)) @ rotation.T
        result = minimize_bfgs(quadratic(a, np.zeros(10)), lambda x: x @ a.T, np.ones(10))
        assert result.converged
        assert result.iterations <= 3

    def test_start_on_a_linear_stretch(self):
        # the Huber loss has zero curvature at x0, so the start is the identity
        def huber(x):
            return float(np.sum(np.where(np.abs(x) <= 1.0, 0.5 * x**2, np.abs(x) - 0.5)))

        result = minimize_bfgs(huber, lambda x: np.clip(x, -1.0, 1.0), np.array([5.0, -7.0]))
        assert result.converged
        np.testing.assert_allclose(result.x, 0.0, atol=1e-5)

    def test_small_change_with_large_gradient_is_not_converged(self, monkeypatch):
        # near f = 1e9 a step that gains 5e-5 stalls far from x = 0; with no
        # refresh left, the stall ends the loop
        monkeypatch.setattr(optim, "CURVATURE_REFRESHES", 0)
        result = bfgs(lambda x: 1e9 + 50.0 * x[0] ** 2, np.array([1e-3]))
        before, after = result.f_trace
        assert before - after < optim.FTOL_REL * after
        assert result.message == "curvature refresh limit reached"
        assert np.max(np.abs(result.gradient)) > GTOL
        assert not result.converged


class TestCurvatureRefresh:
    def test_polishes_an_ftol_stall(self, monkeypatch):
        def fun(x):
            return 1e9 + 50.0 * x[0] ** 2

        with monkeypatch.context() as patch:
            patch.setattr(optim, "CURVATURE_REFRESHES", 0)
            stopped = bfgs(fun, np.array([1e-3]))
        result = bfgs(fun, np.array([1e-3]))
        assert result.f_trace[: len(stopped.f_trace)] == stopped.f_trace
        assert result.iterations > stopped.iterations
        assert result.converged
        assert result.message == "gradient norm below tolerance"
        np.testing.assert_allclose(result.x, 0.0, atol=1e-6)

    def test_refreshed_steps_are_newton_steps(self, monkeypatch):
        # every step stalls, so each one starts from the exact curvature
        monkeypatch.setattr(optim, "FTOL_REL", np.inf)
        rows = []

        def grad(z):
            rows.append(len(z))
            return rosenbrock_gradient(z)

        result = minimize_bfgs(rosenbrock, grad, np.array([1.1, 1.2]))
        assert result.converged
        assert result.message == "gradient norm below tolerance"
        # a Hessian after each step: a refresh, and at the last the returned point's
        assert rows == [1, 4] + [1, 4] * result.iterations
        trace = result.f_trace
        assert all(later < earlier for earlier, later in zip(trace, trace[1:]))
        np.testing.assert_allclose(result.x, [1.0, 1.0], atol=1e-6)
        np.testing.assert_allclose(result.hessian, [[802.0, -400.0], [-400.0, 200.0]],
                                   rtol=1e-5)

    def test_refresh_limit(self, monkeypatch):
        monkeypatch.setattr(optim, "FTOL_REL", np.inf)
        monkeypatch.setattr(optim, "CURVATURE_REFRESHES", 2)
        x0 = np.array([-1.2, 1.0])
        result = minimize_bfgs(rosenbrock, rosenbrock_gradient, x0)
        assert result.message == "curvature refresh limit reached"
        assert result.iterations == 3
        assert result.fun < rosenbrock(x0)
        assert not result.converged

    def test_descends_from_a_saddle_start(self):
        # x0^2 - x1^2 + x1^4 has a saddle at the origin and minima at
        # (0, +-1/sqrt 2); at x0 its curvature is indefinite
        def saddle(x):
            return x[0] ** 2 - x[1] ** 2 + x[1] ** 4

        def saddle_gradient(x):
            return np.column_stack([2.0 * x[:, 0], -2.0 * x[:, 1] + 4.0 * x[:, 1] ** 3])

        x0 = np.array([1.0, 0.1])
        assert np.linalg.eigvalsh(optim.gradient_jacobian(saddle_gradient, x0))[0] < 0.0
        result = minimize_bfgs(saddle, saddle_gradient, x0)
        assert result.converged
        assert result.message == "gradient norm below tolerance"
        trace = result.f_trace
        assert all(later < earlier for earlier, later in zip(trace, trace[1:]))
        np.testing.assert_allclose(result.x, [0.0, np.sqrt(0.5)], atol=1e-5)
        np.testing.assert_allclose(result.hessian, np.diag([2.0, 4.0]), atol=1e-4)
