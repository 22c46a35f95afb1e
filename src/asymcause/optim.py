"""Quasi-Newton minimizer on a caller-supplied gradient, with a Newton finish.

`minimize_bfgs` runs BFGS with Armijo backtracking, started from the inverse
of the Hessian at x0, then Newton steps.  The caller supplies the objective
and its exact gradient, which maps a (P, k) stack of points to their (P, k)
gradients.  The minimizer calls it on one row at each iterate and on all 2k
probes of a Hessian at once: Hessians are central differences of that
gradient.  The objective may return +inf outside its valid region;
backtracking retreats from such points.

`central_gradient` and `central_hessian` difference the objective alone.
The minimizer does not use them; they are the oracles that tests check
analytic gradients and Hessians against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

GTOL = 1e-5  # converged when max |gradient component| falls below this
FTOL_REL = 1e-10  # also stop when one step changes f by less than this * max(1, |f|)
GRADIENT_STEP = 1e-5  # central-difference steps are these * max(1, |x_i|)
HESSIAN_STEP = 1e-4
BFGS_MAX_ITER = 500  # most iterations of minimize_bfgs's BFGS phase
NEWTON_STEPS = 5  # most steps of minimize_bfgs's Newton phase

Objective = Callable[[np.ndarray], float]
Gradient = Callable[[np.ndarray], np.ndarray]  # (P, k) points to (P, k) gradients


@dataclass
class OptimResult:
    x: np.ndarray
    fun: float
    gradient: np.ndarray
    hessian: np.ndarray  # gradient_jacobian(grad, x) at the returned x
    iterations: int
    converged: bool
    message: str
    f_trace: tuple[float, ...]  # objective at accepted iterates, initial included
    n_evals: int  # objective evaluations
    n_gradients: int  # gradient rows evaluated, P for each (P, k) call


def central_gradient(fun: Objective, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    probes = np.diag(GRADIENT_STEP * np.maximum(1.0, np.abs(x)))
    return np.array(
        [(fun(x + e) - fun(x - e)) / (2.0 * e[i]) for i, e in enumerate(probes)]
    )


def central_hessian(fun: Objective, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    k = x.size
    steps = HESSIAN_STEP * np.maximum(1.0, np.abs(x))
    probes = np.diag(steps)
    hess = np.empty((k, k))
    f0 = fun(x)
    for i in range(k):
        ei = probes[i]
        hess[i, i] = (fun(x + ei) - 2.0 * f0 + fun(x - ei)) / steps[i] ** 2
        for j in range(i + 1, k):
            ej = probes[j]
            hess[i, j] = hess[j, i] = (
                fun(x + ei + ej) - fun(x + ei - ej) - fun(x - ei + ej) + fun(x - ei - ej)
            ) / (4.0 * steps[i] * steps[j])
    return (hess + hess.T) / 2.0


def gradient_jacobian(grad: Gradient, x: np.ndarray) -> np.ndarray:
    """Hessian as the symmetrized central-difference Jacobian of grad.

    Steps are HESSIAN_STEP * max(1, |x_i|); the 2k probes x + step_i e_i,
    then x - step_i e_i, go to grad as one (2k, k) stack.
    """
    x = np.asarray(x, dtype=float)
    steps = HESSIAN_STEP * np.maximum(1.0, np.abs(x))
    shifts = np.diag(steps)
    rows = np.asarray(grad(np.concatenate([x + shifts, x - shifts])), dtype=float)
    jac = (rows[: x.size] - rows[x.size :]) / (2.0 * steps[:, None])  # row i: d/dx_i
    return (jac + jac.T) / 2.0


def _counted(fun: Objective, evals: list[int]) -> Objective:
    def f(z: np.ndarray) -> float:
        evals[0] += 1
        value = fun(z)
        return float(value) if np.isfinite(value) else np.inf

    return f


def _counted_rows(grad: Gradient, rows: list[int]) -> Gradient:
    def g(z: np.ndarray) -> np.ndarray:
        rows[0] += len(z)
        return np.asarray(grad(z), dtype=float)

    return g


def _armijo(f: Objective, x: np.ndarray, f_x: float, direction: np.ndarray,
            slope: float):
    """First of 1, 1/2, 1/4, ... (60 tries) giving sufficient decrease, or None."""
    alpha = 1.0
    for _ in range(60):
        x_new = x + alpha * direction
        f_new = f(x_new)
        if f_new <= f_x + 1e-4 * alpha * slope:
            return x_new, f_new
        alpha *= 0.5
    return None


def _inverse_curvature(grad: Gradient, x: np.ndarray) -> np.ndarray:
    """Inverse of gradient_jacobian(grad, x), made positive definite.

    Each eigenvalue lam becomes max(|lam|, 1e-8 max |lam|) before inverting,
    so directions of negative or vanishing curvature get a finite, large
    step instead of an ascent or an infinite one.  Where the curvature is
    zero in every direction (a linear stretch), the result is the identity.
    """
    eigenvalues, vectors = np.linalg.eigh(gradient_jacobian(grad, x))
    magnitudes = np.abs(eigenvalues)
    magnitudes = np.maximum(magnitudes, 1e-8 * np.max(magnitudes) or 1.0)
    return (vectors / magnitudes) @ vectors.T


def minimize_bfgs(fun: Objective, grad: Gradient, x0: np.ndarray) -> OptimResult:
    """Minimize fun, whose gradient is grad, from x0: BFGS, then Newton.

    BFGS: at most BFGS_MAX_ITER iterations from the inverse curvature at x0
    (see `_inverse_curvature`), not the identity, so an ill-conditioned
    problem needs no iterations to learn its scales; it stops on small
    gradient, small relative change or a failed line search.  Newton: at most
    NEWTON_STEPS steps while max |gradient| is at least GTOL and the Hessian
    `gradient_jacobian(grad, x)` is positive definite; message names the
    rule that ended them, and hessian is that Hessian at the returned point.

    grad is called on one row at accepted iterates, where fun is finite, and
    on the (2k, k) probe stack of `gradient_jacobian` at x0, at each Newton
    phase iterate and at any BFGS iterate where the search direction stops
    descending.  Both phases backtrack on the Armijo condition, so fun
    decreases strictly at every accepted iterate, and both count as
    iterations.  converged means max |gradient| < GTOL at the returned point.
    """
    x = np.asarray(x0, dtype=float).copy()
    k = x.size
    evals, rows = [0], [0]
    f = _counted(fun, evals)
    grad = _counted_rows(grad, rows)

    f_x = f(x)
    if not np.isfinite(f_x):
        raise ValueError("objective is not finite at the starting point")
    g = grad(x[None])[0]
    h_inv = _inverse_curvature(grad, x)
    trace = [f_x]
    iteration = 0

    while iteration < BFGS_MAX_ITER and np.max(np.abs(g)) >= GTOL:
        iteration += 1
        direction = -h_inv @ g
        slope = float(direction @ g)
        if slope >= 0.0:  # stale curvature; restart from the curvature here
            h_inv = _inverse_curvature(grad, x)
            direction = -h_inv @ g
            slope = float(direction @ g)
        accepted = _armijo(f, x, f_x, direction, slope)
        if accepted is None:
            break
        x_new, f_new = accepted
        g_new = grad(x_new[None])[0]
        step = x_new - x
        y = g_new - g
        sy = float(step @ y)
        if sy > 1e-12 * np.linalg.norm(step) * np.linalg.norm(y):
            rho = 1.0 / sy
            outer = np.outer(step, y)
            h_inv = (
                (np.eye(k) - rho * outer) @ h_inv @ (np.eye(k) - rho * outer.T)
                + rho * np.outer(step, step)
            )
        f_change = abs(f_x - f_new)
        x, f_x, g = x_new, f_new, g_new
        trace.append(f_x)
        if f_change < FTOL_REL * max(1.0, abs(f_x)):
            break

    steps = 0
    while True:
        hessian = gradient_jacobian(grad, x)
        if np.max(np.abs(g)) < GTOL:
            message = "gradient norm below tolerance"
            break
        if steps == NEWTON_STEPS:
            message = "Newton step limit reached"
            break
        try:
            chol = np.linalg.cholesky(hessian)
        except np.linalg.LinAlgError:
            message = "Hessian is not positive definite"
            break
        direction = -np.linalg.solve(chol.T, np.linalg.solve(chol, g))
        accepted = _armijo(f, x, f_x, direction, float(direction @ g))
        if accepted is None:
            message = "Newton line search failed to make progress"
            break
        x, f_x = accepted
        g = grad(x[None])[0]
        trace.append(f_x)
        steps += 1

    return OptimResult(
        x=x,
        fun=f_x,
        gradient=g,
        hessian=hessian,
        iterations=iteration + steps,
        converged=bool(np.max(np.abs(g)) < GTOL),
        message=message,
        f_trace=tuple(trace),
        n_evals=evals[0],
        n_gradients=rows[0],
    )
