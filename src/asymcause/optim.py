"""Quasi-Newton minimizer with numerical derivatives.

BFGS on the inverse Hessian with Armijo backtracking; gradients and Hessians
come from central differences so callers only supply the objective.  The
objective may return +inf outside its valid region; backtracking retreats
from such points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

GTOL = 1e-5  # converged when max |gradient component| falls below this
FTOL_REL = 1e-10  # ... or when one step changes f by less than this * max(1, |f|)
GRADIENT_STEP = 1e-5  # central-difference steps are these * max(1, |x_i|)
HESSIAN_STEP = 1e-4


@dataclass
class OptimResult:
    x: np.ndarray
    fun: float
    gradient: np.ndarray
    iterations: int
    converged: bool
    message: str
    f_trace: tuple[float, ...]  # objective at accepted iterates, initial included
    n_evals: int


def central_gradient(fun: Callable[[np.ndarray], float], x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    probes = np.diag(GRADIENT_STEP * np.maximum(1.0, np.abs(x)))
    return np.array(
        [(fun(x + e) - fun(x - e)) / (2.0 * e[i]) for i, e in enumerate(probes)]
    )


def central_hessian(fun: Callable[[np.ndarray], float], x: np.ndarray) -> np.ndarray:
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


def minimize_bfgs(
    fun: Callable[[np.ndarray], float], x0: np.ndarray, max_iter: int = 500
) -> OptimResult:
    """Minimize fun from x0; stop on small gradient or small relative change.

    Line search is plain backtracking on the Armijo condition, so the
    objective decreases strictly at every accepted iterate.
    """
    x = np.asarray(x0, dtype=float).copy()
    k = x.size
    evals = [0]

    def f(z: np.ndarray) -> float:
        evals[0] += 1
        value = fun(z)
        return float(value) if np.isfinite(value) else np.inf

    f_x = f(x)
    if not np.isfinite(f_x):
        raise ValueError("objective is not finite at the starting point")
    grad = central_gradient(f, x)
    h_inv = np.eye(k)
    trace = [f_x]
    message = "maximum iterations reached"
    converged = False
    iteration = 0
    first_update = True

    while iteration < max_iter:
        if np.max(np.abs(grad)) < GTOL:
            converged, message = True, "gradient norm below tolerance"
            break
        iteration += 1
        direction = -h_inv @ grad
        slope = float(direction @ grad)
        if slope >= 0.0:  # stale curvature; restart from steepest descent
            h_inv = np.eye(k)
            direction = -grad
            slope = float(direction @ grad)
            first_update = True
        alpha = 1.0
        accepted = False
        for _ in range(60):
            x_new = x + alpha * direction
            f_new = f(x_new)
            if f_new <= f_x + 1e-4 * alpha * slope:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            message = "line search failed to make progress"
            break
        grad_new = central_gradient(f, x_new)
        step = x_new - x
        y = grad_new - grad
        sy = float(step @ y)
        if sy > 1e-12 * np.linalg.norm(step) * np.linalg.norm(y):
            if first_update:
                h_inv *= sy / float(y @ y)
                first_update = False
            rho = 1.0 / sy
            outer = np.outer(step, y)
            h_inv = (
                (np.eye(k) - rho * outer) @ h_inv @ (np.eye(k) - rho * outer.T)
                + rho * np.outer(step, step)
            )
        f_change = abs(f_x - f_new)
        x, f_x, grad = x_new, f_new, grad_new
        trace.append(f_x)
        if f_change < FTOL_REL * max(1.0, abs(f_x)):
            converged, message = True, "relative objective change below tolerance"
            break

    return OptimResult(
        x=x,
        fun=f_x,
        gradient=grad,
        iterations=iteration,
        converged=converged,
        message=message,
        f_trace=tuple(trace),
        n_evals=evals[0],
    )
