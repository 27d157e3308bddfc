"""Unconstrained minimization over mean-zero coefficient vectors: Newton with
a direct Cholesky solve (which also flags an indefinite Hessian), and a
central-difference gradient check."""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg

__all__ = ["MinimizeProblem", "MinimizeResult", "newton_minimize",
           "gradient_check"]


def _identity(x):
    return x


@dataclass
class MinimizeProblem:
    objective: Callable
    gradient: Callable
    hessian: Optional[Callable] = None
    projection: Callable = _identity
    grad_inf_tol: float = 1e-10
    max_iter: int = 500


@dataclass
class MinimizeResult:
    x: np.ndarray
    fun: float
    grad_norm: float
    iterations: int
    converged: bool
    message: str = ""
    hessian_indefinite: bool = False


def newton_minimize(problem, x0):
    """Newton with a direct solve and energy backtracking.

    The translation-invariant energies here have the constant vector in the
    Hessian kernel; a rank-one shift restores invertibility on the mean-zero
    subspace. An indefinite projected Hessian is flagged (that failure mode is
    informative: it exhibits the unstable continuum variants)."""
    if problem.hessian is None:
        raise ValueError("newton_minimize needs a Hessian")
    proj = problem.projection
    x = proj(np.asarray(x0, dtype=float).copy())
    n = x.size
    # a mean-zero projection kills the constant direction, which then sits in
    # the Hessian kernel; shift it out before the solve
    kills_constants = bool(np.max(np.abs(proj(np.ones(n)))) < 1e-14)
    f, g = problem.objective, problem.gradient
    for it in range(problem.max_iter + 1):
        gx = proj(g(x))
        gnorm = float(np.max(np.abs(gx)))
        if gnorm <= problem.grad_inf_tol:
            return MinimizeResult(x, f(x), gnorm, it, True, "converged")
        H = problem.hessian(x)
        if kills_constants:
            # reduce to the mean-zero subspace: center H to P H P, then shift
            # the (now exactly null) constant direction out of the kernel
            rm = H.mean(axis=1, keepdims=True)
            cm = H.mean(axis=0, keepdims=True)
            Hp = H - rm - cm + H.mean()
            shift = (abs(np.trace(Hp)) / n) or 1.0
            Hreg = Hp + (shift / n) * np.ones((n, n))
        else:
            Hreg = H
        # Cholesky both solves and certifies positive definiteness (on the
        # mean-zero subspace when the constant direction is shifted out)
        try:
            chol = scipy.linalg.cho_factor(Hreg)
        except scipy.linalg.LinAlgError:
            return MinimizeResult(x, f(x), gnorm, it, False,
                                  "Hessian not positive definite",
                                  hessian_indefinite=True)
        p = proj(scipy.linalg.cho_solve(chol, -gx))
        fx = f(x)
        alpha = 1.0
        for _ in range(60):
            xn = proj(x + alpha * p)
            if f(xn) <= fx + 1e-4 * alpha * float(np.dot(gx, p)):
                break
            alpha *= 0.5
        else:
            return MinimizeResult(x, fx, gnorm, it, False,
                                  "backtracking failed")
        x = xn
    gx = proj(g(x))
    return MinimizeResult(x, f(x), float(np.max(np.abs(gx))),
                          problem.max_iter, False, "max iterations")


def gradient_check(problem, x, h=1e-6, directions=None, rng=None):
    """Max relative error between the analytic gradient and central
    differences of the objective along coordinate (or random) directions."""
    x = np.asarray(x, dtype=float)
    g = problem.gradient(x)
    scale = float(np.max(np.abs(g))) + 1e-30
    if directions is None:
        n = x.size
        if n <= 24:
            dirs = list(np.eye(n))
        else:
            rng = rng or np.random.default_rng(0)
            dirs = [d / np.linalg.norm(d) for d in rng.standard_normal((12, n))]
    else:
        dirs = directions
    worst = 0.0
    for d in dirs:
        fd = (problem.objective(x + h * d) - problem.objective(x - h * d)) / (2 * h)
        worst = max(worst, abs(fd - float(np.dot(g, d))) / scale)
    return worst
