"""Unconstrained minimization over mean-zero vectors: the periodic banded
Hessian, Newton whose grounded banded Cholesky solve also certifies the
minimizer, and a central-difference gradient check."""

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

__all__ = ["PeriodicBand", "MinimizeProblem", "MinimizeResult",
           "newton_minimize", "gradient_check"]


class PeriodicBand:
    """Symmetric periodic-banded n×n matrix with H·1 = 0, stored in O(n) as
    diags[b + o, m] = H[m, (m + o) % n] for |o| <= b. When n <= 2b, aliased
    offsets hold parts of one entry, which `solve` and `toarray` sum."""

    def __init__(self, n, b):
        self.n, self.b = n, b
        self.diags = np.zeros((2 * b + 1, n))

    def add(self, o, values, shift=0):
        """H[(m + shift) % n, (m + shift + o) % n] += values[m] for all m."""
        self.diags[self.b + o] += np.roll(values, shift)

    def _entries(self):
        rows = np.broadcast_to(np.arange(self.n), self.diags.shape)
        cols = (rows + np.arange(-self.b, self.b + 1)[:, None]) % self.n
        return rows.ravel(), cols.ravel(), self.diags.ravel()

    def solve(self, rhs):
        """Mean-zero solution of H x = rhs for mean-zero rhs. Dof 0 is
        grounded and the rest ordered 1, n-1, 2, n-2, ..., an ordinary band
        of half-width 2b (Golub & Van Loan, Matrix Computations, §4.3). As
        H·1 = 0, the grounded matrix is positive definite iff H is on
        mean-zero vectors; if not, `scipy.linalg.LinAlgError` is raised."""
        n = self.n
        j = np.arange(n)
        pos = np.where(2 * j <= n, 2 * j - 2, 2 * (n - j) - 1)   # pos[0] < 0
        order = np.argsort(pos)[1:]
        rows, cols, vals = self._entries()
        pi, pj = pos[rows], pos[cols]
        lower = (rows != 0) & (cols != 0) & (pi >= pj)
        ab = np.zeros((min(2 * self.b, n - 2) + 1, n - 1))
        np.add.at(ab, (pi[lower] - pj[lower], pj[lower]), vals[lower])
        factor = scipy.linalg.cholesky_banded(ab, lower=True)
        x = np.zeros(n)
        x[order], v = scipy.linalg.cho_solve_banded(
            (factor, True), np.column_stack([rhs[order], np.ones(n - 1)])).T
        # H·1 = 0 holds only to roundoff, so row 0 keeps a residual r0 of order
        # n·|x|·1e-16; the mean-zero solution solves H x = rhs - (r0 / n)·1
        r0 = rhs[0] - self.diags[:, 0] @ x[np.arange(-self.b, self.b + 1) % n]
        x[order] -= (r0 / n) * v
        return x - x.mean()

    def toarray(self):
        """The dense matrix, for tests."""
        rows, cols, vals = self._entries()
        H = np.zeros((self.n, self.n))
        np.add.at(H, (rows, cols), vals)
        return H


@dataclass
class MinimizeProblem:
    objective: Callable
    gradient: Callable
    hessian: Callable          # x -> PeriodicBand
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
    """Newton with energy backtracking over mean-zero vectors.

    The Hessian is factored at every iterate before the convergence test, so
    a converged point is also certified as a local minimizer. An indefinite
    Hessian is flagged (that failure mode is informative: it exhibits the
    unstable continuum variants)."""
    x = np.asarray(x0, dtype=float) - np.mean(x0)
    f, g = problem.objective, problem.gradient
    for it in range(problem.max_iter + 1):
        gx = g(x)
        gx = gx - gx.mean()
        gnorm = float(np.max(np.abs(gx)))
        try:
            p = problem.hessian(x).solve(-gx)
        except scipy.linalg.LinAlgError:
            return MinimizeResult(x, f(x), gnorm, it, False,
                                  "Hessian not positive definite",
                                  hessian_indefinite=True)
        if gnorm <= problem.grad_inf_tol:
            return MinimizeResult(x, f(x), gnorm, it, True, "converged")
        if it == problem.max_iter:
            break
        fx = f(x)
        alpha = 1.0
        for _ in range(60):
            xn = x + alpha * p
            xn -= xn.mean()
            if f(xn) <= fx + 1e-4 * alpha * float(np.dot(gx, p)):
                break
            alpha *= 0.5
        else:
            return MinimizeResult(x, fx, gnorm, it, False,
                                  "backtracking failed")
        x = xn
    return MinimizeResult(x, f(x), gnorm, problem.max_iter, False,
                          "max iterations")


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
