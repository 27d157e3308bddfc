"""Periodic lattice displacement fields, finite differences, the fourth-order
difference stencils, and the C^4 piecewise degree-9 Hermite interpolant built
from them."""

from functools import lru_cache

import numpy as np

from .splines import PiecewisePoly

__all__ = [
    "PeriodicLatticeField", "finite_difference", "stencil_derivatives",
    "hermite_interpolant", "HermiteInterpolant", "project_mean_zero",
    "check_admissible", "STENCIL_MIN_N",
]


class PeriodicLatticeField:
    """Real values on the sites xi = -N..N-1, extended 2N-periodically."""

    def __init__(self, values, N=None):
        self.values = np.asarray(values, dtype=float).copy()
        if N is None:
            if self.values.size % 2:
                raise ValueError("period must be even (2N sites)")
            N = self.values.size // 2
        if self.values.shape != (2 * N,):
            raise ValueError("need exactly 2N values")
        self.N = N

    def shifted_values(self, rho):
        """values at xi + rho for all sites, via periodic wrap."""
        r = rho % self.values.size
        return np.concatenate((self.values[r:], self.values[:r]))

    def mean(self):
        return float(np.mean(self.values))

    def __len__(self):
        return self.values.size


def finite_difference(v, rho, xi=None):
    """D_rho v(xi) = v(xi + rho) - v(xi); all sites at once if xi is None."""
    diff = v.shifted_values(rho) - v.values
    if xi is None:
        return diff
    return diff[(np.asarray(xi) + v.N) % (2 * v.N)]


def project_mean_zero(v):
    """Subtract the arithmetic mean; idempotent."""
    return PeriodicLatticeField(v.values - v.mean(), v.N)


def check_admissible(v, bonds, kappa):
    """Is |D_rho v| <= kappa for every site and bond? Returns
    (ok, worst_site, worst_rho, worst_value)."""
    worst = (-1.0, 0, 0)
    for rho in bonds:
        d = np.abs(finite_difference(v, rho))
        i = int(np.argmax(d))
        if d[i] > worst[0]:
            worst = (float(d[i]), i - v.N, rho)
    return worst[0] <= kappa, worst[1], worst[2], worst[0]


# The widest stencil has halfwidth 3, so it needs 2N >= 7 sites: N >= 4.
STENCIL_MIN_N = 4


# fourth-order difference approximations of the first four derivatives
def stencil_derivatives(v):
    """Site values of the four difference formulas (d1, d2, d3, d4), each a
    fourth-order-accurate approximation of the corresponding derivative."""
    if v.N < STENCIL_MIN_N:
        raise ValueError("stencils need at least 7 sites")
    u = v.values

    def D(rho):
        return v.shifted_values(rho) - u

    d1 = (-D(2) + 8 * D(1) - 8 * D(-1) + D(-2)) / 12.0
    d2 = (-D(2) + 16 * D(1) + 16 * D(-1) - D(-2)) / 12.0
    d3 = (-D(3) + 8 * D(2) - 13 * D(1) + 13 * D(-1) - 8 * D(-2) + D(-3)) / 8.0
    d4 = (-D(3) + 12 * D(2) - 39 * D(1) - 39 * D(-1) + 12 * D(-2) - D(-3)) / 6.0
    return d1, d2, d3, d4


@lru_cache(maxsize=1)
def _hermite9_matrix():
    """Exact map from the ten nodal data (value + 4 derivatives at both ends
    of a unit interval) to the ten monomial coefficients. Built in exact
    rational arithmetic on first use, not at import (about 2 ms), and
    read-only."""
    from fractions import Fraction
    A = [[0] * 10 for _ in range(10)]
    for m in range(5):
        fact = 1
        for k in range(1, m + 1):
            fact *= k
        A[m][m] = fact
        for i in range(10):
            c = 1
            for k in range(m):
                c *= i - k
            A[5 + m][i] = c
    # exact rational inverse
    n = 10
    M = [[Fraction(A[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
         for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if M[r][col] != 0)
        M[col], M[piv] = M[piv], M[col]
        pv = M[col][col]
        M[col] = [x / pv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[col])]
    H9 = np.array([[float(M[i][n + j]) for j in range(n)] for i in range(n)])
    H9.flags.writeable = False
    return H9


class HermiteInterpolant(PiecewisePoly):
    """Piecewise degree-9 Hermite interpolant matching the site value and the
    four stencil derivatives at every site; globally C^4, reproduces quartic
    data exactly, and agrees with the lattice field at the sites (bit-exactly:
    Horner at t = 0 returns the stored value)."""

    def __init__(self, v):
        self.N = v.N
        d1, d2, d3, d4 = stencil_derivatives(v)
        data = np.stack([v.values, d1, d2, d3, d4], axis=1)  # (2N, 5)
        right = np.concatenate([data[1:], data[:1]])
        nodal = np.concatenate([data, right], axis=1)        # (2N, 10)
        # monomials in t = x - xi on [xi, xi + 1)
        super().__init__(nodal @ _hermite9_matrix().T, -v.N, periodic=True)


def hermite_interpolant(v):
    """The smooth C^4 interpolant of a lattice field."""
    return HermiteInterpolant(v)
