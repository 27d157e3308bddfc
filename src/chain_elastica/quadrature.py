"""Gauss-Legendre rules on unit cells and composite integrals over the
periodic domain [-N, N] with unit elements."""

from functools import lru_cache

import numpy as np

__all__ = ["gauss_rule", "composite_integral"]


@lru_cache(maxsize=16)
def gauss_rule(npoints):
    """Nodes and weights on [0, 1]; exact for polynomials of degree
    2*npoints - 1. Computed once per npoints and returned read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(npoints)
    rule = 0.5 * (nodes + 1.0), 0.5 * weights
    for a in rule:
        a.flags.writeable = False
    return rule


def composite_integral(f, N, npoints=5):
    """Integral of f over [-N, N] by the per-element Gauss rule; f must be
    vectorized. Deterministic summation order (elements then nodes)."""
    t, w = gauss_rule(npoints)
    cells = np.arange(-N, N, dtype=float)
    x = (cells[:, None] + t[None, :]).ravel()
    vals = f(x).reshape(2 * N, npoints)
    return float(np.sum(vals @ w))
