"""Gauss-Legendre rules on unit cells and composite integrals over the
periodic domain [-N, N] with unit elements."""

from functools import lru_cache

import numpy as np

__all__ = ["gauss_rule", "composite_points", "composite_integral"]


@lru_cache(maxsize=16)
def gauss_rule(npoints):
    """Nodes and weights on [0, 1]; exact for polynomials of degree
    2*npoints - 1. Computed once per npoints and returned read-only.

    Golub & Welsch (Math. Comp. 23, 1969): the nodes on [-1, 1] are the
    eigenvalues of the Jacobi matrix of the Legendre recurrence, with
    off-diagonal k / sqrt(4k^2 - 1), and the weights are 2 v_0^2 for the
    normalized eigenvectors v. The rule is then made exactly symmetric."""
    k = np.arange(1.0, npoints)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vectors = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    weights = 2.0 * vectors[0] ** 2
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    rule = 0.5 * (nodes + 1.0), 0.5 * weights
    for a in rule:
        a.flags.writeable = False
    return rule


def composite_points(N, npoints=5):
    """The nodes of the per-element Gauss rule on [-N, N], element by
    element: shape (2N * npoints,)."""
    cells = np.arange(-N, N, dtype=float)
    return (cells[:, None] + gauss_rule(npoints)[0][None, :]).ravel()


def composite_integral(f, N, npoints=5):
    """Integral of f over [-N, N] by the per-element Gauss rule; f must be
    vectorized and is called once, at `composite_points(N, npoints)`.
    Deterministic summation order (elements then nodes)."""
    vals = f(composite_points(N, npoints)).reshape(2 * N, npoints)
    return float(np.sum(vals @ gauss_rule(npoints)[1]))
