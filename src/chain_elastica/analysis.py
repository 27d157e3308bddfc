"""Fourier stability symbols of the homogeneous state, stability constants,
the ordering check between atomistic / truncated / Cauchy-Born symbols, and
the negative-mode exhibit for the unstable second-gradient model.

All symbols are normalized so that the Rayleigh quotient is taken against
||grad v||^2: the Cauchy-Born symbol is the constant sum_rho rho^2 phi_rho''(0).
"""

from dataclasses import dataclass, field

import numpy as np

from .atomistic import AtomisticSystem
from .continuum import HigherOrder4
from .potentials import decay_moment

__all__ = ["atomistic_symbol", "cb_symbol", "hoc_taylor_symbol",
           "direct_symbol", "stability_constants", "find_negative_mode",
           "StabilityReport"]


def cb_symbol(system):
    """sum_rho rho^2 phi_rho''(0): the Cauchy-Born modulus."""
    p2 = system.stiffness0
    return sum(rho * rho * p2[rho] for rho in system.bonds)


def atomistic_symbol(system, x):
    """sum_rho 4 phi_rho''(0) sin^2(x rho / 2) / x^2, continuously extended
    to the Cauchy-Born modulus at x = 0. Computed from the circulant Hessian
    symbol, normalized against ||grad v||^2."""
    x = np.asarray(x, dtype=float)
    p2 = system.stiffness0
    out = np.zeros_like(x)
    small = np.abs(x) < 1e-9
    xs = np.where(small, 1.0, x)
    for rho in system.bonds:
        term = 4.0 * p2[rho] * np.sin(0.5 * xs * rho) ** 2 / xs ** 2
        out += np.where(small, rho * rho * p2[rho], term)
    return out


def hoc_taylor_symbol(system, x):
    """The truncated-Taylor symbol: per bond,
    [(y^2 - y^4/3 + 2 y^6/45) / (x/2)^2] phi_rho''(0) with y = x rho / 2."""
    x = np.asarray(x, dtype=float)
    p2 = system.stiffness0
    out = np.zeros_like(x)
    for rho in system.bonds:
        y2 = (0.5 * x * rho) ** 2
        out += p2[rho] * rho * rho * (1.0 - y2 / 3.0 + 2.0 * y2 ** 2 / 45.0)
    return out


def direct_symbol(model, x):
    """Second-variation symbol of a continuum density at the homogeneous
    state: sum over same-parity slots of the density Hessian with the
    appropriate sign, normalized by ||grad v||^2 = x^2 * |Omega| / 2."""
    x = np.asarray(x, dtype=float)
    W = model.density_hess(np.zeros((5, 1)))[..., 0]
    orders = model.density_orders
    out = np.zeros_like(x)
    for i, m in enumerate(orders):
        for j, n in enumerate(orders):
            if W[i, j] == 0.0 or (m + n) % 2:
                continue
            sign = (-1.0) ** (m // 2 + n // 2)
            out += sign * W[i, j] * x ** (m + n - 2)
    return out


@dataclass
class StabilityReport:
    band: tuple
    lambda_a_per_N: dict
    lambda_a: float
    lambda_cb: float
    lambda_hoc_taylor: float
    lambda_hoc_direct: float
    ordering_holds: bool
    max_ordering_violation: float
    perturbation_kappa_bound: float = field(default=float("inf"))


def _discrete_atomistic_min(system, N):
    """min over the modes k = 1..2N-1 of the spectrum of the chain's
    homogeneous Hessian band (the one Newton certifies with) over the
    discrete-gradient Gram 4 sin^2(pi k / 2N), k taken as min(k, 2N - k) so
    that the sine's argument is in [0, pi/2]."""
    chain = AtomisticSystem(N, system.potential, bonds=system.bonds, F=system.F)
    k = np.arange(1, 2 * N)
    gram = 4.0 * np.sin(np.pi * np.minimum(k, 2 * N - k) / (2 * N)) ** 2
    return float(np.min(chain.hessian(np.zeros(2 * N)).eigenvalues()[1:]
                        / gram))


def stability_constants(system, band=(0.0, 1.0), ngrid=10_000,
                        Ns=(8, 16, 32, 64)):
    """Symbol minima over the band, the discrete atomistic constants per N,
    the pointwise ordering verdict phi_a <= phi_hoc_taylor <= phi_cb, and the
    small-deformation perturbation bound kappa <= Lambda_hoc / (2 M^(3,0))."""
    lo, hi = band
    x = np.linspace(lo, hi, ngrid + 1)[1:]
    a = atomistic_symbol(system, x)
    h = hoc_taylor_symbol(system, x)
    c = np.full_like(x, cb_symbol(system))
    per_N = {N: _discrete_atomistic_min(system, N) for N in Ns}
    viol = max(float(np.max(a - h)), float(np.max(h - c)))
    d = direct_symbol(HigherOrder4(system.potential, system.bonds, system.F), x)
    m30 = decay_moment(system.potential, system.F, system.bonds, 3, 0,
                       (-system.kappa, system.kappa))
    lam_h = float(np.min(h))
    return StabilityReport(
        band=(lo, hi),
        lambda_a_per_N=per_N,
        lambda_a=min(per_N.values()),
        lambda_cb=float(np.min(c)),
        lambda_hoc_taylor=lam_h,
        lambda_hoc_direct=float(np.min(d)),
        ordering_holds=bool(viol <= 1e-12 * max(1.0, float(np.max(np.abs(c))))),
        max_ordering_violation=viol,
        perturbation_kappa_bound=(lam_h / (2.0 * m30) if m30 > 0 else float("inf")),
    )


def find_negative_mode(model, N, mmax=None):
    """Smallest mode index m such that the second variation of the model at
    the homogeneous state is negative on sin(m pi x / N); None if no mode up
    to mmax (default: a little past the mesh scale) goes negative.

    For the harmonic nearest-neighbor second-gradient model this reproduces
    the closed form: smallest m with (m pi / N)^2 > 12."""
    if mmax is None:
        mmax = 2 * N + 4
    m = np.arange(1, mmax + 1)
    q = m * np.pi / N
    sym = direct_symbol(model, q)
    neg = np.nonzero(sym < 0.0)[0]
    if neg.size == 0:
        return None
    return int(m[neg[0]])
