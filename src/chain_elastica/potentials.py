"""Pair potentials with closed-form derivatives up to order 7, their shifted
forms under a macroscopic deformation gradient, and decay moments."""

import numpy as np

from .optimize import DomainError

MAX_DERIVATIVE = 7
POTENTIAL_KINDS = ("harmonic", "lj", "morse")

# _LJ_COEFFS[p][j] = (-1)^j p (p+1) ... (p+j-1): d^j/ds^j s^-p = c s^-(p+j)
_LJ_COEFFS = {p: [np.prod(np.arange(p, p + j), dtype=float) * (-1.0) ** j
                  for j in range(MAX_DERIVATIVE + 1)]
              for p in (6, 12)}

__all__ = [
    "PairPotential", "ShiftedPotential",
    "make_potential", "shifted", "decay_moment", "MAX_DERIVATIVE",
    "POTENTIAL_KINDS",
]


class PairPotential:
    """A pair interaction phi(r) with analytic derivatives.

    kind: 'harmonic'  phi(r) = (r/eps - 1)^2 / 2
          'lj'        phi(r) = (r/eps)^-12 - 2 (r/eps)^-6   (minimum -1 at r = eps)
          'morse'     phi(r) = (1 - exp(-a (r/eps - 1)))^2 - 1
    eps is the length scale of the scaled potentials; internally the library
    works in lattice units, i.e. eps = 1.
    """

    def __init__(self, kind, eps=1.0, morse_a=4.0):
        if kind not in POTENTIAL_KINDS:
            raise ValueError(f"unknown potential kind {kind!r}")
        if eps <= 0:
            raise ValueError("scale eps must be positive")
        self.kind = kind
        self.eps = float(eps)
        self.morse_a = float(morse_a)

    def derivative(self, j, r):
        """phi^(j)(r) for 0 <= j <= 7; raises DomainError unless every
        r > 0."""
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0.0):
            raise DomainError("pair potential evaluated at nonpositive distance")
        return self.derivative_unchecked(j, r)

    def derivative_unchecked(self, j, r):
        """`derivative` for distances r the caller has already checked to be
        positive: the solvers check their points once (the chain's
        `_strains`, the FEM's bond lengths), not once per call."""
        if not 0 <= j <= MAX_DERIVATIVE:
            raise ValueError(f"derivative order {j} unsupported (max {MAX_DERIVATIVE})")
        s = np.asarray(r, dtype=float) / self.eps
        scale = self.eps ** (-j)
        if self.kind == "harmonic":
            if j == 0:
                return 0.5 * (s - 1.0) ** 2
            if j == 1:
                return scale * (s - 1.0)
            if j == 2:
                return scale * np.ones_like(s)
            return np.zeros_like(s)
        if self.kind == "lj":
            c12, c6 = _LJ_COEFFS[12][j], _LJ_COEFFS[6][j]
            return scale * (c12 * s ** (-12.0 - j) - 2.0 * c6 * s ** (-6.0 - j))
        # morse: phi = E^2 - 2E with E = exp(-a (s - 1))
        a = self.morse_a
        E = np.exp(-a * (s - 1.0))
        if j == 0:
            return E * E - 2.0 * E - 0.0
        return scale * ((-2.0 * a) ** j * E * E - 2.0 * (-a) ** j * E)

    @property
    def quadratic(self):
        """Is phi quadratic (phi''' = 0)? Then the chain's energy and every
        continuum model's density are quadratic in the displacement."""
        return self.kind == "harmonic"

    def __call__(self, r):
        return self.derivative(0, r)

    def __repr__(self):
        return f"PairPotential({self.kind!r}, eps={self.eps})"


def make_potential(name, eps=1.0, **params):
    """Potential from its config string: 'harmonic', 'lj' or 'morse'."""
    return PairPotential(name, eps=eps, morse_a=params.get("morse_a", 4.0))


class ShiftedPotential:
    """phi_rho(r) = phi(r + F rho): the bond-rho slice of the energy at
    macroscopic deformation gradient F, as a function of the strain r."""

    def __init__(self, base, F, rho):
        if F <= 0:
            raise ValueError("deformation gradient F must be positive")
        self.base = base
        self.F = float(F)
        self.rho = int(rho)
        self.shift = self.F * self.rho

    def derivative(self, j, s):
        """phi_rho^(j)(s); raises DomainError naming the bond unless every
        length s + F·rho is positive."""
        try:
            return self.base.derivative(j, np.asarray(s, dtype=float) + self.shift)
        except DomainError as exc:
            raise DomainError(f"bond rho={self.rho}: {exc}") from None

    def derivative_unchecked(self, j, s):
        """`derivative` for strains whose lengths the caller has checked."""
        return self.base.derivative_unchecked(
            j, np.asarray(s, dtype=float) + self.shift)

    def __call__(self, s):
        return self.derivative(0, s)


def shifted(p, F, rho):
    """Shifted potential phi_rho for a bond of length rho at gradient F."""
    return ShiftedPotential(p, F, rho)


def decay_moment(potential, F, bonds, j, s, strain_interval, samples=4097):
    """M^(j,s) = sum_rho rho^(j+s) sup |phi_rho^(j)| over the given strain
    interval (the admissible set; the sup over all of (0, inf) diverges for
    Lennard-Jones and Morse). The sup is taken by dense sampling."""
    lo, hi = strain_interval
    if not lo < hi:
        raise ValueError("empty strain interval")
    g = np.linspace(lo, hi, samples)
    total = 0.0
    for rho in bonds:
        phi_rho = shifted(potential, F, rho)
        total += rho ** (j + s) * float(np.max(np.abs(phi_rho.derivative(j, g))))
    return total
