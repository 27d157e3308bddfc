"""Continuum energy densities and stresses for the five model variants and
the pointwise consistency residual against the atomistic stress. The
continuum energy of any smooth field, the stress and first-variation
pairings and the external-work gap, which the tests check these against,
are in `oracles`.

Gradient-argument convention: every model method, the stress included,
reads a field through its gradient stack g of shape (5, ...), which holds
(grad u, grad^2 u, ..., grad^5 u) at the evaluation points (`gradients`).
The density methods also take `args`, the model's `bond_args(g)`, so that
callers that evaluate several of them at one point compute the bond
arguments once and check them against the potential's domain once: passed
`args` are taken as checked (`domain_margin` > 0, as `fem.assemble`
ensures), while args=None computes and checks them.
`density_grad` and `density_hess` return only the planes of the model's
`density_orders`, in that order: shapes (k, ...) and (k, k, ...).

Every model but ill2 has the composed density sum_rho phi_rho(a_rho) with
a_rho = sum_m c_m(rho) grad^m u, and says so by `bond_form`. The FEM then
reads only its per-bond `coeffs` and its potential, and builds the bond
strains from the coefficients directly, one derivative of phi per bond and
point (`fem.assemble`); the density methods serve the stability symbols,
the oracles and ill2. The ill2 density adds (rho^4/24) phi_rho''(a) g2^2
terms that are not functions of one bond argument, so the FEM assembles it
from its density planes, as before. A stress checks the argument of each
bond once, by the checked phi_rho', and takes the higher orders there
unchecked.
"""

import numpy as np

from .atomistic import atomistic_stress
from .optimize import DomainError
from .potentials import shifted

__all__ = [
    "SineField", "continuum_model", "MODEL_KEYS",
    "CauchyBorn", "HigherOrder4", "HigherOrder6",
    "IllPosedSecondGradient", "LatticePointExpansion",
    "gradients", "consistency_residual",
]


class SineField:
    """A sin(k x + phase); all derivatives in closed form."""

    def __init__(self, amplitude, wavenumber, phase=0.0):
        self.amplitude = float(amplitude)
        self.wavenumber = float(wavenumber)
        self.phase = float(phase)

    def eval(self, x, deriv=0):
        x = np.asarray(x, dtype=float)
        return (self.amplitude * self.wavenumber ** deriv
                * np.sin(self.wavenumber * x + self.phase + 0.5 * np.pi * deriv))


def gradients(u, x):
    """The gradient stack g = (grad u, ..., grad^5 u) of the field u at the
    points x, shape (5,) + x.shape: what every model method reads."""
    return np.stack([u.eval(x, j) for j in range(1, 6)])


class _ComposedModel:
    """Variants whose density is sum_rho phi_rho(sum_m c_m(rho) grad^m u).

    Subclasses fix the per-bond argument coefficients c(rho), public as
    `coeffs` (rho -> the five entries at g's slots); the shifted potentials
    phi_rho(r) = phi(r + F rho) carry the deformation gradient.
    """

    key = ""
    density_orders = (1,)     # gradient slots the density depends on
    # is the solution within O(eps^4) of the chain's? Such a model starts
    # best from the quintic spline through the chain (`solve_cell`)
    starts_from_chain = False
    # is the density the bond sum above, so that `fem.assemble` may build it
    # from one strain template per bond (its bond form) instead of from the
    # density methods' planes (its slot form)?
    bond_form = True

    def __init__(self, potential, bonds=(1, 2), F=1.0):
        self.potential = potential
        self.bonds = tuple(int(r) for r in bonds)
        self.F = float(F)
        self.phi = {rho: shifted(potential, self.F, rho) for rho in self.bonds}
        # each bond's coefficients at g's slots, and at the density orders'
        self.coeffs = {rho: self._arg_coeffs(rho) for rho in self.bonds}
        slots = np.array(self.density_orders) - 1
        self._rows = {rho: c[slots] for rho, c in self.coeffs.items()}

    def _arg_coeffs(self, rho):
        raise NotImplementedError

    def bond_args(self, g):
        """rho -> the strain argument of phi_rho at the points of g."""
        g = np.asarray(g, dtype=float)
        flat = g.reshape(len(g), -1)
        return {rho: (c @ flat).reshape(g.shape[1:])
                for rho, c in self.coeffs.items()}

    def _checked_args(self, g, args):
        """`args` as passed, or bond_args(g) after checking that every bond
        length is positive; raises DomainError naming the bond."""
        if args is not None:
            return args
        args = self.bond_args(g)
        for rho in self.bonds:
            if np.any(args[rho] + self.F * rho <= 0.0):
                raise DomainError(f"bond rho={rho}: pair potential "
                                  "evaluated at nonpositive distance")
        return args

    def domain_margin(self, g, args=None):
        """min over bonds of the physical bond length arguments; <= 0 means a
        potential-domain violation somewhere."""
        args = self.bond_args(g) if args is None else args
        first, *rest = self.bonds
        margin = args[first] + self.F * first
        for rho in rest:
            np.minimum(margin, args[rho] + self.F * rho, out=margin)
        return margin

    def density(self, g, args=None):
        args = self._checked_args(g, args)
        return sum(self.phi[rho].derivative_unchecked(0, args[rho])
                   for rho in self.bonds)

    def density0(self):
        """Density of the homogeneous state (all gradients zero)."""
        return float(sum(self.phi[rho].derivative(0, np.zeros(1))[0]
                         for rho in self.bonds))

    def density_grad(self, g, args=None):
        g = np.asarray(g, dtype=float)
        args = self._checked_args(g, args)
        out = np.zeros((len(self.density_orders),) + np.shape(g[0]))
        for rho, c in self._rows.items():
            d1 = self.phi[rho].derivative_unchecked(1, args[rho])
            for i, cm in enumerate(c):
                out[i] += cm * d1
        return out

    def density_hess(self, g, args=None):
        g = np.asarray(g, dtype=float)
        args = self._checked_args(g, args)
        k = len(self.density_orders)
        out = np.zeros((k, k) + np.shape(g[0]))
        for rho, c in self._rows.items():
            d2 = self.phi[rho].derivative_unchecked(2, args[rho])
            for i, cm in enumerate(c):
                for j in range(i, k):
                    out[i, j] += cm * c[j] * d2
        # plane (j, i) is plane (i, j), as c_n c_m == c_m c_n
        for i in range(k):
            out[i + 1:, i] = out[i, i + 1:]
        return out


class CauchyBorn(_ComposedModel):
    """Density sum_rho phi_rho(rho grad u): second-order accurate."""

    key = "cb"
    density_orders = (1,)

    def _arg_coeffs(self, rho):
        return np.array([rho, 0.0, 0.0, 0.0, 0.0])

    def stress(self, g):
        return sum(rho * self.phi[rho].derivative(1, rho * g[0])
                   for rho in self.bonds)


class HigherOrder4(_ComposedModel):
    """Fourth-order model from the bond-midpoint expansion: density depends on
    grad u and grad^3 u through rho grad u + (rho^3/24) grad^3 u."""

    key = "hoc4"
    density_orders = (1, 3)
    starts_from_chain = True

    def _arg_coeffs(self, rho):
        return np.array([rho, 0.0, rho ** 3 / 24.0, 0.0, 0.0])

    def stress(self, g):
        out = np.zeros_like(g[0])
        for rho in self.bonds:
            a = rho * g[0] + rho ** 3 / 24.0 * g[2]
            ap = rho * g[1] + rho ** 3 / 24.0 * g[3]     # d a / dx
            p1 = self.phi[rho].derivative(1, a)
            p2, p3 = (self.phi[rho].derivative_unchecked(j, a) for j in (2, 3))
            out += (rho * p1
                    + rho ** 3 / 24.0 * p3 * ap ** 2
                    + rho ** 4 / 24.0 * p2 * g[2]
                    + rho ** 6 / 576.0 * p2 * g[4])
        return out


class HigherOrder6(_ComposedModel):
    """Sixth-order model: the midpoint expansion kept through grad^5 u."""

    key = "hoc6"
    density_orders = (1, 3, 5)
    starts_from_chain = True

    def _arg_coeffs(self, rho):
        return np.array([rho, 0.0, rho ** 3 / 24.0, 0.0, rho ** 5 / 1920.0])

    def stress(self, g):
        """Eight-term stress, consistent to sixth order; the exact variational
        stress of this density needs derivatives beyond order 6, so the
        expansion truncated at the model's order is used instead."""
        out = np.zeros_like(g[0])
        for rho in self.bonds:
            ar = rho * g[0]
            p1 = self.phi[rho].derivative(1, ar)
            p2, p3, p4, p5 = (self.phi[rho].derivative_unchecked(j, ar)
                              for j in (2, 3, 4, 5))
            out += (rho * p1
                    + rho ** 4 / 12.0 * p2 * g[2]
                    + rho ** 5 / 24.0 * p3 * g[1] ** 2
                    + rho ** 6 / 360.0 * p2 * g[4]
                    + rho ** 7 / 240.0 * p3 * g[2] ** 2
                    + rho ** 7 / 180.0 * p3 * g[1] * g[3]
                    + 7.0 * rho ** 8 / 1440.0 * p4 * g[2] * g[1] ** 2
                    + rho ** 9 / 1920.0 * p5 * g[1] ** 4)
        return out


class IllPosedSecondGradient(_ComposedModel):
    """The second-gradient model with density
    sum_rho [phi_rho(rho g1) - (rho^4/24) phi_rho''(rho g1) g2^2]:
    fourth-order consistent in stress but not positive definite."""

    key = "ill2"
    density_orders = (1, 2)
    # its g2 terms are not functions of one bond argument
    bond_form = False

    def _arg_coeffs(self, rho):
        """Not of composed form: phi_rho and its derivatives are taken at
        rho grad u, and the density methods below add the g2 terms."""
        return np.array([rho, 0.0, 0.0, 0.0, 0.0])

    def density(self, g, args=None):
        g = np.asarray(g, dtype=float)
        args = self._checked_args(g, args)
        out = np.zeros_like(g[0])
        for rho in self.bonds:
            a, phi = args[rho], self.phi[rho].derivative_unchecked
            out += phi(0, a) - rho ** 4 / 24.0 * phi(2, a) * g[1] ** 2
        return out

    def density_grad(self, g, args=None):
        g = np.asarray(g, dtype=float)
        args = self._checked_args(g, args)
        out = np.zeros((2,) + np.shape(g[0]))
        for rho in self.bonds:
            a, phi = args[rho], self.phi[rho].derivative_unchecked
            out[0] += rho * phi(1, a) - rho ** 5 / 24.0 * phi(3, a) * g[1] ** 2
            out[1] += -rho ** 4 / 12.0 * phi(2, a) * g[1]
        return out

    def density_hess(self, g, args=None):
        g = np.asarray(g, dtype=float)
        args = self._checked_args(g, args)
        out = np.zeros((2, 2) + np.shape(g[0]))
        for rho in self.bonds:
            a, phi = args[rho], self.phi[rho].derivative_unchecked
            out[0, 0] += rho ** 2 * phi(2, a) \
                - rho ** 6 / 24.0 * phi(4, a) * g[1] ** 2
            cross = -rho ** 5 / 12.0 * phi(3, a) * g[1]
            out[0, 1] += cross
            out[1, 0] += cross
            out[1, 1] += -rho ** 4 / 12.0 * phi(2, a)
        return out

    def stress(self, g):
        """Variational stress of the density (one integration by parts on the
        second-gradient slot)."""
        out = np.zeros_like(g[0])
        for rho in self.bonds:
            a = rho * g[0]
            p1 = self.phi[rho].derivative(1, a)
            p2, p3 = (self.phi[rho].derivative_unchecked(j, a) for j in (2, 3))
            out += (rho * p1
                    + rho ** 4 / 12.0 * p2 * g[2]
                    + rho ** 5 / 24.0 * p3 * g[1] ** 2)
        return out


class LatticePointExpansion(_ComposedModel):
    """Negative control: the expansion taken at lattice points instead of bond
    midpoints, density sum_rho phi_rho(rho g1 + (rho^2/2) g2 + (rho^3/6) g3).

    `stress` is the stress this derivation produces before any of the
    cancellation structure is available: the plain density-argument stress.
    Its leading consistency defect is the uncancelled second-gradient term,
    which is what makes the model low-order; the tests compare it with the
    full variational stress of the same density."""

    key = "first"
    density_orders = (1, 2, 3)

    def _arg_coeffs(self, rho):
        return np.array([rho, rho ** 2 / 2.0, rho ** 3 / 6.0, 0.0, 0.0])

    def stress(self, g):
        out = np.zeros_like(g[0])
        for rho in self.bonds:
            a = rho * g[0] + rho ** 2 / 2.0 * g[1] + rho ** 3 / 6.0 * g[2]
            out += rho * self.phi[rho].derivative(1, a)
        return out


_MODELS = {m.key: m for m in (CauchyBorn, HigherOrder4, HigherOrder6,
                              IllPosedSecondGradient, LatticePointExpansion)}
MODEL_KEYS = tuple(_MODELS)


def continuum_model(kind, potential, bonds=(1, 2), F=1.0):
    """Model from its config key: cb | hoc4 | hoc6 | ill2 | first."""
    if kind not in _MODELS:
        raise ValueError(f"unknown continuum model {kind!r}; known: {MODEL_KEYS}")
    return _MODELS[kind](potential, bonds, F)


def consistency_residual(system, model, u, kernel, x):
    """R(u; x) = S_a(u; x) - S_model(u; x), with the atomistic stress built
    from the lattice samples of u."""
    sites = np.arange(-system.N, system.N).astype(float)
    return atomistic_stress(system, u.eval(sites, 0), kernel, x) \
        - model.stress(gradients(u, x))

