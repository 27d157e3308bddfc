"""The periodic atomistic chain: energy, first/second variations, solver, and
the distributional atomistic stress. The circulant/DFT oracles that check
them are in `oracles`."""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .optimize import (DomainError, PeriodicBand, evaluate_once,
                       newton_minimize, stack_of_one)
from .potentials import shifted
from .splines import KernelField

__all__ = ["AtomisticSystem", "AtomisticSolution", "atomistic_stress",
           "check_admissible"]


class AtomisticSystem:
    """2N-periodic chain with pair potential phi, bonds R = {1..r_cut},
    deformation gradient F (lattice units default 1) and a mean-zero dead
    load. Displacements and the load are arrays over the sites
    xi = -N..N-1. Immutable; share freely."""

    def __init__(self, N, potential, bonds=(1, 2), F=1.0, force=None, kappa=None):
        self.N = int(N)
        self.potential = potential
        self.bonds = tuple(int(r) for r in bonds)
        if any(r < 1 for r in self.bonds):
            raise ValueError("bonds must be positive integers")
        self.F = float(F)
        self.phi = {rho: shifted(potential, self.F, rho) for rho in self.bonds}
        self.force = np.zeros(2 * self.N) if force is None else \
            np.asarray(force, dtype=float)
        if self.force.shape != (2 * self.N,):
            raise ValueError(f"force has length {self.force.size}, not the "
                             f"2N = {2 * self.N} of the chain's sites")
        if abs(self.force.sum()) > 1e-10 * max(1, 2 * self.N):
            raise ValueError("external force must be mean-zero")
        self.kappa = self.F / 4.0 if kappa is None else float(kappa)

    @cached_property
    def _phi0(self):
        """phi_rho(0) per bond, the homogeneous offset of the energy; the
        homogeneous lengths F rho are positive."""
        return {rho: float(self.phi[rho].derivative_unchecked(0, 0.0))
                for rho in self.bonds}

    @cached_property
    def stiffness0(self):
        """phi_rho''(0) per bond: the stiffness of the homogeneous state,
        which its Hessian's DFT eigenvalues and the stability symbols are
        built from."""
        return {rho: float(self.phi[rho].derivative(2, np.zeros(1))[0])
                for rho in self.bonds}

    def r_cut(self):
        return max(self.bonds)

    def _strains(self, u):
        """D_rho u(xi) for every bond; raises DomainError if a bond is
        compressed past zero length (Lennard-Jones/Morse domain)."""
        out, n = {}, len(u)
        for rho in self.bonds:
            r = rho % n
            d = np.concatenate((u[r:] - u[:n - r], u[:r] - u[n - r:]))
            # rounding is monotone: the smallest strain has the shortest
            # length (fmin skips NaN, as the comparison does)
            if np.fmin.reduce(d) + self.F * rho <= 0.0:
                xi = int(np.argmax(d + self.F * rho <= 0.0)) - self.N
                raise DomainError(f"bond (xi={xi}, rho={rho}) collapsed to "
                                  "nonpositive length")
            out[rho] = d
        return out

    def energy_above_homogeneous(self, u, strains=None):
        """E_a(u) - E_a(0) with E_a(u) = sum_xi sum_rho phi_rho(D_rho u(xi)),
        accumulated term by term (less `_phi0`) to avoid the O(N)
        cancellation of the homogeneous offset. Here and in `gradient` and
        `hessian`, `strains` may pass in `_strains(u)` computed once."""
        strains = self._strains(u) if strains is None else strains
        total = 0.0
        for rho in self.bonds:
            total += float((self.phi[rho].derivative_unchecked(0, strains[rho])
                            - self._phi0[rho]).sum())
        return total

    def gradient(self, u, strains=None):
        strains = self._strains(u) if strains is None else strains
        g, n = np.zeros_like(u), len(u)
        for rho in self.bonds:
            fb = self.phi[rho].derivative_unchecked(1, strains[rho])
            r = rho % n
            g[r:] += fb[:n - r] - fb[r:]
            g[:r] += fb[n - r:] - fb[:r]
        return g

    def hessian(self, u, strains=None):
        """Periodic-banded Hessian, half-bandwidth r_cut (circulant at u = 0),
        from the bond stiffnesses phi_rho''(D_rho u)."""
        strains = self._strains(u) if strains is None else strains
        H = PeriodicBand(2 * self.N, self.r_cut())
        for rho in self.bonds:
            k = self.phi[rho].derivative_unchecked(2, strains[rho])
            H.add(0, k)
            H.add(0, k, shift=rho)
            H.add(rho, -k)
            H.add(-rho, -k, shift=rho)
        return H

    def objective_problem(self, max_iter=500):
        """E_a(u) - <f, u> as a MinimizeProblem over mean-zero vectors, a
        stack of one; its
        callbacks share the strains of one point (`evaluate_once`), and the
        Hessian callback builds a fresh band from them at every call. It is
        `quadratic` when the potential is."""
        f = self.force
        strains = evaluate_once(self._strains)

        def obj(u):
            return (self.energy_above_homogeneous(u, strains(u))
                    - float(np.dot(f, u)))

        def grad(u):
            return self.gradient(u, strains(u)) - f

        def hess(u):
            return self.hessian(u, strains(u))

        return stack_of_one(obj, grad, hess, max_iter=max_iter,
                            quadratic=self.potential.quadratic)

    def solve(self, max_iter=500, u0=None):
        """Minimize from u0 (zero by default); a start with a collapsed
        bond raises DomainError."""
        prob = self.objective_problem(max_iter)
        x0 = np.zeros(2 * self.N) if u0 is None else np.asarray(u0, float)
        res, = newton_minimize(prob, x0[None])
        if res.outside_domain:
            raise DomainError(res.message)
        u = res.x - res.x.mean()
        strains = self._strains(u)
        ok, site, rho, worst = check_admissible(strains, self.kappa)
        return AtomisticSolution(u, self.energy_above_homogeneous(u, strains),
                                 res.grad_norm, res.iterations,
                                 res.converged, admissible=ok,
                                 worst_bond=(site, rho, worst),
                                 message=res.message)


@dataclass
class AtomisticSolution:
    displacement: np.ndarray            # mean-zero, over the sites
    energy_above_homogeneous: float     # E_a(displacement) - E_a(0), no load
    grad_norm: float
    iterations: int
    converged: bool
    admissible: bool
    worst_bond: tuple
    message: str = ""       # the minimizer's exit message


def atomistic_stress(system, u, kernel, x):
    """S_a(u; x) = sum_xi sum_rho rho phi_rho'(D_rho u(xi)) chi_{xi,rho}(x),
    periodic, for displacements u over the sites xi = -N..N-1, as
    `AtomisticSystem.gradient` takes them.

    Since chi_{xi,rho} = (1/rho) sum_{k<rho} chi_{xi+k,1}, this equals
    sum_eta g(eta) chi_{eta,1}(x), where the segment force
    g(eta) = sum_rho sum_{k<rho} phi_rho'(D_rho u(eta - k)) is carried across
    [eta, eta + 1] and chi_{eta,1}(x) = K(x - eta - 1/2) for the kernel's
    `segment_kernel` K: one periodic spline, evaluated in one pass."""
    strains = system._strains(u)    # raises on a collapsed bond
    g, n = np.zeros(len(u)), len(u)
    for rho in system.bonds:
        force = system.phi[rho].derivative_unchecked(1, strains[rho])
        for k in range(rho):
            k %= n
            g[k:] += force[:n - k]
            g[:k] += force[n - k:]
    field = KernelField(g, kernel.segment_kernel)
    return field.eval(np.asarray(x, dtype=float) - 0.5)


def check_admissible(strains, kappa):
    """Is |D_rho u| <= kappa for every site and bond, given the strains
    D_rho u of `AtomisticSystem._strains`? Returns
    (ok, worst_site, worst_rho, worst_value)."""
    worst = (-1.0, 0, 0)
    for rho, d in strains.items():
        d = np.abs(d)
        i = int(np.argmax(d))
        if d[i] > worst[0]:
            worst = (float(d[i]), i - len(d) // 2, rho)
    return worst[0] <= kappa, worst[1], worst[2], worst[0]
