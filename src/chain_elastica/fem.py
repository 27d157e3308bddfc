"""Periodic quintic-spline finite elements on the unit lattice mesh: assembly
of the continuum energies by per-element Gauss quadrature (the Hessian as a
`PeriodicBand`, half-bandwidth 5), the continuum solver certified by Newton's
last factorization, and L2 comparisons between smooth fields."""

import numpy as np

from .optimize import MinimizeProblem, PeriodicBand, newton_minimize
from .quadrature import composite_integral, gauss_rule
from .splines import KernelField, bspline, bspline_kernel

__all__ = ["PeriodicSplineSpace", "FemField", "assemble", "solve_continuum",
           "grad_l2_distance", "energy_gap", "fourier_cos_amplitude",
           "IndefiniteHessianError", "hessian_smallest_eigenvalue"]


class IndefiniteHessianError(RuntimeError):
    """Raised when a continuum solve meets a Hessian that is not positive
    definite on the mean-zero subspace (the unstable model variants)."""


class PeriodicSplineSpace:
    """Degree-5 B-splines with single knots at the lattice sites, period 2N:
    2N coefficients, global C^4 continuity (a conforming subspace of C^3),
    exact on local quintic polynomials."""

    degree = 5

    def __init__(self, N, quad_points=5):
        self.N = int(N)
        self.n = 2 * self.N
        self.quad_points = quad_points
        self.qt, self.qw = gauss_rule(quad_points)
        # active local basis offsets on one element [m, m+1): j = m + o
        self.offsets = np.arange(-2, 4)
        # template[o, r, q] = d^r/dx^r B5(t_q - o)
        self.template = np.array([[bspline(5, self.qt - o, r) for r in range(6)]
                                  for o in self.offsets])

    def field(self, coeffs):
        return FemField(coeffs, self)

    def gather(self, coeffs):
        """coeffs at (m + o) mod n for every element m: shape (n, 6)."""
        m = np.arange(self.n)
        return np.asarray(coeffs, float)[(m[:, None] + self.offsets[None, :]) % self.n]

    def derivatives_at_quad(self, coeffs, orders):
        """dict order -> (n, quad_points) array of grad^r u at quad points."""
        C = self.gather(coeffs)
        return {r: C @ self.template[:, r, :] for r in orders}

    def quad_x(self):
        """Physical quadrature points, shape (n, quad_points)."""
        cells = np.arange(-self.N, self.N, dtype=float)
        return cells[:, None] + self.qt[None, :]

    def scatter_add(self, local):
        """Accumulate per-element local vectors (n, 6) into a global vector."""
        out = np.zeros(self.n)
        for io, o in enumerate(self.offsets):
            out += np.roll(local[:, io], o)
        return out


class FemField(KernelField):
    """Quintic spline field: derivative orders 0..4 are continuous, order 5
    is piecewise constant and higher orders are 0."""

    def __init__(self, coeffs, space):
        super().__init__(coeffs, bspline_kernel(5), space.N)


def _local_load(space, f):
    x = space.quad_x()
    fx = f(x.ravel()).reshape(x.shape)
    # b_j = int f B_j: per element, per offset
    local = np.einsum("mq,oq,q->mo", fx, space.template[:, 0, :], space.qw)
    return space.scatter_add(local)


def assemble(model, space, f=None):
    """The forced continuum problem min E(u) - <f, u> over mean-zero spline
    coefficients, with objective/gradient/Hessian by the element Gauss rule.
    The density is accumulated relative to the homogeneous state to keep the
    tiny energy differences well conditioned."""
    orders = model.density_orders
    w0 = model.density0()
    load = np.zeros(space.n) if f is None else _local_load(space, f)

    def to_g(c):
        """grad^r u at the quadrature points in slot r - 1: (5, n, q)."""
        derivs = space.derivatives_at_quad(c, orders)
        shape = derivs[orders[0]].shape
        g = np.zeros((5,) + shape)
        for r in orders:
            g[r - 1] = derivs[r]
        return g

    def objective(c):
        g = to_g(c)
        margin = model.domain_margin(g)
        if np.any(margin <= 0.0):
            elem = int(np.argmin(margin) // space.quad_points) - space.N
            raise ValueError(f"density domain violation in element "
                             f"[{elem}, {elem + 1}]")
        dens = model.density(g) - w0
        return float(np.sum(dens @ space.qw) - np.dot(load, c))

    idx = np.array(orders) - 1
    T = space.template[:, orders, :]

    def gradient(c):
        dw = model.density_grad(to_g(c))[idx]
        local = np.einsum("rmq,orq,q->mo", dw, T, space.qw)
        return space.scatter_add(local) - load

    # local[m, o, o'] = sum_{r,s,q} w_q d2w[r,s] T[o,r,q] T[o',s,q]
    spec = "rsmq,orq,psq,q->mop"
    path = np.einsum_path(
        spec, np.empty((len(orders), len(orders), space.n, space.quad_points)),
        T, T, space.qw, optimize=True)[0]

    def hessian(c):
        d2w = model.density_hess(to_g(c))[np.ix_(idx, idx)]
        local = np.einsum(spec, d2w, T, T, space.qw, optimize=path)
        H = PeriodicBand(space.n, 5)
        # element m couples its dofs m + o and m + p: row m + o, offset p - o
        for io, o in enumerate(space.offsets):
            H.add(space.offsets - o, local[:, io, :].T, shift=o)
        return H

    return MinimizeProblem(objective, gradient, hessian)


def solve_continuum(model, space, f=None, grad_tol=1e-10, max_iter=500):
    """Minimize the forced continuum energy. Newton's last factorization
    certifies the stationary point as a local minimizer; the unstable
    variants fail that check and raise IndefiniteHessianError (a stationary
    point of an energy that is unbounded below is not a solution of the
    minimization problem)."""
    prob = assemble(model, space, f)
    prob.grad_inf_tol = grad_tol
    prob.max_iter = max_iter
    res = newton_minimize(prob, np.zeros(space.n))
    if res.hessian_indefinite:
        raise IndefiniteHessianError(
            f"continuum model {model.key!r} is not positive definite on the "
            f"mean-zero subspace at N={space.N}: {res.message}")
    field = space.field(res.x - res.x.mean())
    field.result = res
    return field


def hessian_smallest_eigenvalue(model, space):
    """Smallest eigenvalue of the assembled Hessian at the homogeneous state,
    restricted to the mean-zero subspace: the Hessian is circulant there, so
    its eigenvalues are the DFT of its row 0 (k = 0 is the constant mode)."""
    H = assemble(model, space).hessian(np.zeros(space.n))
    row0 = np.bincount(np.arange(-H.b, H.b + 1) % H.n, weights=H.diags[:, 0],
                       minlength=H.n)
    return float(np.min(np.fft.fft(row0).real[1:]))


def grad_l2_distance(a, b, N, npoints=5):
    """Composite Gauss norm ||grad a - grad b||_{L2(-N,N)}."""
    val = composite_integral(lambda x: (a.eval(x, 1) - b.eval(x, 1)) ** 2,
                             N, npoints)
    return float(np.sqrt(max(val, 0.0)))


def energy_gap(system, u_a, model, u_c, npoints=5):
    """|E_a(u_a) - E_c(u_c)| with both energies accumulated relative to the
    homogeneous state (the offsets 2N * sum_rho phi_rho(0) agree exactly)."""
    from .continuum import continuum_energy
    ua = getattr(u_a, "displacement", u_a)
    ea = system.energy_above_homogeneous(ua)
    ec = continuum_energy(model, u_c, system.N, npoints=npoints, relative=True)
    return abs(ea - ec)


def fourier_cos_amplitude(field, wavenumber, N, npoints=5):
    """Coefficient of cos(k x) in the field over [-N, N]."""
    val = composite_integral(lambda x: field.eval(x) * np.cos(wavenumber * x),
                             N, npoints)
    return val / N
