"""Periodic quintic-spline finite elements on the unit lattice mesh: assembly
of the continuum energies by per-element Gauss quadrature (objective,
gradient and Hessian share one evaluation per point; one slice scatter
along the dofs adds up the load, the gradient and the dof-major rows of the
Hessian `PeriodicBand`, which is one element's stencil in every column when
the planes are equal at every element), the continuum solver certified by
Newton's last factorization, the gradient L2 distance between smooth fields
and the energy gap between a chain and a continuum solution.

A composed density sum_rho phi_rho(a_rho) (every model but ill2) is
assembled in bond form, from one strain template per bond and phi's
derivatives at the bond lengths; ill2's, whose g2 terms are not functions
of one bond argument, in slot form, from its density methods' planes of
the gradient orders. Both build their Hessian bands by one builder."""

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .optimize import (DomainError, MinimizeProblem, PeriodicBand,
                       evaluate_once, newton_minimize)
from .quadrature import composite_integral, composite_points, gauss_rule
from .splines import KernelField, bspline, bspline_kernel

__all__ = ["PeriodicSplineSpace", "FemField", "ContinuumProblem", "assemble",
           "solve_continuum", "grad_l2_distance", "energy_gap",
           "IndefiniteHessianError"]


class IndefiniteHessianError(RuntimeError):
    """Raised when a continuum solve meets a Hessian that is not positive
    definite on the mean-zero subspace (the unstable model variants)."""


# Gauss points per element of every FEM integral
QUAD_POINTS = 5


@lru_cache(maxsize=None)
def _gauss_template(degree):
    """template[o, r, q] = d^r/dx^r B_degree(t_q - o) at the Gauss nodes t_q,
    r = 0..degree, for the offsets o = -2..3 of `PeriodicSplineSpace`: the
    sites j = m + o whose B-splines of degree <= 5 reach element [m, m + 1).
    The same for every N, so computed once per degree and read-only."""
    x = gauss_rule(QUAD_POINTS)[0] - np.arange(-2, 4)[:, None]
    template = np.stack([bspline(degree, x, r) for r in range(degree + 1)],
                        axis=1)
    template.flags.writeable = False
    return template


class PeriodicSplineSpace:
    """Degree-5 B-splines with single knots at the lattice sites, period 2N:
    2N coefficients, global C^4 continuity (a conforming subspace of C^3),
    exact on local quintic polynomials."""

    degree = 5

    def __init__(self, N):
        self.N = int(N)
        self.n = 2 * self.N
        self.qw = gauss_rule(QUAD_POINTS)[1]
        # active local basis offsets on one element [m, m+1): j = m + o
        self.offsets = np.arange(-2, 4)
        self._sites = (self.offsets[:, None] + np.arange(self.n)) % self.n
        self.template = _gauss_template(5)
        # element m's offset o lands on dof (m + o) % n: a shift by o % n
        self._shifts = [int(o) % self.n for o in self.offsets]

    def field(self, coeffs):
        return FemField(coeffs, self)

    def gather(self, coeffs):
        """coeffs at (m + o) mod n for every offset o and element m: (6, n)."""
        return np.asarray(coeffs, float)[self._sites]

    def derivatives_at_quad(self, coeffs, orders):
        """(5, QUAD_POINTS, n) array with grad^r u at the quadrature points
        in slot r - 1 for each r in orders, element m in column m, and zero
        slots for the other orders. Each product is written in place."""
        C = self.gather(coeffs)
        g = np.zeros((5, QUAD_POINTS, self.n))
        for r in orders:
            np.matmul(self.template[:, r, :].T, C, out=g[r - 1])
        return g

    def gradient_at_points(self, field):
        """grad field at `composite_points(N)`, element by element, for a
        `KernelField` of `bspline_kernel(d)`, d <= 5, on this mesh: one
        gather of its coefficients times the Gauss template, with no
        pp-form table."""
        return (self.gather(field.coeffs).T
                @ _gauss_template(field.kernel.degree)[:, 1]).ravel()

    def load_vector(self, f):
        """b_j = int f B_j by the element Gauss rule, for a vectorized f."""
        fx = f(composite_points(self.N)).reshape(self.n, QUAD_POINTS)
        return self.scatter_add(
            np.einsum("mq,oq,q->om", fx, self.template[:, 0, :], self.qw))

    def scatter_add(self, local):
        """out[j] = sum_o local[o][(j - o) % n], summed in the order of
        `offsets`, each offset's (n, ...) part shifted by o % n in two slice
        adds. `local` is a (6, n, ...) array, or an iterable of six parts
        made one at a time so that they are never all held at once."""
        n, out = self.n, None
        for s, part in zip(self._shifts, local):
            if out is None:
                out = np.zeros(part.shape)
            if s:
                out[:s] += part[n - s:]
            out[s:] += part[:n - s]
        return out


class FemField(KernelField):
    """Quintic spline field: derivative orders 0..4 are continuous, order 5
    is piecewise constant and higher orders are 0. A field returned by
    `solve_continuum` carries the Newton `result` and its `energy` above the
    homogeneous state."""

    result = None
    energy = None

    def __init__(self, coeffs, space):
        super().__init__(coeffs, bspline_kernel(5), space.N)


@dataclass
class ContinuumProblem(MinimizeProblem):
    """A MinimizeProblem whose `energy` is the objective without its load
    term: c -> E(c) - E(0) by the element Gauss rule."""
    energy: Callable = None


def _band_kernel(by_pair):
    """The Hessian kernel (6, 11, K) of element terms by_pair[o, p, k]:
    element m couples dofs m + o and m + p, band row m + o, offset p - o.
    So kernel[o] puts the rows (o, p) at the 11 band offsets, and maps the
    elements m = j - o of the rows j to the band's diagonals. Read-only."""
    kernel = np.zeros((6, 11, by_pair.shape[-1]))
    for io in range(6):
        kernel[io, 5 - io:11 - io] = by_pair[io]
    kernel.flags.writeable = False
    return kernel


@lru_cache(maxsize=16)
def _element_kernels(orders):
    """The slot form's element integrals as matrix products, for the
    density orders; computed once and read-only:
      gradient  local[o, m] = sum_rq w_q T[o, r, q] dw[r, q, m]
      Hessian   local[o, p, m] = sum_rsq w_q T[o, r, q] T[p, s, q]
                                               * d2w[r, s, q, m]
    with T the `_gauss_template(5)` rows of the orders, and the Hessian's
    in `_band_kernel` layout."""
    qw = gauss_rule(QUAD_POINTS)[1]
    T = _gauss_template(5)[:, orders, :]
    grad_kernel = (T * qw).reshape(6, -1)
    grad_kernel.flags.writeable = False
    by_pair = np.einsum("orq,psq,q->oprsq", T, T, qw).reshape(6, 6, -1)
    return grad_kernel, _band_kernel(by_pair)


@lru_cache(maxsize=16)
def _bond_kernels(coeffs):
    """The bond form's tables for the per-bond coefficient rows `coeffs`
    (a tuple of five-entry tuples, entry m - 1 for grad^m u), computed once
    and read-only. Row k = (bond rho, Gauss point q) of
      template[k, o] = sum_m c_m(rho) T[o, m, q]
    gives the bond strains at an element from its six coefficients, with T
    the `_gauss_template(5)`; w[k] = w_q, and
      gradient  local[o, m] = sum_k w_k template[k, o] phi'(k, m)
      Hessian   local[o, p, m] = sum_k w_k template[k, o] template[k, p]
                                                   * phi''(k, m)
    the gradient's as (6, K) rows, the Hessian's in `_band_kernel`
    layout."""
    qw = gauss_rule(QUAD_POINTS)[1]
    T = _gauss_template(5)[:, 1:, :]
    template = np.concatenate([np.einsum("m,omq->qo", c, T)
                               for c in np.array(coeffs)])
    w = np.tile(qw, len(coeffs))
    grad_kernel = template.T * w
    for a in (template, w, grad_kernel):
        a.flags.writeable = False
    return (template, w, grad_kernel,
            _band_kernel(grad_kernel[:, None] * template.T))


def _check_domain(margin, space):
    """Raise DomainError naming the element of the smallest `margin`, a
    (..., n) array with element m in column m, unless all of it is
    positive."""
    if margin.min() <= 0.0:
        elem = int(np.argmin(margin) % space.n) - space.N
        raise DomainError(f"density domain violation in element "
                          f"[{elem}, {elem + 1}]")


def _slot_form(model, space):
    """`assemble`'s evaluation of any model through its density methods:
    the gradient stack g at the Gauss points and the model's bond arguments,
    with the (k, n) first-derivative and (k^2, n) second-derivative planes
    of its `density_orders`, and the matching element kernels."""
    orders, n = model.density_orders, space.n
    w0 = model.density0()

    def evaluate(c):
        g = space.derivatives_at_quad(c, orders)
        args = model.bond_args(g)
        _check_domain(model.domain_margin(g, args), space)
        return g, args

    def energy(at):
        g, args = at
        return float(np.sum(space.qw @ (model.density(g, args) - w0)))

    def first(at):
        return model.density_grad(*at).reshape(-1, n)

    def second(at, cols):
        g, args = at
        g, args = g[..., cols], {rho: a[..., cols] for rho, a in args.items()}
        return model.density_hess(g, args).reshape(-1, g.shape[-1])

    return (evaluate, energy, first, second) + _element_kernels(orders)


def _bond_form(model, space):
    """`assemble`'s evaluation of a composed density sum_rho phi_rho(a_rho)
    (`bond_form`): the bond lengths a_rho + F rho at every bond and Gauss
    point, one (B Q, 6) x (6, n) product, and phi', phi'' there, one call
    of the potential each, with the `_bond_kernels`."""
    template, w, grad_kernel, hess_kernel = _bond_kernels(
        tuple(tuple(c.tolist()) for c in model.coeffs.values()))
    shift = np.repeat(model.F * np.array(model.bonds, float),
                      QUAD_POINTS)[:, None]
    phi = model.potential.derivative_unchecked
    phi0 = phi(0, shift)

    def evaluate(c):
        lengths = template @ space.gather(c)
        lengths += shift
        _check_domain(lengths, space)
        return lengths

    def energy(lengths):
        return float(np.sum(w @ (phi(0, lengths) - phi0)))

    def first(lengths):
        return phi(1, lengths)

    def second(lengths, cols):
        return phi(2, lengths[:, cols])

    return evaluate, energy, first, second, grad_kernel, hess_kernel


def _hessian_band(space, hess_kernel, planes, equal):
    """The band of the element Hessians from their planes, (K, columns)
    with element m in column m, contracted with `hess_kernel`. When the
    planes are `equal` at every element (a quadratic problem, whose planes
    then hold 4 columns), or found to be, every column of the band is one
    element's stencil, summed in offset order as `scatter_add` sums it.
    Its products take 4 columns, as BLAS rounds 1- and 2-column ones
    differently from wider ones. Otherwise dof-major (n, 11) element rows
    are streamed (not stacked) through the scatter and written into the
    band once."""
    H = PeriodicBand(space.n, 5)
    if equal or np.all(planes == planes[:, :1]):
        one = np.asfortranarray(planes[:, :4])
        H.diags[:] = sum(hess_kernel[io] @ one for io in range(6))[:, :1]
        return H
    H.diags[:] = space.scatter_add(
        planes.T @ hess_kernel[io].T for io in range(6)).T
    return H


def assemble(model, space, f=None):
    """The forced continuum problem min E(u) - <f, u> over mean-zero spline
    coefficients, with objective/gradient/Hessian by the element Gauss rule;
    f is the load density (vectorized), or its `space.load_vector`, which
    several models on one space can share. The density is accumulated
    relative to the homogeneous state to keep the tiny energy differences
    well conditioned.

    A model whose density is a bond sum (`bond_form`: cb, hoc4, hoc6,
    first) is assembled in bond form: the strain of bond rho at the Gauss
    points is sum_m c_m(rho) grad^m u, so one template row per bond and
    point maps an element's six coefficients to it, and phi, phi' and phi''
    of every bond are one call of the potential at the lengths. ill2's
    density is not such a sum, and is assembled in slot form, from the
    planes of its density methods at the gradient stack.

    The three callbacks share one evaluation per coefficient vector
    (`evaluate_once`): the bond lengths, or the gradient stack and bond
    arguments, whose domain is checked there once. The old evaluation is
    dropped before a new one is made. The Hessian callback builds a fresh
    band from the second-derivative planes at every call. The problem's
    `energy` is the objective without its load term; it keeps its last
    value, so `solve_continuum` reads the one of Newton's last objective
    call. Every model's density is quadratic in the gradients exactly when
    the potential is, and so is the problem (`quadratic`): then its planes
    are equal at every point, and the Hessian evaluates those of 4
    elements."""
    if f is None:
        load = np.zeros(space.n)
    else:
        load = space.load_vector(f) if callable(f) else np.asarray(f, float)
    quadratic = model.potential.quadratic
    cols = slice(0, 4) if quadratic else slice(None)
    evaluate, energy_at, first, second, grad_kernel, hess_kernel = (
        _bond_form if model.bond_form else _slot_form)(model, space)
    at = evaluate_once(evaluate)

    @evaluate_once
    def energy(c):
        return energy_at(at(c))

    def objective(c):
        return energy(c) - float(np.dot(load, c))

    def gradient(c):
        return space.scatter_add(grad_kernel @ first(at(c))) - load

    def hessian(c):
        return _hessian_band(space, hess_kernel, second(at(c), cols),
                             quadratic)

    return ContinuumProblem(objective, gradient, hessian,
                            quadratic=quadratic, energy=energy)


def solve_continuum(model, space, f=None, max_iter=500, x0=None):
    """Minimize the forced continuum energy from the coefficients x0 (zero
    by default). Newton's last factorization certifies the stationary point
    as a local minimizer; the unstable variants fail that check and raise
    IndefiniteHessianError (a stationary point of an energy that is
    unbounded below is not a solution of the minimization problem), and a
    start outside the potential's domain raises DomainError. f is passed
    to `assemble`. The field's `energy` is the problem's at the returned
    coefficients, from the evaluation of Newton's last objective call."""
    prob = assemble(model, space, f)
    prob.max_iter = max_iter
    try:
        res = newton_minimize(prob, np.zeros(space.n) if x0 is None else x0)
    except DomainError as err:
        raise DomainError(
            f"continuum model {model.key!r} starts outside the potential's "
            f"domain at N={space.N}: {err}") from None
    if res.hessian_indefinite:
        raise IndefiniteHessianError(
            f"continuum model {model.key!r} is not positive definite on the "
            f"mean-zero subspace at N={space.N}: {res.message}")
    field = space.field(res.x - res.x.mean())
    field.result = res
    field.energy = prob.energy(res.x)
    return field


def grad_l2_distance(a, b, N, npoints=5):
    """Composite Gauss norm ||grad a - grad b||_{L2(-N,N)}. Either field may
    be given as its gradient at the rule's points (`composite_points`), for
    a field measured against several others."""
    def grad(u, x):
        return u if isinstance(u, np.ndarray) else u.eval(x, 1)

    val = composite_integral(lambda x: (grad(a, x) - grad(b, x)) ** 2,
                             N, npoints)
    return float(np.sqrt(max(val, 0.0)))


def energy_gap(sol_a, u_c):
    """|E_a - E_c| for an `AtomisticSolution` sol_a and a field u_c from
    `solve_continuum`, each energy the one its solve carries, accumulated
    relative to the homogeneous state (the offsets 2N * sum_rho phi_rho(0)
    agree exactly): E_c comes from the solve's element Gauss rule, the
    5-point rule on the unit elements."""
    return abs(sol_a.energy_above_homogeneous - u_c.energy)
