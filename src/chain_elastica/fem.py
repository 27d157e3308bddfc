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
# `scatter_add` takes one bincount up to this n and slice adds above it:
# for three stacked (6, n) arrays, 1.7 against 32 us at n = 16, 9 against
# 33 at 256, 33 against 40 at 1024 and 67 against 46 at 2048, where the
# bincount's (rows, 6, n) targets also take one more array of that size
_BINCOUNT_MAX_N = 512


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
        self._stacked = {}

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
        """b_j = int f B_j by the element Gauss rule, for a vectorized f.
        Each element's sum runs over its Gauss points in order; with f's
        values point-major, numpy's einsum loops over the elements inside."""
        fx = f(composite_points(self.N)).reshape(self.n, QUAD_POINTS)
        return self.scatter_add(np.einsum(
            "qm,oq,q->om", np.ascontiguousarray(fx.T), self.template[:, 0, :],
            self.qw))

    def scatter_add(self, local, out=None):
        """out[..., j] = sum_o local[o][..., (j - o) % n], summed in the
        order of `offsets`, starting from zero. `local` is a (6, ..., n)
        array, or an iterable of six (..., n) parts made one at a time so
        that they are never all held at once. `out`, if given, receives the
        sum. Each part is shifted by o % n in two slice adds along its last
        axis; an array of n <= `_BINCOUNT_MAX_N` goes through one
        `np.bincount`, which adds the same terms to each entry in the same
        order, at a fraction of the slices' per-call cost."""
        n = self.n
        if isinstance(local, np.ndarray) and n <= _BINCOUNT_MAX_N:
            parts = np.moveaxis(local, 0, -2)
            rows = parts.size // (6 * n)
            total = np.bincount(self._stacked_sites(rows), parts.ravel(),
                                minlength=rows * n)
            total = total.reshape(parts.shape[:-2] + (n,))
            if out is None:
                return total
            out[...] = total
            return out
        for i, (s, part) in enumerate(zip(self._shifts, local)):
            if i == 0 and out is None:
                out = np.zeros_like(part)
            elif i == 0:
                out[...] = 0.0
            if s:
                out[..., :s] += part[..., n - s:]
            out[..., s:] += part[..., :n - s]
        return out

    def _stacked_sites(self, rows):
        """The flat targets of the (rows, 6, n) parts of `scatter_add`:
        row r's offset o at element m lands on r n + (m + o) % n."""
        sites = self._stacked.get(rows)
        if sites is None:
            sites = self._stacked[rows] = (
                self._sites + self.n * np.arange(rows)[:, None, None]).ravel()
        return sites


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
def _bond_kernels(stack):
    """The bond form's tables for a stack of models, each given by its
    per-bond coefficient rows (a tuple of five-entry tuples, entry m - 1
    for grad^m u), computed once and read-only. For each model, row
    k = (bond rho, Gauss point q) of
      template[k, o] = sum_m c_m(rho) T[o, m, q]
    gives the bond strains at an element from its six coefficients, with T
    the `_gauss_template(5)`; w[k] = w_q, and
      gradient  local[o, m] = sum_k w_k template[k, o] phi'(k, m)
      Hessian   local[o, p, m] = sum_k w_k template[k, o] template[k, p]
                                                   * phi''(k, m)
    the gradient's as (6, K) rows, the Hessian's in `_band_kernel` layout.
    The templates and gradient rows are stacked over the models, (m, K, 6)
    and (m, 6, K); the Hessian kernels are one per model."""
    qw = gauss_rule(QUAD_POINTS)[1]
    T = _gauss_template(5)[:, 1:, :]
    template = np.stack([np.concatenate([np.einsum("m,omq->qo", c, T)
                                         for c in np.array(coeffs)])
                         for coeffs in stack])
    w = np.tile(qw, len(stack[0]))
    grad_kernel = template.swapaxes(1, 2) * w
    hess_kernels = tuple(_band_kernel(g[:, None] * t.T)
                         for g, t in zip(grad_kernel, template))
    for a in (template, w, grad_kernel):
        a.flags.writeable = False
    return template, w, grad_kernel, hess_kernels


def _check_domain(margin, rows, space):
    """Raise DomainError unless every entry of `margin`, (k, ..., n) with
    element m in column m for the stack rows `rows`, is positive; it names,
    for each row that is not, the element of its smallest entry."""
    if margin.min() > 0.0:
        return
    outside = {}
    for j in np.flatnonzero(margin.reshape(len(margin), -1).min(axis=1)
                            <= 0.0):
        elem = int(np.argmin(margin[j]) % space.n) - space.N
        outside[rows[j]] = (f"density domain violation in element "
                            f"[{elem}, {elem + 1}]")
    if outside:
        raise DomainError(next(iter(outside.values())), rows=outside)


def _slot_form(models, space):
    """`assemble`'s evaluation of one model through its density methods: the
    gradient stack g at the Gauss points and the model's bond arguments,
    with the (k, n) first-derivative and (k^2, n) second-derivative planes
    of its `density_orders`, and the matching element kernels."""
    model, = models
    orders, n = model.density_orders, space.n
    w0 = model.density0()
    grad_kernel, hess_kernel = _element_kernels(orders)

    def evaluate(c, rows):
        g = space.derivatives_at_quad(c[0], orders)
        args = model.bond_args(g)
        _check_domain(model.domain_margin(g, args)[None], rows, space)
        return g, args

    def energy(rows, at):
        g, args = at
        return np.array([np.sum(space.qw @ (model.density(g, args) - w0))])

    def gradient_parts(rows, at):
        return (grad_kernel @ model.density_grad(*at).reshape(-1, n))[:, None]

    def hessian_planes(rows, at, cols):
        g, args = at
        g, args = g[..., cols], {rho: a[..., cols] for rho, a in args.items()}
        yield (model.density_hess(g, args).reshape(-1, g.shape[-1]),
               hess_kernel)

    return evaluate, energy, gradient_parts, hessian_planes, lambda: None


def _bond_stack(models, space):
    """`assemble`'s evaluation of composed densities sum_rho phi_rho(a_rho)
    (`bond_form`) that share their potential, bonds and F, on a stack of
    coefficient rows, one per model: the bond lengths a_rho + F rho at every
    bond and Gauss point, from one gather and one stacked (B Q, 6) x (6, n)
    product, and phi, phi' or phi'' there, one call of the potential for the
    stack, with each model's `_bond_kernels`. The lengths and phi's planes,
    which overwrite them, the gathered coefficients, the gradient's parts
    and LJ's and Morse's second term are views of one block, allocated for
    the whole stack and written in place: a call for k rows uses the first
    k of each. The evaluation of a point checks its lengths and keeps its
    rows; a call that finds them overwritten makes them again, with the
    same bits. A quadratic potential's phi'' is one number per bond, read
    at the homogeneous lengths. The last callable returned drops the block,
    to be made anew by the next call."""
    template, w, grad_kernel, hess_kernels = _bond_kernels(tuple(
        tuple(tuple(c.tolist()) for c in m.coeffs.values()) for m in models))
    model = models[0]
    shift = np.repeat(model.F * np.array(model.bonds, float),
                      QUAD_POINTS)[:, None]
    potential = model.potential
    quadratic = potential.quadratic
    phi0 = potential.derivative_unchecked(0, shift)
    m, K, n = len(models), len(w), space.n
    # per stack row, K rows of lengths and the rows after them
    extra = 6 if quadratic else max(K, 6)
    block, views = [], {}

    def arrays(k):
        """Views for k stack rows of the block, made anew after a release:
        the lengths, (k, K, n); the gathered coefficients or the gradient's
        parts, (k, 6, n); and on the same rows phi's second term, (k, K, n),
        for a potential that is not quadratic."""
        if k not in views:
            if not block:
                block.append(np.empty(m * n * (K + extra)))
            rest = block[0][m * K * n:]
            views[k] = (block[0][:k * K * n].reshape(k, K, n),
                        rest[:k * 6 * n].reshape(k, 6, n),
                        None if quadratic else
                        rest[:k * K * n].reshape(k, K, n))
        return views[k]

    def release():
        block.clear()
        views.clear()

    def lengths(c, rows):
        out, gathered, _ = arrays(len(rows))
        # the sites are in range: "clip" only spares take a buffered copy
        np.matmul(template if len(rows) == m else template[rows],
                  np.take(c, space._sites, axis=1, mode="clip", out=gathered),
                  out=out)
        out += shift
        return out

    def evaluate(c, rows):
        _check_domain(lengths(c, rows), rows, space)
        return [c.copy(), True]     # the rows, and are their lengths held?

    def phi(j, rows, at, cols=slice(None)):
        """phi^(j) at the lengths' columns `cols`, written over them."""
        c, held = at
        at[1] = False
        out = (arrays(len(rows))[0] if held else lengths(c, rows))[..., cols]
        work = arrays(len(rows))[2]
        return potential.derivative_unchecked(
            j, out, out=out, work=None if work is None else work[..., cols])

    def energy(rows, at):
        planes = phi(0, rows, at)
        planes -= phi0
        return np.sum(w @ planes, axis=-1)

    def gradient_parts(rows, at):
        return np.matmul(grad_kernel if len(rows) == m else grad_kernel[rows],
                         phi(1, rows, at), out=arrays(len(rows))[1]
                         ).swapaxes(0, 1)

    def hessian_planes(rows, at, cols):
        if quadratic:
            planes = potential.derivative_unchecked(2, np.broadcast_to(
                shift, (len(rows), K, n))[..., cols])
        else:
            planes = phi(2, rows, at, cols)
        return ((planes[j], hess_kernels[r]) for j, r in enumerate(rows))

    return evaluate, energy, gradient_parts, hessian_planes, release


def _hessian_band(space, hess_kernel, planes, equal, work=None):
    """The band of the element Hessians from their planes, (K, columns)
    with element m in column m, contracted with `hess_kernel`. When the
    planes are `equal` at every element (a quadratic problem, whose planes
    then hold 4 columns), or found to be, every column of the band is one
    element's stencil, summed in offset order as `scatter_add` sums it,
    and the band holds that one column, broadcast. Its products take 4
    columns, as BLAS rounds 1- and 2-column ones differently from wider
    ones. Otherwise dof-major (n, 11) element rows
    are streamed (not stacked) through the scatter and written into the
    band once; `work`, two (n, 11) arrays, takes them and their sum if
    given."""
    H = PeriodicBand(space.n, 5)
    if equal or np.all(planes == planes[:, :1]):
        one = np.asfortranarray(planes[:, :4])
        stencil = np.add.reduce(hess_kernel @ one, axis=0, initial=0.0)
        H.diags = np.broadcast_to(stencil[:, :1], H.diags.shape)
        return H
    part, total = (None, None) if work is None else work
    H.diags[:] = space.scatter_add(
        (np.matmul(planes.T, hess_kernel[io].T, out=part).T
         for io in range(6)), out=None if total is None else total.T)
    return H


def assemble(models, space, f=None):
    """The forced continuum problems min E(u) - <f, u> over mean-zero spline
    coefficients of a stack of models, with objective/gradient/Hessian by
    the element Gauss rule (a `MinimizeProblem` of one row per model); f is
    the load density (vectorized), or its `space.load_vector`, which the
    models share. The density is accumulated relative to the homogeneous
    state to keep the tiny energy differences well conditioned.

    Models whose density is a bond sum (`bond_form`: cb, hoc4, hoc6,
    first) are assembled in bond form, all on one stack: the strain of bond
    rho at the Gauss points is sum_m c_m(rho) grad^m u, so one template row
    per bond and point maps an element's six coefficients to it, and phi,
    phi' and phi'' of every bond of every row are one call of the potential
    at the lengths. ill2's density is not such a sum; it is assembled alone,
    a stack of one, in slot form, from the planes of its density methods at
    the gradient stack.

    The three callbacks share one evaluation per array of points
    (`evaluate_once`): the bond lengths of its rows, which phi's planes
    overwrite, or the gradient stack and bond arguments; its domain is
    checked there once, per row. A new evaluation is written over the old
    one. The gradient is scattered for
    the whole stack at once, into an array allocated once. The Hessian
    callback builds a fresh band for each row from its second-derivative
    planes at every call; each band is built alone. The problem's `energy`
    is the objective without its load term; it keeps its last value, so
    `solve_continuum` reads the one of Newton's last objective call. Every
    model's density is quadratic in the gradients exactly when the
    potential is, and so is the problem (`quadratic`): then its planes are
    equal at every point, and the Hessian evaluates those of 4
    elements, a circulant band held as one column."""
    models = tuple(models)
    if f is None:
        load = np.zeros(space.n)
    else:
        load = space.load_vector(f) if callable(f) else np.asarray(f, float)
    quadratic = models[0].potential.quadratic
    cols = slice(0, 4) if quadratic else slice(None)
    evaluate, energy_at, gradient_parts, hessian_planes, release = (
        _bond_stack if all(m.bond_form for m in models) else _slot_form)(
        models, space)
    total = np.empty((len(models), space.n))

    @evaluate_once
    def at(c):
        rows = [i for i, v in enumerate(c[:, 0].tolist()) if v == v]
        return rows, evaluate(c if len(rows) == len(c) else c[rows], rows)

    @evaluate_once
    def energy(c):
        return energy_at(*at(c))

    def objective(c):
        rows = at(c)[0]
        return energy(c) - [float(np.dot(load, c[i])) for i in rows]

    def gradient(c):
        rows, evaluation = at(c)
        return space.scatter_add(gradient_parts(rows, evaluation),
                                 out=total[:len(rows)]) - load

    def hessian(c):
        if quadratic:
            return [_hessian_band(space, kernel, planes, True)
                    for planes, kernel in hessian_planes(*at(c), cols)]
        work = np.empty((2, space.n, 11))
        bands = [_hessian_band(space, kernel, planes, False, work)
                 for planes, kernel in hessian_planes(*at(c), cols)]
        # these bands take the reduction: the evaluation and its arrays are
        # not held through it
        at.forget()
        release()
        return bands

    return ContinuumProblem(objective, gradient, hessian,
                            quadratic=quadratic, energy=energy)


def solve_continuum(models, space, f=None, max_iter=500, x0=None):
    """Minimize the forced continuum energy of each model from its row of
    the coefficients x0 (zero by default), all of them in one stack of
    `assemble` and one lockstep Newton solve. Returns one entry per model,
    in order: its FemField, or the error its solve ended with. Newton's
    last factorization certifies the stationary point as a local
    minimizer; the unstable variants fail that check and end in
    IndefiniteHessianError (a stationary point of an energy that is
    unbounded below is not a solution of the minimization problem), and a
    start outside the potential's domain ends in DomainError. f is passed
    to `assemble`. A field's `energy` is the problem's at the returned
    coefficients, from the evaluation of Newton's last objective call."""
    models = tuple(models)
    prob = assemble(models, space, f)
    prob.max_iter = max_iter
    out = []
    results = newton_minimize(prob, np.zeros((len(models), space.n))
                              if x0 is None else x0)
    for model, res in zip(models, results):
        where = f"continuum model {model.key!r}"
        if res.outside_domain:
            out.append(DomainError(f"{where} starts outside the potential's "
                                   f"domain at N={space.N}: {res.message}"))
        elif res.hessian_indefinite:
            out.append(IndefiniteHessianError(
                f"{where} is not positive definite on the mean-zero subspace "
                f"at N={space.N}: {res.message}"))
        else:
            out.append(space.field(res.x - res.x.mean()))
            out[-1].result = res
    fields = [i for i, u in enumerate(out) if isinstance(u, FemField)]
    if fields:
        points = np.full((len(models), space.n), np.nan)
        points[fields] = [results[i].x for i in fields]
        for i, e in zip(fields, prob.energy(points)):
            out[i].energy = float(e)
    return out


def grad_l2_distance(a, b, N, npoints=5):
    """Composite Gauss norm ||grad a - grad b||_{L2(-N,N)}. Either field may
    be given as its gradient at the rule's points (`composite_points`), for
    a field measured against several others; when both are, the rule's
    points are not built."""
    def grad(u, x):
        return u if isinstance(u, np.ndarray) else u.eval(x, 1)

    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        val = composite_integral((a - b) ** 2, N, npoints)
    else:
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
