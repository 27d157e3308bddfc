import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from chain_elastica import fem
from chain_elastica.atomistic import AtomisticSystem
from chain_elastica.continuum import SineField, continuum_model
from chain_elastica.fem import (QUAD_POINTS, FemField,
                                IndefiniteHessianError, PeriodicSplineSpace,
                                assemble, energy_gap, grad_l2_distance)
from chain_elastica import optimize
from chain_elastica.oracles import (band_toarray, continuum_energy,
                                    fourier_cos_amplitude, gradient_check)
from chain_elastica.potentials import make_potential
from chain_elastica.quadrature import composite_points, gauss_rule
from chain_elastica.splines import (KernelField, bspline, bspline_kernel,
                                    periodic_spline_coefficients)
from single import assemble_one, solve_one

rng = np.random.default_rng(404)


def hessian_smallest_eigenvalue(model, space):
    """Smallest eigenvalue of the assembled Hessian at the homogeneous state,
    restricted to the mean-zero subspace: the Hessian is circulant there
    (for N >= 6, where the band's offsets do not alias), and this is the
    least of its `PeriodicBand.eigenvalues` over the modes j != 0, the
    spectrum its factorization certifies."""
    H = assemble_one(model, space).hessian(np.zeros(space.n))
    return float(np.min(H.eigenvalues()[1:]))


def cos_force(N):
    eps = 1.0 / N
    return lambda x: eps * np.cos(np.pi * eps * np.asarray(x, dtype=float))


def test_gauss5_exact_through_degree_9():
    t, w = gauss_rule(5)
    # computed once per npoints and shared, so read-only
    assert gauss_rule(5)[0] is t
    assert not (t.flags.writeable or w.flags.writeable)
    for deg in range(10):
        p = np.polynomial.Polynomial(rng.standard_normal(deg + 1))
        exact = p.integ()(1.0) - p.integ()(0.0)
        assert abs(float(np.dot(w, p(t))) - exact) < 1e-13


def test_gauss_rule_matches_numpy_leggauss():
    # the Golub-Welsch rule agrees with numpy's Newton-polished one
    for npoints in range(1, 17):
        t, w = gauss_rule(npoints)
        nodes, weights = np.polynomial.legendre.leggauss(npoints)
        assert np.max(np.abs(t - 0.5 * (nodes + 1.0))) <= 1e-15
        assert np.max(np.abs(w - 0.5 * weights)) <= 1e-15
        assert np.array_equal(w, w[::-1])


def test_space_represents_local_quintics():
    # exact spline coefficients of a quintic: c_j = p(j) - p''(j)/4 + p4(j)/30
    N = 8
    sp = PeriodicSplineSpace(N)
    poly = np.polynomial.Polynomial((0.1, 0.2, -0.3, 0.05, 0.02, 0.004))
    j = np.arange(-N, N, dtype=float)
    c = poly(j) - poly.deriv(2)(j) / 4.0 + poly.deriv(4)(j) / 30.0
    u = FemField(c)
    x = np.linspace(-2.5, 2.5, 41)
    assert np.max(np.abs(u.eval(x) - poly(x))) < 1e-10
    assert np.max(np.abs(u.eval(x, 1) - poly.deriv()(x))) < 1e-10


def test_field_derivative_orders():
    N = 8
    sp = PeriodicSplineSpace(N)
    u = FemField(rng.standard_normal(2 * N))
    x = rng.uniform(-N, N, 30)
    h = 1e-6
    for r in range(1, 5):
        fd = (u.eval(x + h, r - 1) - u.eval(x - h, r - 1)) / (2 * h)
        assert np.max(np.abs(fd - u.eval(x, r))) < 1e-4
    # grad^6 vanishes inside elements
    assert np.all(u.eval(x + 0.001, 6) == 0.0)


def test_zero_force_gives_zero_field():
    N = 8
    m = continuum_model("hoc4", make_potential("lj"), bonds=(1, 2))
    u = solve_one(m, PeriodicSplineSpace(N))
    assert np.max(np.abs(u.coeffs)) < 1e-12


def test_assembled_gradient_matches_finite_differences():
    N = 8
    sp = PeriodicSplineSpace(N)
    for key in ("cb", "hoc4", "hoc6"):
        m = continuum_model(key, make_potential("lj"), bonds=(1, 2))
        prob = assemble([m], sp, cos_force(N))
        c = 0.01 * rng.standard_normal(2 * N)
        assert gradient_check(prob, c, h=1e-6) < 1e-6, key


def test_assembled_hessian_matches_gradient_differences():
    N = 8
    sp = PeriodicSplineSpace(N)
    m = continuum_model("hoc4", make_potential("lj"), bonds=(1, 2))
    prob = assemble_one(m, sp, cos_force(N))
    c = 0.01 * rng.standard_normal(2 * N)
    H = band_toarray(prob.hessian(c))
    assert np.max(np.abs(H - H.T)) < 1e-12
    d = rng.standard_normal(2 * N)
    d /= np.linalg.norm(d)
    h = 1e-6
    hv = (prob.gradient(c + h * d) - prob.gradient(c - h * d)) / (2 * h)
    assert np.max(np.abs(H @ d - hv)) < 1e-6


def test_harmonic_cb_hessian_symbol():
    # assembled quadratic form on a low mode matches c0 k^2 to leading order
    N = 32
    sp = PeriodicSplineSpace(N)
    m = continuum_model("cb", make_potential("harmonic"), bonds=(1, 2))
    prob = assemble_one(m, sp)
    k = np.pi / N
    c = periodic_spline_coefficients(np.sin(k * np.arange(-N, N)), 5)
    H = band_toarray(prob.hessian(np.zeros(2 * N)))
    quad_form = float(c @ H @ c)
    # ||grad v||^2 = k^2 N for the unit-amplitude mode; c0 = sum rho^2 phi''
    c0 = 5.0
    assert quad_form == pytest.approx(c0 * k * k * N, rel=1e-6)


def test_harmonic_hoc4_amplitude_matches_symbol():
    for N in (8, 32):
        sp = PeriodicSplineSpace(N)
        m = continuum_model("hoc4", make_potential("harmonic"), bonds=(1, 2))
        eps = 1.0 / N
        k = np.pi * eps
        u = solve_one(m, sp, cos_force(N))
        s = sum((rho * k - rho ** 3 * k ** 3 / 24.0) ** 2 for rho in (1, 2))
        A = eps / s
        assert fourier_cos_amplitude(u, k, N) == pytest.approx(A, rel=1e-8)


def test_lj_hoc4_solve_converges():
    N = 64
    m = continuum_model("hoc4", make_potential("lj"), bonds=(1, 2))
    u = solve_one(m, PeriodicSplineSpace(N), cos_force(N))
    assert u.result.converged and u.result.grad_norm <= 1e-10


def test_hessians_are_banded_and_large_solves_run():
    # O(N) memory: both Hessians keep 2b+1 diagonals at N = 2^14, and an LJ
    # hoc4 continuum solve at N = 4096 (n = 8192 dofs) converges
    N = 2 ** 14
    pot = make_potential("lj")
    H = AtomisticSystem(N, pot, bonds=(1, 2)).hessian(np.zeros(2 * N))
    assert H.diags.shape == (5, 2 * N)
    m = continuum_model("hoc4", pot, bonds=(1, 2))
    H = assemble_one(m, PeriodicSplineSpace(N)).hessian(np.zeros(2 * N))
    assert H.diags.shape == (11, 2 * N)
    N = 4096
    u = solve_one(m, PeriodicSplineSpace(N), cos_force(N))
    assert u.result.converged and u.result.grad_norm <= 1e-10


def test_stable_models_positive_definite_unstable_flagged():
    N = 8
    sp = PeriodicSplineSpace(N)
    for key in ("cb", "hoc4", "hoc6"):
        m = continuum_model(key, make_potential("harmonic"), bonds=(1, 2))
        assert hessian_smallest_eigenvalue(m, sp) > 0.0, key
    ill = continuum_model("ill2", make_potential("harmonic"), bonds=(1, 2))
    assert hessian_smallest_eigenvalue(ill, sp) < 0.0
    with pytest.raises(IndefiniteHessianError):
        solve_one(ill, sp, cos_force(N))


@pytest.mark.parametrize("N", [6, 8, 16, 9, 10, 13, 14])
@pytest.mark.parametrize("key", ["hoc4", "hoc6", "cb"])
def test_harmonic_band_spectrum_matches_dense(key, N):
    # the homogeneous-state band is one element's stencil in every column,
    # so it is circulant by construction: its eigenvalues(), the spectrum
    # the solver certifies, are those of the dense matrix
    m = continuum_model(key, make_potential("harmonic"), bonds=(1, 2))
    sp = PeriodicSplineSpace(N)
    H = assemble_one(m, sp).hessian(np.zeros(sp.n))
    assert H.is_circulant()
    dense = np.linalg.eigvalsh(band_toarray(H))
    lam = np.sort(H.eigenvalues())
    assert np.max(np.abs(lam - dense)) < 1e-14 * dense[-1]
    assert hessian_smallest_eigenvalue(m, sp) == np.min(H.eigenvalues()[1:])


@pytest.mark.parametrize("key, potential", [("ill2", "harmonic"),
                                            ("first", "morse")])
def test_unstable_models_fail_the_spectral_certificate(key, potential,
                                                       factorizations):
    # from the cold start u = 0 the first Hessian is circulant, and its
    # spectrum has a negative mode
    N = 8
    m = continuum_model(key, make_potential(potential), bonds=(1, 2))
    sp = PeriodicSplineSpace(N)
    assert hessian_smallest_eigenvalue(m, sp) < 0.0
    with pytest.raises(IndefiniteHessianError):
        solve_one(m, sp, cos_force(N))
    assert factorizations == [True]


def test_domain_violation_reports_element():
    N = 8
    sp = PeriodicSplineSpace(N)
    m = continuum_model("cb", make_potential("lj"), bonds=(1, 2))
    prob = assemble_one(m, sp)
    bad = np.zeros(2 * N)
    bad[4], bad[5] = 4.0, -4.0   # a steep kink collapses nearby bonds
    with pytest.raises(ValueError, match="element"):
        prob.objective(bad)


def test_grad_l2_distance_basic():
    N = 16
    k = np.pi / N
    a = SineField(1.0, k)
    zero = SineField(0.0, k)
    assert grad_l2_distance(a, a, N) == 0.0
    # ||grad a||_{L2} = k sqrt(|Omega|/2) = k sqrt(N)
    assert grad_l2_distance(a, zero, N) == pytest.approx(k * np.sqrt(N), rel=1e-10)
    assert grad_l2_distance(a, zero, N) == grad_l2_distance(zero, a, N)


@pytest.mark.parametrize("degree", [3, 4, 5])
@pytest.mark.parametrize("N", [8, 16, 32, 64])
def test_gauss_template_gradient_matches_the_pp_form(degree, N):
    # the measurement's gather and product with the Gauss template against
    # the field's pp-form at every point of the error norm's rule
    coeffs = np.random.default_rng(N).standard_normal(2 * N)
    field = KernelField(coeffs, bspline_kernel(degree))
    got = PeriodicSplineSpace(N).gradient_at_points(field)
    want = field.eval(composite_points(N), 1)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("degree", [3, 4, 5])
def test_gauss_template_matches_one_bspline_call_per_offset_and_order(
        degree):
    # the template's six-offset bspline calls against one call per offset
    # and order, bit for bit
    qt = gauss_rule(QUAD_POINTS)[0]
    want = np.array([[bspline(degree, qt - o, r) for r in range(degree + 1)]
                     for o in range(-2, 4)])
    got = fem._gauss_template(degree)
    assert got.shape == want.shape == (6, degree + 1, QUAD_POINTS)
    assert got.tobytes() == want.tobytes()
    assert not got.flags.writeable


def _streamed_scatter(parts, n):
    """The band of (11, n) element rows streamed through a scatter along
    columns: part io shifted by (io - 2) % n in two slice adds, summed in
    offset order. The reference for `assemble`'s dof-major scatter."""
    out = np.zeros((11, n))
    for io, part in enumerate(parts):
        s = (io - 2) % n
        if s:
            out[:, :s] += part[:, n - s:]
        out[:, s:] += part[:, :n - s]
    return out


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.data(), st.sampled_from(["cb", "hoc4", "hoc6", "ill2"]),
       st.integers(1, 70))
def test_one_element_band_matches_the_streamed_band(data, key, N):
    # equal planes at every element build the band from one element's
    # stencil: exactly circulant (for n > 10; n <= 10 aliases offsets), and
    # for cb, hoc4 and ill2 bitwise the band that the six streamed products
    # and the slice scatter build from the same planes. BLAS can round
    # hoc6's 45-term sums differently in a narrow product and a wide one
    # (OpenBLAS 0.3.31 on AVX-512 does past n = 108, and in the last two
    # columns at n = 2 (mod 4)), so there the bands agree to roundoff only.
    # The band builder is the one both forms of `assemble` share; the
    # planes are the slot form's
    model = continuum_model(key, make_potential("harmonic"), bonds=(1, 2))
    k = len(model.density_orders)
    a = data.draw(arrays(float, (k, k, QUAD_POINTS),
                         elements=st.floats(-1e6, 1e6)))
    planes = a + a.swapaxes(0, 1)
    sp = PeriodicSplineSpace(N)
    # scatter nothing: the one-element path must not reach the scatter
    sp.scatter_add = None
    hess_kernel = fem._element_kernels(model.density_orders)[1]
    d2w = np.broadcast_to(planes.reshape(-1, 1), (planes.size, sp.n))
    H = fem._hessian_band(sp, hess_kernel, d2w, True)
    assert np.all(H.diags == H.diags[:, :1])
    assert H.is_circulant() == (sp.n > 10)
    d2w = np.asfortranarray(d2w)
    streamed, size = (_streamed_scatter(
        (f(hess_kernel[io]) @ f(d2w) for io in range(6)), sp.n)
        for f in (np.asarray, np.abs))
    if key == "hoc6":
        assert np.all(np.abs(H.diags - streamed)
                      <= 4 * np.finfo(float).eps * size)
    else:
        assert np.array_equal(H.diags, streamed)


def test_energy_gap_trivial_and_shift_invariant():
    # the gap reads the energies the two solves carry: 0 for the unforced
    # solves, which stay at the homogeneous state; both energies are blind
    # to a rigid shift
    N = 16
    pot = make_potential("lj")
    m = continuum_model("hoc4", pot, bonds=(1, 2))
    sp = PeriodicSplineSpace(N)
    assert energy_gap(AtomisticSystem(N, pot, bonds=(1, 2)).solve(),
                      solve_one(m, sp)) < 1e-14
    sites = np.arange(-N, N)
    sol_a = AtomisticSystem(N, pot, bonds=(1, 2),
                            force=cos_force(N)(sites)).solve()
    u_c = solve_one(m, sp, cos_force(N))
    assert energy_gap(sol_a, u_c) == abs(sol_a.energy_above_homogeneous
                                         - u_c.energy) > 0.0
    sys_ = AtomisticSystem(N, pot, bonds=(1, 2))
    u = 0.01 * rng.standard_normal(2 * N)
    c = FemField(0.01 * rng.standard_normal(2 * N))
    shifted_c = FemField(c.coeffs + 0.37)   # basis partition of unity
    assert sys_.energy_above_homogeneous(u + 0.37) == pytest.approx(
        sys_.energy_above_homogeneous(u), rel=1e-9)
    assert continuum_energy(m, shifted_c, N) == pytest.approx(
        continuum_energy(m, c, N), rel=1e-9)


@pytest.mark.parametrize("N", [16, 128])
@pytest.mark.parametrize("potential", ["harmonic", "lj"])
@pytest.mark.parametrize("key", ["cb", "hoc4", "hoc6"])
def test_solver_energy_matches_continuum_energy(key, potential, N):
    # E_c from the solve's last evaluation is the 5-point rule on the unit
    # elements that continuum_energy applies through the field's pp-form
    m = continuum_model(key, make_potential(potential), bonds=(1, 2))
    u = solve_one(m, PeriodicSplineSpace(N), cos_force(N))
    assert u.energy == pytest.approx(continuum_energy(m, u, N), rel=1e-13,
                                     abs=0.0)


@pytest.mark.parametrize("key", ["cb", "hoc4", "hoc6"])
def test_a_solve_evaluates_the_density_once_per_objective_call(key,
                                                               monkeypatch):
    # the field's energy is the one of Newton's last objective call, with
    # no evaluation of its own, and bitwise a fresh problem's there; the
    # bond form evaluates phi of every bond at the elements' points in one
    # call of the potential
    N = 16
    m = continuum_model(key, make_potential("lj"), bonds=(1, 2))
    calls = {"density": 0, "objective": 0}
    phi, newton = m.potential.derivative_unchecked, fem.newton_minimize

    def counted_phi(j, r, **out):
        calls["density"] += j == 0 and np.shape(r)[-1] == 2 * N
        return phi(j, r, **out)

    def counted(fn):
        def call(*args):
            calls["objective"] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(m.potential, "derivative_unchecked", counted_phi)
    monkeypatch.setattr(fem, "newton_minimize", lambda prob, x0: newton(
        dataclasses.replace(prob, objective=counted(prob.objective)), x0))
    u = solve_one(m, PeriodicSplineSpace(N), cos_force(N))
    assert calls["density"] == calls["objective"] > 1
    assert u.energy == assemble_one(m, PeriodicSplineSpace(N),
                                cos_force(N)).energy(u.result.x)


def _callbacks(prob, c):
    return (prob.objective(c), prob.gradient(c), prob.hessian(c).diags)


def _assert_same_bits(got, want):
    assert got[0] == want[0]
    for a, b in zip(got[1:], want[1:]):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("key", ["cb", "hoc4", "hoc6", "ill2"])
def test_assembled_callbacks_share_one_evaluation_per_point(key):
    # the callbacks cache one evaluation, keyed by the coefficients' value:
    # after a call at another point, and after the caller overwrote its
    # array in place, each returns the bits of a freshly assembled problem
    N = 8
    sp = PeriodicSplineSpace(N)
    m = continuum_model(key, make_potential("lj"), bonds=(1, 2))
    gen = np.random.default_rng([N, len(key)])
    a, b = 0.01 * gen.standard_normal((2, 2 * N))
    want = _callbacks(assemble_one(m, sp, cos_force(N)), b)
    prob = assemble_one(m, sp, cos_force(N))
    _callbacks(prob, a)
    _assert_same_bits(_callbacks(prob, b), want)
    c = a.copy()
    prob.objective(c)
    c[:] = b
    _assert_same_bits((prob.objective(c), prob.gradient(c),
                       prob.hessian(c).diags), want)
    c[:] = a
    prob.gradient(c)
    c[:] = b
    _assert_same_bits(_callbacks(prob, c), want)


@pytest.mark.parametrize("potential", ["harmonic", "lj", "morse"])
def test_stacked_callbacks_at_one_point_in_any_order_give_fresh_bits(
        potential):
    # phi's planes are written over the stack's bond lengths: a later call
    # at the same point makes the lengths again, so every call in any order
    # returns the bits of a freshly assembled problem's first call
    N = 8
    sp = PeriodicSplineSpace(N)
    models = [continuum_model(key, make_potential(potential), bonds=(1, 2))
              for key in ("cb", "hoc4", "first")]
    c = 0.01 * np.random.default_rng(3).standard_normal((3, 2 * N))

    def bits(name, prob):
        got = getattr(prob, name)(c)
        return [b.diags for b in got] if name == "hessian" else got

    names = ("objective", "gradient", "hessian")
    want = {name: bits(name, assemble(models, sp, cos_force(N)))
            for name in names}
    prob = assemble(models, sp, cos_force(N))
    for name in ("gradient", "hessian", "objective", "hessian", "gradient",
                 "objective", "objective", "gradient"):
        for got, ref in zip(bits(name, prob), want[name]):
            assert np.array_equal(got, ref)


def test_quadratic_bands_hold_one_column():
    # a quadratic stack's bands are circulant: each holds its one stencil
    # column, broadcast, and factors through its spectrum
    N = 1024
    sp = PeriodicSplineSpace(N)
    models = [continuum_model(key, make_potential("harmonic"), bonds=(1, 2))
              for key in ("cb", "hoc4", "hoc6")]
    c = 0.01 * np.random.default_rng(4).standard_normal((3, 2 * N))
    for band in assemble(models, sp).hessian(c):
        assert band.diags.shape == (11, 2 * N)
        assert band.diags.strides[1] == 0 and band.is_circulant()
        assert hasattr(band.factor(), "lam")


def _reference_callbacks(model, space, c):
    """Objective, gradient and Hessian band of `assemble(model, space)` at
    c by the slot-form formulas of an earlier version: bond arguments by
    np.tensordot, coefficient rows rebuilt per call, density planes at every
    element, and (11, n) element rows from a column-major operand streamed
    through `_streamed_scatter`."""
    n = space.n
    g = space.derivatives_at_quad(c, model.density_orders)
    if model.key == "ill2":
        args = {rho: rho * g[0] for rho in model.bonds}
        dw, d2w = model.density_grad(g, args), model.density_hess(g, args)
    else:
        args = {rho: np.tensordot(model._arg_coeffs(rho), g, axes=(0, 0))
                for rho in model.bonds}
        slots = np.array(model.density_orders) - 1
        dw = np.zeros((len(slots),) + g.shape[1:])
        d2w = np.zeros((len(slots), len(slots)) + g.shape[1:])
        for rho in model.bonds:
            row = model._arg_coeffs(rho)[slots]
            d1 = model.phi[rho].derivative_unchecked(1, args[rho])
            d2 = model.phi[rho].derivative_unchecked(2, args[rho])
            for i, cm in enumerate(row):
                dw[i] += cm * d1
                for j, cn in enumerate(row):
                    d2w[i, j] += cm * cn * d2
    energy = float(np.sum(space.qw @ (model.density(g, args)
                                      - model.density0())))
    grad_kernel, hess_kernel = fem._element_kernels(model.density_orders)
    grad = space.scatter_add(grad_kernel @ dw.reshape(-1, n))
    d2w = np.asfortranarray(d2w.reshape(-1, n))
    band = _streamed_scatter((hess_kernel[io] @ d2w for io in range(6)), n)
    return energy, grad, band


def _roundoff_scales(model, space, c):
    """For a composed model: the sums of the magnitudes of the terms of the
    energy, the gradient and the Hessian band of `assemble(model, space)`
    at c, the scales of their roundoff in either form. A derivative
    phi_rho^(j) is taken at a bond argument that sums six rounded products
    of the gathered coefficients, so its terms carry, to first order,
    |phi_rho^(j+1)| times 6 times the sum of those products' magnitudes
    (Higham's gamma_6) besides |phi_rho^(j)|; the energy's also carry the
    homogeneous density it subtracts."""
    n, eps = space.n, np.finfo(float).eps
    slots = np.array(model.density_orders) - 1
    k = len(slots)
    g = space.derivatives_at_quad(c, model.density_orders)
    args = model.bond_args(g)
    T, C = np.abs(space.template[:, 1:, :]), np.abs(space.gather(c))
    energy = 0.0
    dw = np.zeros((k,) + g.shape[1:])
    d2w = np.zeros((k, k) + g.shape[1:])
    for rho, coeffs in model.coeffs.items():
        arg = 6 * np.einsum("m,omq,oe->qe", np.abs(coeffs), T, C)
        p = [np.abs(model.phi[rho].derivative(j, args[rho])) for j in range(4)]
        p00 = abs(model.phi[rho].derivative(0, np.zeros(1))[0])
        energy += float(np.sum(space.qw @ (p[0] + p00 + p[1] * arg)))
        row = np.abs(coeffs[slots])
        dw += row[:, None, None] * (p[1] + p[2] * arg)
        d2w += np.multiply.outer(row, row)[..., None, None] * (p[2]
                                                               + p[3] * arg)
    grad_kernel, hess_kernel = fem._element_kernels(model.density_orders)
    grad = space.scatter_add(np.abs(grad_kernel) @ dw.reshape(-1, n))
    band = _streamed_scatter((np.abs(hess_kernel[io]) @ d2w.reshape(-1, n)
                              for io in range(6)), n)
    return eps * energy, eps * grad, eps * band


def _assert_within_roundoff(prob, model, space, c, want):
    """prob's energy, gradient and band at c within 4 roundoff scales of
    `want`'s."""
    scales = _roundoff_scales(model, space, c)
    got = (prob.energy(c), prob.gradient(c), prob.hessian(c).diags)
    for a, b, scale in zip(got, want, scales):
        assert np.all(np.abs(a - b) <= 4 * scale)


@pytest.mark.parametrize("N", [1, 2, 3, 8, 64])
@pytest.mark.parametrize("potential, key", [
    ("lj", "cb"), ("lj", "hoc4"), ("lj", "ill2"),
    ("harmonic", "cb"), ("harmonic", "hoc4"), ("harmonic", "hoc6")])
def test_callbacks_match_the_formulas_they_replaced(potential, key, N):
    # ill2's slot form keeps the reference formulas' objective, gradient
    # and band bit for bit; the composed models' bond form sums other
    # terms, and agrees with them to roundoff
    m = continuum_model(key, make_potential(potential), bonds=(1, 2))
    sp = PeriodicSplineSpace(N)
    c = 0.05 * np.random.default_rng([N, len(key)]).standard_normal(sp.n)
    want = _reference_callbacks(m, sp, c)
    prob = assemble_one(m, sp)
    if key == "ill2":
        _assert_same_bits((prob.energy(c), prob.gradient(c),
                           prob.hessian(c).diags), want)
    else:
        _assert_within_roundoff(prob, m, sp, c, want)


@pytest.mark.parametrize("N", [1, 2, 3, 8, 64])
@pytest.mark.parametrize("potential", ["harmonic", "lj", "morse"])
@pytest.mark.parametrize("key", ["cb", "hoc4", "hoc6", "first"])
def test_bond_form_matches_the_slot_form(key, potential, N):
    # the same composed model assembled from its density methods' planes
    # (the slot form, which ill2 takes), at a stretched chain
    m, slot = (continuum_model(key, make_potential(potential), bonds=(1, 2),
                               F=1.1) for _ in range(2))
    slot.bond_form = False
    sp = PeriodicSplineSpace(N)
    c = 0.05 * np.random.default_rng([N, len(key)]).standard_normal(sp.n)
    want = assemble_one(slot, sp)
    _assert_within_roundoff(assemble_one(m, sp), m, sp, c, (
        want.energy(c), want.gradient(c), want.hessian(c).diags))


@pytest.mark.parametrize("key", ["cb", "hoc4", "hoc6", "first"])
def test_bond_form_names_the_element_the_slot_form_names(key):
    # a start outside the potential's domain names the element of the
    # shortest bond, whichever form evaluates it
    N = 8
    sp = PeriodicSplineSpace(N)
    for j in (0, 4, 15):
        bad = np.zeros(sp.n)
        bad[j], bad[(j + 1) % sp.n] = 4.0, -4.0
        messages = []
        for bond_form in (True, False):
            m = continuum_model(key, make_potential("lj"), bonds=(1, 2))
            m.bond_form = bond_form
            with pytest.raises(optimize.DomainError, match="element") as err:
                solve_one(m, sp, x0=bad)
            messages.append(str(err.value))
        assert messages[0] == messages[1]


@pytest.mark.parametrize("N", [1, 1024])
@pytest.mark.parametrize("key", ["cb", "hoc4", "hoc6", "ill2", "first"])
def test_quadratic_hessian_evaluates_the_planes_of_four_elements(key, N):
    # a quadratic density has equal planes everywhere, so the Hessian
    # callback evaluates phi'' at the points of the (at most) 4 element
    # columns that the one-element stencil reads, not at all n: once for
    # the bond form, and in the density planes of ill2's slot form
    m = continuum_model(key, make_potential("harmonic"), bonds=(1, 2))
    sp = PeriodicSplineSpace(N)
    calls = []
    phi = m.potential.derivative_unchecked

    def recorded(j, r, **out):
        calls.append((j, np.shape(r)[-1]))
        return phi(j, r, **out)

    m.potential.derivative_unchecked = recorded
    c = 0.05 * np.random.default_rng(N).standard_normal(sp.n)
    prob = assemble_one(m, sp)
    calls.clear()
    H = prob.hessian(c)
    assert {cols for _, cols in calls} == {min(sp.n, 4)}
    assert (2, min(sp.n, 4)) in calls
    if m.bond_form:
        assert calls == [(2, min(sp.n, 4))]
    assert np.all(H.diags == H.diags[:, :1])


def _einsum_reference(model, space, c):
    """Gradient and dense Hessian of the density energy, element by element
    through np.einsum and explicit index loops, each with the sums of the
    magnitudes of its element terms, the scale of its roundoff."""
    orders = model.density_orders
    g = space.derivatives_at_quad(c, orders)
    T = space.template[:, orders, :]
    dw = model.density_grad(g)
    d2w = model.density_hess(g)
    local_g = np.einsum("rqm,orq,q->mo", dw, T, space.qw)
    local_h = np.einsum("rsqm,orq,psq,q->mop", d2w, T, T, space.qw)
    grad, H = np.zeros(space.n), np.zeros((space.n, space.n))
    grad_size, H_size = np.zeros_like(grad), np.zeros_like(H)
    for m in range(space.n):
        dofs = (m + space.offsets) % space.n
        np.add.at(grad, dofs, local_g[m])
        np.add.at(H, np.ix_(dofs, dofs), local_h[m])
        np.add.at(grad_size, dofs, np.abs(local_g[m]))
        np.add.at(H_size, np.ix_(dofs, dofs), np.abs(local_h[m]))
    return grad, H, grad_size, H_size


@pytest.mark.parametrize("key", ["cb", "hoc4", "hoc6", "ill2"])
@pytest.mark.parametrize("potential", ["lj", "harmonic"])
def test_element_products_match_einsum_reference(key, potential):
    # at N = 1, 2, 3 (n = 2, 4, 6) the six offsets of an element wrap
    # around the ring more than once, and an entry sums up to 18 element
    # terms that nearly cancel: there the bound is relative to the sum of
    # their magnitudes, at N = 8 to the largest entry
    m = continuum_model(key, make_potential(potential), bonds=(1, 2))
    tol = 1e-14
    for N in (8, 1, 2, 3):
        sp = PeriodicSplineSpace(N)
        c = 0.05 * np.random.default_rng([N, len(key)]).standard_normal(2 * N)
        prob = assemble_one(m, sp)
        grad, H, grad_size, H_size = _einsum_reference(m, sp, c)
        if N == 8:
            grad_size, H_size = np.abs(grad), np.abs(H)
        assert np.max(np.abs(prob.gradient(c) - grad)) \
            <= tol * np.max(grad_size)
        assert np.max(np.abs(band_toarray(prob.hessian(c)) - H)) \
            <= tol * np.max(H_size)


@pytest.mark.parametrize("roundoff_rtol, converged", [
    (optimize.ROUNDOFF_RTOL, True), (0.0, False)])
def test_lj_hoc4_from_cb_converges_past_roundoff(monkeypatch, roundoff_rtol,
                                                 converged):
    # started from cb's coefficients at N = 16, hoc4's second step predicts a
    # decrease of about 1e-15 while f rounds by more (it rose by 9e-16 in one
    # trial), so plain Armijo backtracks without end; judged by the gradient
    # norm instead, the step is taken and Newton stops on the next one
    N = 16
    pot, sp = make_potential("lj"), PeriodicSplineSpace(N)
    cb = solve_one(continuum_model("cb", pot), sp, cos_force(N))
    monkeypatch.setattr(optimize, "ROUNDOFF_RTOL", roundoff_rtol)
    u = solve_one(continuum_model("hoc4", pot), sp, cos_force(N),
                        max_iter=20, x0=cb.coeffs)
    assert u.result.converged == converged
    if converged:
        assert u.result.iterations <= 4 and u.result.grad_norm < 1e-13
