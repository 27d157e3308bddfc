import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.interpolate import BSpline

from chain_elastica.lattice import PeriodicLatticeField, project_mean_zero
from chain_elastica.quadrature import composite_integral, gauss_rule
from chain_elastica.oracles import (convolution_interpolant, moment_sum,
                                    nodal_interpolant)
from chain_elastica.splines import (KernelField, SplineKernel, bspline,
                                    bspline_kernel, localization_weight,
                                    measurement_interpolant,
                                    periodic_spline_coefficients,
                                    periodic_spline_subdivision,
                                    periodic_spline_values,
                                    reproducing_kernel)
from chain_elastica import splines
from chain_elastica.splines import _interpolation_symbol

rng = np.random.default_rng(7)


def scipy_bspline(degree):
    knots = np.arange(degree + 2) - 0.5 * (degree + 1)
    return BSpline.basis_element(knots, extrapolate=False)


@pytest.mark.parametrize("degree", [2, 3, 4, 5, 7, 11])
def test_bspline_matches_cox_de_boor(degree):
    ref = scipy_bspline(degree)
    x = rng.uniform(-0.5 * (degree + 1) - 1, 0.5 * (degree + 1) + 1, 300)
    assert np.allclose(bspline(degree, x), np.nan_to_num(ref(x)), atol=1e-13)


def test_cubic_bspline_center_value():
    # the classical cardinal value, oracle = Cox-de Boor recursion at 0
    oracle = float(scipy_bspline(3)(0.0))
    assert bspline(3, np.array([0.0]))[0] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert oracle == pytest.approx(2.0 / 3.0, abs=1e-15)


@pytest.mark.parametrize("degree,deriv", [(3, 1), (3, 2), (3, 3), (5, 1),
                                          (5, 2), (5, 3), (11, 2)])
def test_bspline_derivatives(degree, deriv):
    ref = scipy_bspline(degree).derivative(deriv)
    x = rng.uniform(-0.5 * (degree + 1), 0.5 * (degree + 1), 200)
    assert np.allclose(bspline(degree, x, deriv), np.nan_to_num(ref(x)),
                       atol=1e-10)


@pytest.mark.parametrize("degree", [3, 5])
def test_kernel_mass_and_partition_of_unity(degree):
    z = reproducing_kernel(degree)
    assert z.integral.right == pytest.approx(1.0, abs=1e-14)
    for x0 in (0.37, -2.11, 0.0):
        s = sum(z(np.array([x0 - k]))[0] for k in range(-12, 13))
        assert s == pytest.approx(1.0, abs=1e-12)


def test_a_kernel_builds_its_antiderivative_on_first_use():
    # only the bond weights read it: kernels built for fields never do
    z = SplineKernel(3, {-1: 0.5, 0: 1.0}).convolve(bspline_kernel(0))
    assert "integral" not in vars(z)
    assert z.antiderivative(np.array([1e6]))[0] == z.integral.right
    assert "integral" in vars(z)


def test_kernel_outside_support_is_zero():
    z = reproducing_kernel(3)
    assert z(np.array([z.support_radius + 0.01]))[0] == 0.0
    x = np.array([z.support_radius + 0.5, -z.support_radius - 2.0])
    assert np.all(z(x) == 0.0)
    # the antiderivative is exactly 0 left of the support and exactly the
    # mass right of it, from the support ends out to far away
    for z in (reproducing_kernel(3), reproducing_kernel(5),
              bspline_kernel(4), reproducing_kernel(5).convolve(
                  reproducing_kernel(5))):
        r = z.support_radius
        far = np.array([r, r + 0.01, r + 0.5, r + 7.0, 1e6])
        assert np.all(z.antiderivative(-far) == 0.0)
        assert np.all(z.antiderivative(far) == z.integral.right)


@pytest.mark.parametrize("degree,degmax", [(3, 3), (5, 5)])
def test_kernel_polynomial_reproduction(degree, degmax):
    z = reproducing_kernel(degree)
    for p in range(degmax + 1):
        for x0 in (0.37, -1.6):
            s = sum((k ** p) * z(np.array([x0 - k]))[0] for k in range(-15, 16))
            assert abs(s - x0 ** p) < 1e-12


def test_plain_bspline_does_not_reproduce_quadratics():
    # the moment defect that forces the prefiltered kernel: sum xi^2 B3(x-xi)
    # = x^2 + 1/3
    z = bspline_kernel(3)
    x0 = 0.37
    s = sum((k ** 2) * z(np.array([x0 - k]))[0] for k in range(-8, 9))
    assert s == pytest.approx(x0 ** 2 + 1.0 / 3.0, abs=1e-13)


@pytest.mark.parametrize("degree", [3, 4])
def test_kernel_field_matches_periodic_scipy_spline(degree):
    # oracle: scipy's periodic B-spline on the same 2N-periodic coefficients.
    # Breakpoints sit at integers for odd degrees and at half-integers for
    # even ones; both kinds of grid points, the domain ends x = +-N and their
    # images several periods out are checked, with every derivative up to the
    # degree (right-continuous at the breakpoints on both sides)
    N = 6
    gen = np.random.default_rng(degree)   # leaves the module stream alone
    c = gen.standard_normal(2 * N)
    u = KernelField(c, bspline_kernel(degree), N)
    left = -N + 0.5 * (degree % 2 == 0)
    knots = left - degree + np.arange(2 * N + 2 * degree + 1)
    # scipy coefficient i belongs to the B-spline centered at site i - N - 1
    ref = BSpline(knots, c[(np.arange(2 * N + degree) - 1) % (2 * N)], degree,
                  extrapolate="periodic")
    grid = np.arange(-N, N + 0.5, 0.5)
    x = np.concatenate([grid + 2 * N * k for k in (0, -3, 4)]
                       + [gen.uniform(-5 * N, 5 * N, 50)])
    for deriv in range(degree + 1):
        assert np.allclose(u.eval(x, deriv), ref(x, nu=deriv),
                           rtol=0, atol=1e-12), deriv
    assert np.all(u.eval(x, degree + 1) == 0.0)


def test_localization_weight_support_and_rho_zero():
    z = reproducing_kernel(3)
    with pytest.raises(ValueError):
        localization_weight(z, 0, 0, np.array([0.1]))
    far = np.array([10.0, -9.0])
    assert np.all(localization_weight(z, 0, 2, far) == 0.0)


def test_localization_weight_matches_quadrature():
    # oracle: Gauss rule applied piecewise between the knot crossings of the
    # integrand t -> zeta(xi + t rho - x)
    z = reproducing_kernel(5)
    t, w = gauss_rule(8)
    for rho in (1, 2):
        for xi in (-1, 0, 2):
            x0 = 0.41
            crossings = (np.arange(-40, 40) / 2.0 + x0 - xi) / rho
            breaks = np.concatenate([[0.0],
                                     crossings[(crossings > 0) & (crossings < 1)],
                                     [1.0]])
            breaks = np.unique(breaks)
            oracle = 0.0
            for a, b in zip(breaks[:-1], breaks[1:]):
                tt = a + (b - a) * t
                oracle += (b - a) * float(np.dot(w, z(xi + tt * rho - x0)))
            got = float(localization_weight(z, xi, rho, np.array([x0]))[0])
            assert abs(got - oracle) < 1e-13


@pytest.mark.parametrize("degree,kmax", [(3, 3), (5, 5)])
def test_moment_identities(degree, kmax):
    z = reproducing_kernel(degree)
    xs = rng.uniform(-3, 3, 50)
    for rho in (1, 2, 3):
        for k in range(kmax + 1):
            for x0 in xs:
                val, guaranteed = moment_sum(z, rho, float(x0), k)
                assert guaranteed
                assert abs(val - (-rho) ** k / (k + 1)) < 1e-12


def test_moment_values_from_the_identity():
    z3, z5 = reproducing_kernel(3), reproducing_kernel(5)
    assert moment_sum(z3, 2, 0.71, 3)[0] == pytest.approx(-2.0, abs=1e-12)
    assert moment_sum(z5, 1, 0.13, 5)[0] == pytest.approx(-1.0 / 6.0, abs=1e-12)
    assert moment_sum(z3, 1, 0.3, 1)[0] == pytest.approx(-0.5, abs=1e-12)
    assert moment_sum(z3, 3, -0.4, 0)[0] == pytest.approx(1.0, abs=1e-12)


def test_moment_beyond_reproduction_degree_is_flagged():
    z = reproducing_kernel(3)
    val, guaranteed = moment_sum(z, 1, 0.3, 4)
    assert not guaranteed
    assert abs(val - (-1.0) ** 4 / 5.0) > 1e-6   # and indeed it fails


def test_nodal_interpolant_reproduces_cubics_locally():
    N = 16
    xi = np.arange(-N, N, dtype=float)
    poly = np.polynomial.Polynomial((0.2, -0.4, 0.03, 0.008))
    v = PeriodicLatticeField(poly(xi), N)
    vh = nodal_interpolant(v, reproducing_kernel(3))
    x = np.linspace(-5, 5, 77)
    assert np.max(np.abs(vh.eval(x) - poly(x))) < 1e-12
    zero = nodal_interpolant(PeriodicLatticeField(np.zeros(2 * N), N),
                             reproducing_kernel(3))
    assert np.all(zero.eval(x) == 0.0)


def test_convolution_interpolant_is_quasi():
    # v = delta at 0: vtilde(0) = int zeta^2 < 1
    N = 8
    vals = np.zeros(2 * N)
    vals[N] = 1.0
    vt = convolution_interpolant(PeriodicLatticeField(vals, N),
                                 reproducing_kernel(3))
    assert vt.eval(np.array([0.0]))[0] < 1.0
    # affine data reproduced (unit-mass even kernel); the doubled kernel has
    # support radius 7, so keep the window clear of the periodic seam
    N = 16
    lin = PeriodicLatticeField(0.25 * np.arange(-N, N) + 1.3, N)
    vtl = convolution_interpolant(lin, reproducing_kernel(3))
    x = np.linspace(-3, 3, 31)
    assert np.max(np.abs(vtl.eval(x) - (0.25 * x + 1.3))) < 1e-12


def test_localization_formula_for_bond_differences():
    # D_rho vtilde(xi) = int chi_{xi,rho}(x) grad vhat(x) dx
    N = 12
    v = PeriodicLatticeField(rng.standard_normal(2 * N), N)
    z = reproducing_kernel(3)
    vh = nodal_interpolant(v, z)
    vt = convolution_interpolant(v, z)
    for rho in (1, 2):
        for xi in (-3, 0, 5):
            lhs = vt.eval(np.array([float(xi + rho)]))[0] \
                - vt.eval(np.array([float(xi)]))[0]
            rhs = composite_integral(
                lambda x: localization_weight(z, xi, rho, x) * rho * vh.eval(x, 1),
                N, npoints=10)
            assert abs(lhs - rhs) < 1e-10


def test_norm_equivalence_ratios():
    # calibration bounds for the three interpolants, 100 random fields
    from chain_elastica.lattice import hermite_interpolant
    N = 64
    z = reproducing_kernel(3)
    lo, hi = np.inf, -np.inf
    lo2, hi2 = np.inf, -np.inf
    for _ in range(100):
        v = project_mean_zero(PeriodicLatticeField(rng.standard_normal(2 * N), N))
        vh = nodal_interpolant(v, z)
        vt = convolution_interpolant(v, z)
        pv = hermite_interpolant(v)
        nh = np.sqrt(composite_integral(lambda x: vh.eval(x, 1) ** 2, N, 4))
        nt = np.sqrt(composite_integral(lambda x: vt.eval(x, 1) ** 2, N, 6))
        npi = np.sqrt(composite_integral(lambda x: pv.eval(x, 1) ** 2, N, 5))
        lo, hi = min(lo, npi / nh), max(hi, npi / nh)
        lo2, hi2 = min(lo2, nh / nt), max(hi2, nh / nt)
    assert 0.2 <= lo and hi <= 5.0
    assert 0.2 <= lo2 and hi2 <= 5.0


def test_spline_interpolants_match_sites():
    N = 16
    vals = rng.standard_normal(2 * N)
    v = PeriodicLatticeField(vals, N)
    xi = np.arange(-N, N, dtype=float)
    for kind in ("cubic", "quartic", "pi"):
        iu = measurement_interpolant(v, kind)
        assert np.max(np.abs(iu.eval(xi) - vals)) < 1e-12, kind
    for kind in ("quintic", "hermite"):
        with pytest.raises(ValueError):
            measurement_interpolant(v, kind)


def test_quartic_interpolant_gradient_order():
    errs, Ns = [], (8, 16, 32, 64)
    for N in Ns:
        xi = np.arange(-N, N)
        v = PeriodicLatticeField(np.sin(np.pi * xi / N), N)
        iu = measurement_interpolant(v, "quartic")
        x = np.linspace(-N, N, 16 * N, endpoint=False)
        exact = (np.pi / N) * np.cos(np.pi * x / N)
        errs.append(np.max(np.abs(iu.eval(x, 1) - exact)))
    slope = np.polyfit(np.log([1 / n for n in Ns]), np.log(errs), 1)[0]
    assert slope >= 4.8


def test_cubic_interpolant_orders():
    # function values converge at ~4 on the fixed-amplitude mode; the loss to
    # order 3 shows up in the modeling-error measurement, where the solution
    # amplitude grows like N (covered by the acceptance sweep)
    val_errs, der_errs, Ns = [], [], (8, 16, 32, 64)
    for N in Ns:
        xi = np.arange(-N, N)
        v = PeriodicLatticeField(np.sin(np.pi * xi / N), N)
        iu = measurement_interpolant(v, "cubic")
        x = np.linspace(-N, N, 16 * N, endpoint=False)
        val_errs.append(np.max(np.abs(iu.eval(x) - np.sin(np.pi * x / N))))
        der_errs.append(np.max(np.abs(iu.eval(x, 1)
                                      - (np.pi / N) * np.cos(np.pi * x / N))))
    eps = [1 / n for n in Ns]
    val_slope = np.polyfit(np.log(eps), np.log(val_errs), 1)[0]
    der_slope = np.polyfit(np.log(eps), np.log(der_errs), 1)[0]
    assert 3.7 <= val_slope <= 4.3
    assert 3.7 <= der_slope <= 4.3


@pytest.mark.parametrize("N", [8, 16, 32, 64, 128, 256, 512, 1024])
@pytest.mark.parametrize("degree", [3, 5])
def test_subdivision_reproduces_the_coarse_field(degree, N):
    # the spline on 2N sites is exactly a spline on 4N sites: the subdivided
    # coefficients give the same function at x -> 2x, to roundoff
    c = rng.standard_normal(2 * N)
    fine = periodic_spline_subdivision(c, degree)
    kernel = bspline_kernel(degree)
    x = rng.uniform(-N, N, 2000)
    coarse_field = KernelField(c, kernel, N).eval(x)
    fine_field = KernelField(fine, kernel, 2 * N).eval(2.0 * x)
    assert np.max(np.abs(fine_field - coarse_field)) \
        <= 1e-15 * np.max(np.abs(coarse_field))


# n values from a seeded normal draw, at scales 1e-3 to 1e3
site_draws = dict(n=st.integers(8, 512), seed=st.integers(0, 2 ** 32 - 1),
                  scale=st.sampled_from([1e-3, 1.0, 1e3]))


def _site_values(n, seed, scale):
    return scale * np.random.default_rng(seed).standard_normal(n)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(degree=st.sampled_from([3, 4, 5]), **site_draws)
@example(degree=3, n=1, seed=1, scale=1.0)
@example(degree=4, n=2, seed=2, scale=1e3)
@example(degree=5, n=3, seed=3, scale=1e-3)
@example(degree=5, n=4, seed=4, scale=1.0)
@example(degree=4, n=9, seed=5, scale=1.0)
@example(degree=3, n=31, seed=6, scale=1.0)
@example(degree=5, n=257, seed=7, scale=1e3)
def test_spline_values_invert_spline_coefficients(degree, n, seed, scale):
    v = _site_values(n, seed, scale)
    bound = 1e-13 * np.max(np.abs(v))
    c = periodic_spline_coefficients(v, degree)
    assert np.max(np.abs(periodic_spline_values(c, degree) - v)) <= bound
    assert np.max(np.abs(periodic_spline_coefficients(
        periodic_spline_values(v, degree), degree) - v)) <= bound


@settings(derandomize=True, max_examples=60, deadline=None)
@given(degree=st.sampled_from([3, 5]), **site_draws)
def test_subdivision_keeps_the_values_at_the_coarse_sites(degree, n, seed,
                                                          scale):
    # coarse site j is fine site 2j
    c = _site_values(n, seed, scale)
    coarse = periodic_spline_values(c, degree)
    fine = periodic_spline_values(periodic_spline_subdivision(c, degree),
                                  degree)
    assert np.max(np.abs(fine[::2] - coarse)) \
        <= 1e-13 * np.max(np.abs(coarse))


def test_subdivision_needs_an_odd_degree():
    # an even-degree B-spline centered on the integers has its knots at the
    # half-integers, which the doubled mesh does not keep
    with pytest.raises(ValueError, match="odd-degree"):
        periodic_spline_subdivision(np.ones(16), 4)


def _fft_spline_values(c, degree):
    """The values at the sites of the periodic spline sum_j c_j B_d(xi - j)
    by their definition in Fourier space: the FFT of c times the DFT of the
    circulant collocation matrix, a cos sweep over n per B-spline tap."""
    n = c.size
    rad = (degree + 1) // 2 + 1
    offsets = np.arange(-rad, rad + 1)
    symbol = np.zeros(n)
    for off, b in zip(offsets, bspline(degree, offsets.astype(float))):
        if b != 0.0:
            symbol += b * np.cos(2 * np.pi * off * np.arange(n) / n)
    return np.real(np.fft.ifft(np.fft.fft(c) * symbol))


@pytest.mark.parametrize("n", list(range(1, 13)) + [17, 31, 255, 2048])
@pytest.mark.parametrize("degree", [3, 4, 5])
def test_spline_values_match_the_fft_definition(degree, n, monkeypatch):
    # the convolution over the integer taps of B_d is the symbol's product
    # in Fourier space, also below the 3 or 5 taps, where it wraps more than
    # once; it builds no symbol
    c = rng.standard_normal(n)
    built = []
    monkeypatch.setattr(splines, "_interpolation_symbol",
                        lambda *args: built.append(args))
    got = periodic_spline_values(c, degree)
    assert built == []
    assert got.shape == (n,)
    assert np.max(np.abs(got - _fft_spline_values(c, degree))) \
        <= 1e-13 * np.max(np.abs(c))


@pytest.mark.parametrize("degree", [3, 4, 5])
def test_interpolation_symbol_is_built_once_and_read_only(degree):
    # the symbol is built anew per call, at the n//2 + 1 modes of an rfft;
    # periodic_spline_coefficients divides by it, the inverse of
    # periodic_spline_values
    n = 48
    symbol = _interpolation_symbol(n, degree)
    assert symbol.shape == (n // 2 + 1,)
    v = rng.standard_normal(n)
    c = periodic_spline_coefficients(v, degree)
    sites = np.arange(-n // 2, n // 2, dtype=float)
    field = KernelField(c, bspline_kernel(degree), n // 2)
    assert np.max(np.abs(field.eval(sites) - v)) < 1e-13
    assert np.max(np.abs(periodic_spline_values(c, degree) - v)) < 1e-13
