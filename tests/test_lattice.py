import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from chain_elastica.lattice import (PeriodicLatticeField, check_admissible,
                                    finite_difference, hermite_interpolant,
                                    project_mean_zero, stencil_derivatives)

rng = np.random.default_rng(20240811)


def test_finite_difference_constant_and_ramp():
    N = 8
    v = PeriodicLatticeField(np.full(2 * N, 3.7), N)
    assert np.all(finite_difference(v, 2) == 0.0)
    saw = PeriodicLatticeField(np.arange(-N, N, dtype=float), N)
    d = finite_difference(saw, 1)
    assert np.all(d[:-1] == 1.0)          # interior
    assert d[-1] == 1.0 - 2 * N           # wrap jump


def test_finite_difference_antisymmetry():
    # D_{-rho} v(xi) = -D_rho v(xi - rho)
    N = 16
    v = PeriodicLatticeField(rng.standard_normal(2 * N), N)
    xi = np.arange(-N, N)
    for rho in (1, 2, 3):
        lhs = finite_difference(v, -rho, xi)
        rhs = -finite_difference(v, rho, xi - rho)
        assert np.array_equal(lhs, rhs)


def test_project_mean_zero():
    N = 8
    v = PeriodicLatticeField(np.full(2 * N, 5.0), N)
    assert np.all(project_mean_zero(v).values == 0.0)
    w = PeriodicLatticeField(rng.standard_normal(2 * N), N)
    pw = project_mean_zero(w)
    assert abs(pw.values.sum()) < 1e-12 * 2 * N
    # idempotent, equivariant under constant shifts
    assert np.allclose(project_mean_zero(pw).values, pw.values)
    shifted = PeriodicLatticeField(w.values + 4.2, N)
    assert np.allclose(project_mean_zero(shifted).values, pw.values)


def test_check_admissible():
    N = 8
    v = PeriodicLatticeField(np.zeros(2 * N), N)
    ok, *_ = check_admissible(v, (1, 2), 0.25)
    assert ok
    vals = np.zeros(2 * N)
    vals[3:] += 0.3                      # one jump of 0.3
    ok, site, rho, worst = check_admissible(PeriodicLatticeField(vals, N),
                                            (1,), 0.25)
    assert not ok
    assert site == 3 - N - 1 + 1 or worst == pytest.approx(0.3)


def test_stencils_exact_on_quadratic_and_quartic():
    # interior sites only: a global polynomial is not periodic
    N = 16
    xi = np.arange(-N, N, dtype=float)
    v = PeriodicLatticeField(xi ** 2, N)
    d1, d2, d3, d4 = stencil_derivatives(v)
    interior = slice(4, 2 * N - 4)
    assert np.allclose(d1[interior], 2 * xi[interior], atol=1e-11)
    assert np.allclose(d2[interior], 2.0, atol=1e-11)
    assert np.allclose(d3[interior], 0.0, atol=1e-11)
    assert np.allclose(d4[interior], 0.0, atol=1e-10)
    v4 = PeriodicLatticeField(xi ** 4, N)
    d4 = stencil_derivatives(v4)[3]
    assert np.allclose(d4[interior], 24.0, atol=1e-8)


def test_stencil_first_derivative_order():
    errs, Ns = [], (8, 16, 32, 64)
    for N in Ns:
        xi = np.arange(-N, N)
        v = PeriodicLatticeField(np.sin(np.pi * xi / N), N)
        d1 = stencil_derivatives(v)[0]
        exact = (np.pi / N) * np.cos(np.pi * xi / N)
        errs.append(np.max(np.abs(d1 - exact)))
    slope = np.polyfit(np.log([1 / n for n in Ns]), np.log(errs), 1)[0]
    assert slope >= 4.8


def test_stencils_need_seven_sites():
    with pytest.raises(ValueError):
        stencil_derivatives(PeriodicLatticeField(np.zeros(6), 3))


def test_hermite_reproduces_quartics_interior():
    N = 16
    xi = np.arange(-N, N, dtype=float)
    coef = (0.3, -0.2, 0.05, 0.01, 0.002)
    poly = np.polynomial.Polynomial(coef)
    H = hermite_interpolant(PeriodicLatticeField(poly(xi), N))
    x = np.linspace(-6, 6, 101)
    assert np.max(np.abs(H.eval(x) - poly(x))) < 1e-10
    assert np.max(np.abs(H.eval(x, 1) - poly.deriv()(x))) < 1e-10


def test_hermite_matches_sites_bit_exactly():
    N = 12
    vals = rng.standard_normal(2 * N)
    H = hermite_interpolant(PeriodicLatticeField(vals, N))
    xi = np.arange(-N, N, dtype=float)
    assert np.array_equal(H.eval(xi), vals)


def test_hermite_gradient_order():
    errs, Ns = [], (8, 16, 32, 64)
    for N in Ns:
        xi = np.arange(-N, N)
        H = hermite_interpolant(PeriodicLatticeField(np.sin(np.pi * xi / N), N))
        x = np.linspace(-N, N, 20 * N, endpoint=False)
        exact = (np.pi / N) * np.cos(np.pi * x / N)
        errs.append(np.max(np.abs(H.eval(x, 1) - exact)))
    slope = np.polyfit(np.log([1 / n for n in Ns]), np.log(errs), 1)[0]
    assert slope >= 4.8


def test_hermite_is_c4_at_nodes():
    N = 8
    H = hermite_interpolant(PeriodicLatticeField(rng.standard_normal(2 * N), N))
    h = 1e-9
    for deriv in range(5):
        left = H.eval(np.array([2.0 - h]), deriv)
        right = H.eval(np.array([2.0 + h]), deriv)
        assert abs(left - right) < 1e-5, deriv


def test_importing_the_cli_does_not_build_the_hermite_matrix():
    # a fresh interpreter: the exact rational Hermite matrix, and the
    # fractions module, wait for the first Hermite interpolant
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; import chain_elastica.cli; "
            "from chain_elastica import lattice; "
            "built = lattice._hermite9_matrix.cache_info().currsize; "
            "loaded = 'fractions' in sys.modules; "
            "lattice.hermite_interpolant(lattice.PeriodicLatticeField("
            "[0.0] * 8)); "
            "print(built, loaded, lattice._hermite9_matrix.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False", "1"]
