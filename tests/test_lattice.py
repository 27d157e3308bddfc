"""Lattice functions, (2N,) arrays of site values: the difference stencils
and Hermite interpolant of `splines` and the admissibility check of
`atomistic`."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from chain_elastica.atomistic import AtomisticSystem, check_admissible
from chain_elastica.fem import FemField
from chain_elastica.potentials import make_potential
from chain_elastica.splines import (KernelField, bspline_kernel,
                                    hermite_interpolant, stencil_derivatives)

rng = np.random.default_rng(20240811)


def test_check_admissible():
    N = 8
    chain = AtomisticSystem(N, make_potential("harmonic"), bonds=(1, 2))
    ok, *_ = check_admissible(chain._strains(np.zeros(2 * N)), 0.25)
    assert ok
    vals = np.zeros(2 * N)
    vals[3:] += 0.3                      # one jump of 0.3
    chain = AtomisticSystem(N, make_potential("harmonic"), bonds=(1,))
    ok, site, rho, worst = check_admissible(chain._strains(vals), 0.25)
    assert not ok
    assert (site, rho) == (2 - N, 1) and worst == pytest.approx(0.3)


def test_stencils_exact_on_quadratic_and_quartic():
    # interior sites only: a global polynomial is not periodic
    N = 16
    xi = np.arange(-N, N, dtype=float)
    d1, d2, d3, d4 = stencil_derivatives(xi ** 2)
    interior = slice(4, 2 * N - 4)
    assert np.allclose(d1[interior], 2 * xi[interior], atol=1e-11)
    assert np.allclose(d2[interior], 2.0, atol=1e-11)
    assert np.allclose(d3[interior], 0.0, atol=1e-11)
    assert np.allclose(d4[interior], 0.0, atol=1e-10)
    d4 = stencil_derivatives(xi ** 4)[3]
    assert np.allclose(d4[interior], 24.0, atol=1e-8)


def test_stencil_first_derivative_order():
    errs, Ns = [], (8, 16, 32, 64)
    for N in Ns:
        xi = np.arange(-N, N)
        d1 = stencil_derivatives(np.sin(np.pi * xi / N))[0]
        exact = (np.pi / N) * np.cos(np.pi * xi / N)
        errs.append(np.max(np.abs(d1 - exact)))
    slope = np.polyfit(np.log([1 / n for n in Ns]), np.log(errs), 1)[0]
    assert slope >= 4.8


def test_stencils_need_seven_sites():
    with pytest.raises(ValueError):
        stencil_derivatives(np.zeros(6))


@pytest.mark.parametrize("values", [np.zeros(9), np.zeros((2, 8))],
                         ids=["odd", "2d"])
def test_fields_need_one_value_per_site_of_2N(values):
    # N is half the length: an odd length, or a stack, has no N
    for build in (stencil_derivatives, hermite_interpolant, FemField,
                  lambda c: KernelField(c, bspline_kernel(4))):
        with pytest.raises(ValueError, match="2N"):
            build(values)


def test_hermite_reproduces_quartics_interior():
    N = 16
    xi = np.arange(-N, N, dtype=float)
    coef = (0.3, -0.2, 0.05, 0.01, 0.002)
    poly = np.polynomial.Polynomial(coef)
    H = hermite_interpolant(poly(xi))
    x = np.linspace(-6, 6, 101)
    assert np.max(np.abs(H.eval(x) - poly(x))) < 1e-10
    assert np.max(np.abs(H.eval(x, 1) - poly.deriv()(x))) < 1e-10


def test_hermite_matches_sites_bit_exactly():
    N = 12
    vals = rng.standard_normal(2 * N)
    H = hermite_interpolant(vals)
    xi = np.arange(-N, N, dtype=float)
    assert np.array_equal(H.eval(xi), vals)


def test_hermite_gradient_order():
    errs, Ns = [], (8, 16, 32, 64)
    for N in Ns:
        xi = np.arange(-N, N)
        H = hermite_interpolant(np.sin(np.pi * xi / N))
        x = np.linspace(-N, N, 20 * N, endpoint=False)
        exact = (np.pi / N) * np.cos(np.pi * x / N)
        errs.append(np.max(np.abs(H.eval(x, 1) - exact)))
    slope = np.polyfit(np.log([1 / n for n in Ns]), np.log(errs), 1)[0]
    assert slope >= 4.8


def test_hermite_is_c4_at_nodes():
    N = 8
    H = hermite_interpolant(rng.standard_normal(2 * N))
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
            "from chain_elastica import splines; "
            "built = splines._hermite9_matrix.cache_info().currsize; "
            "loaded = 'fractions' in sys.modules; "
            "splines.hermite_interpolant([0.0] * 8); "
            "print(built, loaded, splines._hermite9_matrix.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False", "1"]
