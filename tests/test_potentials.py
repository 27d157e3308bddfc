import numpy as np
import pytest

from chain_elastica.optimize import DomainError
from chain_elastica.potentials import (PairPotential, decay_moment,
                                       make_potential, shifted)


def fd_derivative(p, j, r, h=1e-5):
    return (p.derivative(j, r + h) - p.derivative(j, r - h)) / (2 * h)


def test_harmonic_second_derivative_constant():
    p = make_potential("harmonic")
    r = np.array([0.3, 1.0, 2.7])
    assert np.all(p.derivative(2, r) == 1.0)
    assert np.all(p.derivative(3, r) == 0.0)


def test_lj_rest_length():
    p = make_potential("lj")
    assert abs(p.derivative(1, 1.0)) < 1e-12
    assert abs(p.derivative(0, 1.0) + 1.0) < 1e-14


def test_morse_rest_length():
    p = make_potential("morse")
    assert abs(p.derivative(1, 1.0)) < 1e-12
    assert abs(p.derivative(0, 1.0) + 1.0) < 1e-14


def test_lj_coefficient_table_is_the_product_formula():
    # d^j/ds^j s^-p = (-1)^j p (p+1) ... (p+j-1) s^-(p+j), bit for bit
    p = PairPotential("lj")
    r = np.linspace(0.7, 3.0, 11)
    for j in range(8):
        c12 = np.prod(np.arange(12, 12 + j), dtype=float) * (-1.0) ** j
        c6 = np.prod(np.arange(6, 6 + j), dtype=float) * (-1.0) ** j
        want = c12 * r ** (-12.0 - j) - 2.0 * c6 * r ** (-6.0 - j)
        assert np.array_equal(p.derivative(j, r), want)


def test_lj_second_derivative_at_rest():
    # oracle: central difference of phi' with step 1e-5
    p = make_potential("lj")
    fd = fd_derivative(p, 1, 1.0)
    assert abs(fd - 72.0) < 1e-5
    assert abs(p.derivative(2, 1.0) - 72.0) < 1e-10


@pytest.mark.parametrize("kind", ["harmonic", "lj", "morse"])
def test_derivatives_match_finite_differences(kind):
    # |(phi^(j)(r+h) - phi^(j)(r-h))/2h - phi^(j+1)(r)| = O(h^2)
    p = make_potential(kind)
    r = 0.83
    for j in range(7):
        errs = []
        hs = [1e-3, 1e-4, 1e-5]
        for h in hs:
            errs.append(abs(fd_derivative(p, j, r, h) - p.derivative(j + 1, r)))
        if max(errs) < 1e-9:   # identically zero higher harmonic derivatives
            continue
        slope = np.polyfit(np.log(hs), np.log(np.maximum(errs, 1e-300)), 1)[0]
        assert slope >= 1.9, (kind, j, errs)


@pytest.mark.parametrize("kind", ["lj", "morse"])
def test_scaled_rest_length(kind):
    p = make_potential(kind, eps=0.25)
    assert abs(p.derivative(1, 0.25)) < 1e-12


def test_domain_errors():
    # a nonpositive distance is a DomainError, which a shifted potential
    # re-raises naming its bond; an unsupported order is a ValueError
    p = make_potential("lj")
    with pytest.raises(DomainError):
        p.derivative(0, -1.0)
    with pytest.raises(DomainError, match="^bond rho=2: pair potential"):
        shifted(p, 1.0, 2).derivative(1, -2.5)
    with pytest.raises(ValueError):
        p.derivative(8, 1.0)


@pytest.mark.parametrize("eps", [1.0, 0.9])
@pytest.mark.parametrize("kind", ["harmonic", "lj", "morse"])
def test_derivative_in_place_has_the_bits_of_a_new_array(kind, eps):
    # written over its argument, a derivative skips what a scale of 1 leaves
    # exact, and keeps every bit of the derivative into a new array
    p = make_potential(kind, eps=eps)
    r = np.linspace(0.7, 2.5, 41)
    for j in range(8):
        want = p.derivative_unchecked(j, r)
        got = r.copy()
        p.derivative_unchecked(j, got, out=got)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_shifted_is_exact_translation():
    p = make_potential("lj")
    s = shifted(p, 1.0, 2)
    g = np.array([-0.2, 0.0, 0.31])
    for j in range(8):
        assert np.all(s.derivative(j, g) == p.derivative(j, g + 2.0))


def test_shifted_trivial_values():
    har = make_potential("harmonic")
    assert shifted(har, 1.0, 1).derivative(0, 0.0) == 0.0
    assert shifted(har, 1.0, 2).derivative(0, 0.0) == 0.5
    lj = make_potential("lj")
    assert abs(shifted(lj, 1.0, 1).derivative(1, 0.0)) < 1e-12
    with pytest.raises(ValueError):
        shifted(har, -1.0, 1)


def test_decay_moment_harmonic():
    p = make_potential("harmonic")
    assert decay_moment(p, 1.0, (1,), 2, 0, (-0.3, 0.3)) == 1.0
    assert decay_moment(p, 1.0, (1, 2), 2, 0, (-0.3, 0.3)) == 5.0


def test_decay_moment_lj_matches_dense_sampling():
    p = make_potential("lj")
    got = decay_moment(p, 1.0, (1,), 2, 0, (-0.25, 0.25))
    g = np.linspace(-0.25, 0.25, 10_000)
    oracle = float(np.max(np.abs(p.derivative(2, g + 1.0))))
    assert abs(got - oracle) < 1e-6 * oracle


def test_decay_moment_empty_interval():
    p = make_potential("lj")
    with pytest.raises(ValueError):
        decay_moment(p, 1.0, (1,), 2, 0, (0.3, 0.3))
