import numpy as np
import pytest

from chain_elastica.analysis import (atomistic_symbol, cb_symbol,
                                     direct_symbol, find_negative_mode,
                                     hoc_taylor_symbol, stability_constants)
from chain_elastica.atomistic import AtomisticSystem
from chain_elastica.continuum import continuum_model
from chain_elastica.oracles import band_toarray, hessian_dft_eigenvalues
from chain_elastica.potentials import make_potential


def test_symbol_small_x_limit():
    sys_ = AtomisticSystem(8, make_potential("lj"), bonds=(1, 2))
    x = np.array([1e-12, 1e-6])
    lim = atomistic_symbol(sys_, x)
    assert np.allclose(lim, cb_symbol(sys_), rtol=1e-6)


def test_atomistic_symbol_harmonic_nn_at_pi():
    sys_ = AtomisticSystem(8, make_potential("harmonic"), bonds=(1,))
    assert atomistic_symbol(sys_, np.array([np.pi]))[0] == \
        pytest.approx(4.0 / np.pi ** 2, rel=1e-12)


def test_atomistic_symbol_matches_rayleigh_quotient():
    # the discrete mode symbols equal the generalized Rayleigh quotient of
    # the circulant Hessian against the discrete-gradient Gram matrix
    N = 8
    sys_ = AtomisticSystem(N, make_potential("lj"), bonds=(1, 2))
    H = band_toarray(sys_.hessian(np.zeros(2 * N)))
    D = np.eye(2 * N)
    D = np.roll(D, -1, axis=1) - D       # first difference
    G = D.T @ D
    for k in (1, 3, 7):
        theta = np.pi * k / N
        mode_c = np.cos(theta * np.arange(2 * N))
        num = mode_c @ H @ mode_c
        den = mode_c @ G @ mode_c
        sym = atomistic_symbol(sys_, np.array([theta]))[0]
        gram_sym = num / den
        # same quantity up to the x^2 vs 4 sin^2(x/2) normalization
        assert gram_sym == pytest.approx(
            sym * theta ** 2 / (4 * np.sin(theta / 2) ** 2), rel=1e-10)


def test_truncated_taylor_coefficients():
    # the truncation is x^2 - x^4/3 + 2x^6/45 per bond (scaled argument)
    sys_ = AtomisticSystem(8, make_potential("harmonic"), bonds=(1,))
    x = np.array([0.3, 0.7])
    y = 0.5 * x
    expect = (y ** 2 - y ** 4 / 3.0 + 2.0 * y ** 6 / 45.0) / (0.5 * x) ** 2
    assert np.allclose(hoc_taylor_symbol(sys_, x), expect, rtol=1e-14)


def test_pointwise_ordering_harmonic_and_lj_nn():
    x = np.linspace(0, 1, 10_001)[1:]
    for pot, bonds in (("harmonic", (1, 2)), ("lj", (1,))):
        sys_ = AtomisticSystem(8, make_potential(pot), bonds=bonds)
        a = atomistic_symbol(sys_, x)
        h = hoc_taylor_symbol(sys_, x)
        c = np.full_like(x, cb_symbol(sys_))
        tol = 1e-12 * float(np.max(np.abs(c)))
        assert np.all(a <= h + tol), pot
        assert np.all(h <= c + tol), pot


def test_lj_second_neighbor_breaks_pointwise_ordering():
    # documented finding: phi_2''(0) < 0 for Lennard-Jones at F = 1, so the
    # per-bond inequality argument fails and the pointwise ordering is
    # violated by a few 1e-4 on the band
    sys_ = AtomisticSystem(8, make_potential("lj"), bonds=(1, 2))
    assert float(sys_.phi[2].derivative(2, np.zeros(1))[0]) < 0.0
    x = np.linspace(0, 1, 10_001)[1:]
    viol = np.max(atomistic_symbol(sys_, x) - hoc_taylor_symbol(sys_, x))
    assert 1e-5 < viol < 1e-2


def test_hoc4_direct_symbol_nonnegative_with_root_at_24():
    m = continuum_model("hoc4", make_potential("harmonic"), bonds=(1,))
    x = np.linspace(0, np.pi, 10_001)[1:]
    assert np.min(direct_symbol(m, x)) >= 0.0
    # quadratic-form polynomial x^2/2 - x^4/24 + x^6/1152 factorizes with a
    # double root at x^2 = 24
    roots = np.roots([1.0 / 1152.0, -1.0 / 24.0, 0.5])
    assert np.allclose(roots.real, 24.0, atol=1e-5)
    assert direct_symbol(m, np.array([np.sqrt(24.0)]))[0] == \
        pytest.approx(0.0, abs=1e-12)


def test_ill2_direct_symbol_negative_past_threshold():
    m = continuum_model("ill2", make_potential("harmonic"), bonds=(1,))
    x = np.array([3.0, 3.6])        # below and above sqrt(12)
    s = direct_symbol(m, x)
    assert s[0] > 0.0 > s[1]


def test_cb_direct_symbol_constant_positive():
    m = continuum_model("cb", make_potential("harmonic"), bonds=(1, 2))
    x = np.linspace(0.1, np.pi, 11)
    assert np.allclose(direct_symbol(m, x), 5.0)


def test_find_negative_mode_matches_closed_form():
    ill = continuum_model("ill2", make_potential("harmonic"), bonds=(1,))
    for N in (8, 16, 32):
        pred = int(np.ceil(2.0 * np.sqrt(3.0) * N / np.pi))
        assert find_negative_mode(ill, N) == pred
    hoc = continuum_model("hoc4", make_potential("harmonic"), bonds=(1,))
    assert find_negative_mode(hoc, 16) is None
    cb = continuum_model("cb", make_potential("harmonic"), bonds=(1,))
    assert find_negative_mode(cb, 16) is None


def test_stability_report():
    sys_ = AtomisticSystem(8, make_potential("harmonic"), bonds=(1, 2))
    rep = stability_constants(sys_, band=(0.0, 1.0), Ns=(8, 16, 32))
    assert rep.ordering_holds
    assert rep.lambda_a <= rep.lambda_hoc_taylor <= rep.lambda_cb
    assert rep.lambda_cb == pytest.approx(5.0)
    assert rep.perturbation_kappa_bound == np.inf   # harmonic: M^(3,0) = 0
    lj = AtomisticSystem(8, make_potential("lj"), bonds=(1,))
    rep_lj = stability_constants(lj, band=(0.0, 1.0), Ns=(8, 16))
    assert rep_lj.ordering_holds
    assert 0.0 < rep_lj.perturbation_kappa_bound < 1.0


@pytest.mark.parametrize("bonds", [(1, 2), tuple(range(1, 10))],
                         ids=["r_cut-2", "r_cut-9"])
@pytest.mark.parametrize("potential", ["harmonic", "lj", "morse"])
def test_stability_constants_match_the_dft_oracle(potential, bonds):
    # the constants divide the spectrum of the chain's band, the one Newton
    # certifies with, by the Gram. The closed-form oracle's quotients were
    # measured at most 1 ulp away on r_cut = 2 (LJ at N = 8; 0 elsewhere)
    # and 2 ulps on r_cut = 9, whose band aliases offsets at N = 8
    Ns = (8, 16, 32, 64)
    system = AtomisticSystem(8, make_potential(potential), bonds=bonds)
    got = stability_constants(system, ngrid=10, Ns=Ns).lambda_a_per_N
    for N in Ns:
        chain = AtomisticSystem(N, system.potential, bonds=bonds)
        k = np.arange(1, 2 * N)
        gram = 4.0 * np.sin(np.pi * np.minimum(k, 2 * N - k) / (2 * N)) ** 2
        want = np.min(hessian_dft_eigenvalues(chain)[1:] / gram)
        assert abs(got[N] - want) <= 2 * np.spacing(want), N


def test_symbols_collapse_as_x_to_zero():
    sys_ = AtomisticSystem(8, make_potential("lj"), bonds=(1, 2))
    x = np.array([1e-4])
    a = atomistic_symbol(sys_, x)[0]
    h = hoc_taylor_symbol(sys_, x)[0]
    c = cb_symbol(sys_)
    assert a == pytest.approx(c, rel=1e-7)
    assert h == pytest.approx(c, rel=1e-7)
