import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings, strategies as st

from chain_elastica import optimize
from chain_elastica.atomistic import AtomisticSystem
from chain_elastica.continuum import MODEL_KEYS, continuum_model
from chain_elastica.fem import PeriodicSplineSpace, assemble
from chain_elastica.harness import StudyConfig, run_sweep
from chain_elastica.optimize import (STEP_RTOL, DomainError, MinimizeProblem,
                                     PeriodicBand, newton_minimize,
                                     stack_of_one)
from chain_elastica.oracles import band_solve, band_toarray, gradient_check
from chain_elastica.potentials import POTENTIAL_KINDS, make_potential
from single import Single, assemble_one, newton_one, solve_one

rng = np.random.default_rng(11)


def bond_band(n, weights):
    """Translation-invariant band: weights[o - 1, m] couples sites m and
    m + o (a weighted periodic graph Laplacian when the weights are > 0)."""
    H = PeriodicBand(n, len(weights))
    for o, k in enumerate(weights, 1):
        H.add(0, k)
        H.add(0, k, shift=o)
        H.add(o, -k)
        H.add(-o, -k, shift=o)
    return H


def quadratic_problem(H, b, quadratic=False):
    A = band_toarray(H)
    return stack_of_one(objective=lambda x: 0.5 * x @ A @ x - b @ x,
                        gradient=lambda x: A @ x - b,
                        hessian=lambda x: H, quadratic=quadratic)


def mean_zero(v):
    return v - v.mean()


def indefinite_band(n, b, gen=rng):
    """Positive bonds at offsets 2..b and strongly negative nearest-neighbour
    bonds: the lowest mean-zero mode has negative energy."""
    weights = gen.uniform(0.5, 1.5, (b, n))
    weights[0] -= 4.0 * b ** 3
    return bond_band(n, weights)


@pytest.mark.parametrize("n", [3, 8])
def test_periodic_band_add_matches_its_rolled_definition(n):
    # the add by two slices against np.roll, bit for bit, for every shift
    # in -2n..2n
    b, gen = 2, np.random.default_rng(n)
    base = gen.standard_normal((2 * b + 1, n))
    values = gen.standard_normal((2 * b + 1, n))
    for shift in range(-2 * n, 2 * n + 1):
        for o, v in [(-b, values[0]), (0, values[1]), (1, values[2])]:
            H = PeriodicBand(n, b)
            H.diags[:] = base
            H.add(o, v, shift)
            want = base.copy()
            want[b + o] += np.roll(v, shift, axis=-1)
            assert np.array_equal(H.diags, want)


@pytest.mark.parametrize("b", [2, 5])
@pytest.mark.parametrize("n", [8, 10, 11, 16, 64])
def test_periodic_band_solve_matches_dense(n, b):
    H = bond_band(n, rng.uniform(0.5, 1.5, (b, n)))
    A = band_toarray(H)
    assert np.array_equal(A, A.T)
    assert np.max(np.abs(A @ np.ones(n))) < 1e-13
    rhs = mean_zero(rng.standard_normal(n))
    ref = mean_zero(np.linalg.lstsq(A, rhs, rcond=None)[0])
    x = band_solve(H, rhs)
    assert np.max(np.abs(x - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))
    assert abs(x.mean()) < 1e-15


@pytest.mark.parametrize("b", [2, 5])
@pytest.mark.parametrize("n", [8, 10, 11, 16, 64])
def test_periodic_band_indefinite_raises(n, b):
    H = indefinite_band(n, b)
    A = band_toarray(H)
    P = np.eye(n) - 1.0 / n
    assert np.linalg.eigvalsh(P @ A @ P)[0] < -1.0
    with pytest.raises(np.linalg.LinAlgError):
        band_solve(H, mean_zero(rng.standard_normal(n)))


# n = 2 and 3 alias offsets and 2b + 1 is the smallest size that does not;
# 127 and 1000 pad the last block and run several levels of the cyclic
# reduction before its dense end. Each case draws from its own generator.
MORE_BAND_SIZES = [(n, b) for b in (2, 5)
                   for n in (2, 3, 2 * b + 1, 127, 1000)]


@pytest.mark.parametrize("n, b", MORE_BAND_SIZES)
def test_periodic_band_solve_matches_dense_more_sizes(n, b):
    gen = np.random.default_rng([n, b])
    H = bond_band(n, gen.uniform(0.5, 1.5, (b, n)))
    A = band_toarray(H)
    # aliased offsets (n <= 2b) sum their parts of H[i, j] and H[j, i] in
    # different orders
    assert np.allclose(A, A.T, rtol=1e-15, atol=0.0)
    assert np.max(np.abs(A @ np.ones(n))) < 1e-13
    rhs = mean_zero(gen.standard_normal(n))
    # the forward error of the lstsq reference is O(eps·κ), κ the condition
    # number on mean-zero vectors (up to 4.3e4 for n = 1000)
    lam = np.linalg.eigvalsh(A)
    tol = max(1e-12, 4 * np.finfo(float).eps * lam[-1] / lam[1])
    ref = mean_zero(np.linalg.lstsq(A, rhs, rcond=None)[0])
    x = band_solve(H, rhs)
    assert np.max(np.abs(x - ref)) < tol * max(1.0, np.max(np.abs(ref)))
    assert abs(x.mean()) < 1e-15 * max(1.0, np.max(np.abs(x)))


@pytest.mark.parametrize("n, b", MORE_BAND_SIZES)
def test_periodic_band_indefinite_raises_more_sizes(n, b):
    gen = np.random.default_rng([n, b])
    H = indefinite_band(n, b, gen)
    A = band_toarray(H)
    P = np.eye(n) - 1.0 / n
    assert np.linalg.eigvalsh(P @ A @ P)[0] < -1.0
    with pytest.raises(np.linalg.LinAlgError):
        band_solve(H, mean_zero(gen.standard_normal(n)))


@pytest.mark.parametrize("weights", [[1.0], [1.0, 2.0],
                                     [1.0, 0.5, 0.2, 0.1, 0.05]])
@pytest.mark.parametrize("n", [256, 2048, 8192])
def test_periodic_band_solve_is_accurate_on_long_rings(n, weights):
    # constant bond weights: the circulant's Fourier modes are eigenvectors,
    # with eigenvalue sum_o 4 k_o sin^2(pi j o / n) known to a few ulps, while
    # the condition number on mean-zero vectors grows like n^2 (4e7 for
    # n = 8192, b = 1). The refined solve is good to about 1e-15 relative;
    # the banded Cholesky it replaced reached 2e-11 at n = 8192.
    H = bond_band(n, np.outer(weights, np.ones(n)))
    m = np.arange(n)
    for j in (1, 3):
        lam = sum(4 * k * np.sin(np.pi * j * o / n) ** 2
                  for o, k in enumerate(weights, 1))
        f = np.cos(2 * np.pi * j * m / n)
        x = band_solve(H, f)
        assert np.max(np.abs(x - f / lam)) < 1e-13 / lam


@pytest.mark.parametrize("weights", [[1.0], [1.0, 2.0],
                                     [1.0, 0.5, 0.2, 0.1, 0.05]])
@pytest.mark.parametrize("n", [2048, 8192])
def test_periodic_band_reduction_is_accurate_on_long_rings(
        n, weights, factorizations):
    # the long rings above with each bond weight scaled by a random factor
    # in [0.5, 1.5]: no longer circulant, so the reduction solves them. The
    # right-hand side of a smooth mode x is H x in the difference form,
    # exact on constants; the refined solve recovers x to a few 1e-15. One
    # factorization serves both right-hand sides
    gen = np.random.default_rng([n, len(weights)])
    H = bond_band(n, np.outer(weights, np.ones(n))
                  * gen.uniform(0.5, 1.5, (len(weights), n)))
    passes = H.factor()
    m = np.arange(n)
    cols = (m + np.arange(-H.b, H.b + 1)[:, None]) % n
    for j in (1, 3):
        x = np.cos(2 * np.pi * j * m / n)
        rhs = np.einsum("om,om->m", H.diags, x[cols] - x)
        *_, got = passes(rhs)
        assert np.max(np.abs(got - x)) < 1e-13
    assert factorizations == [False]


@pytest.mark.parametrize("n, singular", [(16, True), (64, True),
                                         (17, False), (65, False)])
def test_periodic_band_spectral_certificate_is_exact(n, singular,
                                                     factorizations):
    # second-neighbour bonds only: an even ring falls apart into two rings
    # of n/2 sites, and its alternating mode j = n/2 costs exactly nothing,
    # lam = 4·sin^2(pi) = 0. That one non-positive mode must fail the
    # certificate. An odd ring stays connected and is positive definite
    H = bond_band(n, np.array([np.zeros(n), np.ones(n)]))
    assert H.is_circulant()
    lam = H.eigenvalues()
    assert lam[0] == 0.0
    assert (lam[1:] <= 0.0).sum() == (1 if singular else 0)
    rhs = mean_zero(rng.standard_normal(n))
    if singular:
        assert lam[n // 2] == 0.0
        with pytest.raises(np.linalg.LinAlgError):
            band_solve(H, rhs)
    else:
        ref = mean_zero(np.linalg.lstsq(band_toarray(H), rhs,
                                        rcond=None)[0])
        assert np.max(np.abs(band_solve(H, rhs) - ref)) < 1e-12
    assert factorizations == [True]


@pytest.mark.parametrize("n, b", [(11, 5), (64, 2), (1000, 5), (2048, 2)])
def test_periodic_band_one_ulp_off_circulant_takes_the_reduction(
        n, b, factorizations):
    # one bond weight one ulp above the rest: the band is no longer
    # circulant, is factored by the reduction, and agrees with the spectral
    # solve of the exactly circulant band to roundoff
    weights = np.outer(np.linspace(1.0, 0.2, b), np.ones(n))
    circulant = bond_band(n, weights)
    weights[b // 2, n // 3] = np.nextafter(weights[b // 2, n // 3], 2.0)
    off = bond_band(n, weights)
    assert circulant.is_circulant() and not off.is_circulant()
    with pytest.raises(ValueError):
        off.eigenvalues()
    rhs = mean_zero(rng.standard_normal(n))
    x, y = band_solve(circulant, rhs), band_solve(off, rhs)
    assert factorizations == [True, False]
    assert np.max(np.abs(x - y)) < 1e-13 * np.max(np.abs(x))


@pytest.mark.parametrize("n, b", [(2, 1), (4, 2), (10, 5)])
def test_periodic_band_with_aliased_offsets_takes_the_reduction(
        n, b, factorizations):
    # n <= 2b aliases offsets: even with equal columns the band is not
    # treated as circulant, and the reduction solves it. Its eigenvalues()
    # still sum the aliased offsets, as the dense matrix does
    H = bond_band(n, np.ones((b, n)))
    assert not H.is_circulant()
    dense = np.linalg.eigvalsh(band_toarray(H))
    assert np.max(np.abs(np.sort(H.eigenvalues()) - dense)) \
        < 1e-14 * dense[-1]
    rhs = mean_zero(rng.standard_normal(n))
    ref = mean_zero(np.linalg.lstsq(band_toarray(H), rhs, rcond=None)[0])
    assert np.max(np.abs(band_solve(H, rhs) - ref)) < 1e-12
    assert factorizations == [False]


@pytest.mark.parametrize("delta, indefinite", [(1e-2, True), (5e-4, False)])
def test_periodic_band_certificate_sees_global_mode(delta, indefinite):
    # unit nearest-neighbour bonds, weak second-neighbour bonds and one
    # softened bond of weight -delta mid-chain. Stretching that bond while the
    # other n - 1 bonds give way costs about -delta + 2e-3 + 1/n, so with
    # delta = 1e-2 the ring is indefinite while every window of 64 sites
    # around the bond is positive definite: only a late elimination level
    # sees the negative mode. With delta = 5e-4 the ring is positive definite.
    n = 1000
    weights = np.ones((2, n))
    weights[1] = 1e-3
    weights[0, n // 2] = -delta
    H = bond_band(n, weights)
    A = band_toarray(H)
    window = np.arange(n // 2 - 32, n // 2 + 32)
    np.linalg.cholesky(A[np.ix_(window, window)])
    P = np.eye(n) - 1.0 / n
    lam = np.linalg.eigvalsh(P @ A @ P)
    assert (lam[0] < -1e-5) == indefinite
    rhs = mean_zero(np.random.default_rng(5).standard_normal(n))
    if indefinite:
        with pytest.raises(np.linalg.LinAlgError):
            band_solve(H, rhs)
    else:
        ref = mean_zero(np.linalg.lstsq(A, rhs, rcond=None)[0])
        tol = 4 * np.finfo(float).eps * lam[-1] / lam[1]
        assert np.max(np.abs(band_solve(H, rhs) - ref)) \
            < tol * np.max(np.abs(ref))


@pytest.mark.parametrize("n, b", [(100, 1), (127, 2), (200, 5), (1000, 2)])
def test_periodic_band_certificate_checks_every_pivot(n, b):
    # one strongly negative bond between sites 1 and 2, which the grounded
    # ordering puts into the first pivot block; the Schur complement that
    # pivot leaves behind is positive definite, so only the pivot's own
    # Cholesky sees the negative mode
    weights = np.ones((b, n))
    weights[0, 1] = -50.0
    H = bond_band(n, weights)
    P = np.eye(n) - 1.0 / n
    assert np.linalg.eigvalsh(P @ band_toarray(H) @ P)[0] < -1.0
    with pytest.raises(np.linalg.LinAlgError):
        band_solve(H, np.zeros(n))


def random_band(b, n_step, circulant, seed, low):
    """A random symmetric band with H·1 = 0: bond weights uniform in
    [low, 1.5], constant along the ring where circulant. n runs in 20
    log-uniform steps from 2b + 1 (n_step = 0) to 2000 (n_step = 20)."""
    n = round((2 * b + 1) * (2000 / (2 * b + 1)) ** (n_step / 20))
    gen = np.random.default_rng(seed)
    weights = gen.uniform(low, 1.5, (b, 1 if circulant else n))
    H = bond_band(n, np.repeat(weights, n // weights.shape[1], axis=1))
    assert H.is_circulant() == circulant
    return H, gen


band_draws = dict(b=st.integers(1, 5), n_step=st.integers(0, 20),
                  circulant=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(**band_draws)
@example(b=5, n_step=20, circulant=False, seed=1)
def test_periodic_band_solve_matches_lstsq_on_random_bands(
        b, n_step, circulant, seed):
    # positive bonds: with weights in [0.5, 1.5], lam_max <= 4·1.5·b
    # (Gershgorin) and lam_1 >= 0.5·4 sin^2(pi / n) (the nearest-neighbour
    # ring alone), which bounds the condition number on mean-zero vectors
    H, gen = random_band(b, n_step, circulant, seed, 0.5)
    n, A = H.n, band_toarray(H)
    rhs = mean_zero(gen.standard_normal(n))
    ref = mean_zero(scipy.linalg.lstsq(A, rhs, lapack_driver="gelsy")[0])
    x = band_solve(H, rhs)
    cond = 3.0 * b / np.sin(np.pi / n) ** 2
    tol = 4 * np.finfo(float).eps * cond
    assert np.max(np.abs(x - ref)) <= tol * np.max(np.abs(ref))
    assert abs(x.mean()) <= 1e-15 * np.max(np.abs(x))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(low=st.sampled_from([-2.0, -1.0, -0.5, -0.02, 0.25]),
       scale=st.sampled_from([1e-8, 1e-3, 1.0, 1e3, 1e8]), **band_draws)
@example(low=-0.5, scale=1.0, b=2, n_step=20, circulant=False, seed=1)
@example(low=0.0, scale=1.0, b=1, n_step=20, circulant=True, seed=1)
@example(low=-2.0, scale=1e-8, b=1, n_step=5, circulant=True, seed=1)
@example(low=-1.0, scale=1e3, b=3, n_step=12, circulant=True, seed=1)
def test_periodic_band_factor_raises_exactly_when_grounded_is_indefinite(
        low, scale, b, n_step, circulant, seed):
    # negative bonds make some bands indefinite, weak ones (low = -0.02)
    # barely so, and the scale moves every eigenvalue by its factor. Dof 0
    # grounded, the margin is 0: factor raises iff the grounded matrix has
    # an eigenvalue below 0. A band with |lam_min| within 64·n·eps·|lam|max
    # of 0 is skipped, as a factorization's roundoff may decide it either
    # way
    H = random_band(b, n_step, circulant, seed, low)[0]
    H.diags *= scale
    lam = np.linalg.eigvalsh(band_toarray(H)[1:, 1:])
    assume(abs(lam[0]) > 64 * H.n * np.finfo(float).eps * np.abs(lam).max())
    if lam[0] < 0.0:
        with pytest.raises(np.linalg.LinAlgError):
            H.factor()
    else:
        H.factor()


def test_periodic_band_rejects_non_finite_entries():
    H = bond_band(16, np.ones((2, 16)))
    H.diags[1, 3] = np.nan
    with pytest.raises(ValueError):
        band_solve(H, np.zeros(16))


@pytest.mark.parametrize("circulant", [True, False])
def test_factor_yields_passes_whose_last_is_the_solve(circulant):
    # the spectral path yields its one solution, the reduction its first
    # pass and then the refined one; `solve` returns the last pass
    n = 64
    gen = np.random.default_rng(3)
    H = bond_band(n, np.ones((2, n)) if circulant
                  else gen.uniform(0.5, 1.5, (2, n)))
    assert H.is_circulant() == circulant
    rhs = mean_zero(gen.standard_normal(n))
    got = list(H.factor()(rhs))
    assert len(got) == (1 if circulant else 2)
    assert np.array_equal(band_solve(H, rhs), got[-1])


@pytest.mark.parametrize("kind", ["harmonic", "lj"])
def test_hessian_callbacks_build_a_fresh_band_per_call(kind):
    # no band is kept between calls: each call at a point builds a new one
    # with the bits of the last, and a band holds its entries alone
    N = 8
    pot = make_potential(kind)
    x = 0.01 * np.random.default_rng(5).standard_normal(2 * N)
    for prob in (Single(AtomisticSystem(N, pot).objective_problem()),
                 assemble_one(continuum_model("hoc4", pot),
                              PeriodicSplineSpace(N))):
        a, b = prob.hessian(x), prob.hessian(x)
        assert b is not a and vars(b).keys() == {"n", "b", "diags"}
        assert np.array_equal(a.diags.view(np.uint64),
                              b.diags.view(np.uint64))


def test_newton_one_step_on_quadratic():
    # SPD circulant on mean-zero vectors: constant bond weights
    n = 16
    H = bond_band(n, np.outer([2.0, 0.5, 0.25], np.ones(n)))
    b = mean_zero(rng.standard_normal(n))
    xstar = mean_zero(np.linalg.lstsq(band_toarray(H), b, rcond=None)[0])
    res = newton_one(quadratic_problem(H, b), np.zeros(n))
    assert res.converged and res.iterations <= 2
    assert np.max(np.abs(res.x - xstar)) < 1e-10


@settings(derandomize=True, max_examples=25, deadline=None)
@given(**band_draws)
@example(b=5, n_step=20, circulant=False, seed=1)
def test_newton_on_a_quadratic_problem_takes_one_step(
        b, n_step, circulant, seed):
    # a problem flagged quadratic returns x_0 + p_0 from a random start,
    # within the bound of `test_periodic_band_solve_matches_lstsq_on_random_bands`
    H, gen = random_band(b, n_step, circulant, seed, 0.5)
    n, A = H.n, band_toarray(H)
    load = mean_zero(gen.standard_normal(n))
    ref = mean_zero(scipy.linalg.lstsq(A, load, lapack_driver="gelsy")[0])
    x0 = mean_zero(gen.standard_normal(n)) * np.max(np.abs(ref))
    res = newton_one(quadratic_problem(H, load, quadratic=True), x0)
    assert res.converged and res.iterations == 1
    cond = 3.0 * b / np.sin(np.pi / n) ** 2
    tol = 4 * np.finfo(float).eps * cond
    assert np.max(np.abs(res.x - ref)) <= tol * np.max(np.abs(ref))
    assert res.fun == 0.5 * res.x @ A @ res.x - load @ res.x


def test_newton_flags_indefinite():
    n = 12
    H = indefinite_band(n, 2)
    b = mean_zero(rng.standard_normal(n))
    res = newton_one(quadratic_problem(H, b), np.zeros(n))
    assert not res.converged
    assert res.hessian_indefinite


def test_newton_certifies_a_stationary_start():
    # x0 = 0 is stationary for a zero load, so Newton stops at iteration 0;
    # the Hessian is factored before that test and flags the saddle
    n = 12
    H = indefinite_band(n, 2, np.random.default_rng(3))
    res = newton_one(quadratic_problem(H, np.zeros(n)), np.zeros(n))
    assert res.iterations == 0 and res.grad_norm == 0.0
    assert res.hessian_indefinite and not res.converged


def test_projection_keeps_iterates_mean_zero():
    n = 12
    H = bond_band(n, rng.uniform(0.5, 1.5, (3, n)))
    b = mean_zero(rng.standard_normal(n))
    prob = quadratic_problem(H, b)
    seen = []
    grad = prob.gradient
    prob.gradient = lambda x: seen.append(x.mean()) or grad(x)
    res = newton_one(prob, rng.standard_normal(n))
    assert res.converged
    assert abs(res.x.mean()) < 1e-12
    assert len(seen) >= 2 and max(abs(m) for m in seen) < 1e-12


def test_gradient_check_catches_wrong_gradient():
    n = 10
    prob = quadratic_problem(bond_band(n, rng.uniform(0.5, 1.5, (2, n))),
                             mean_zero(rng.standard_normal(n)))
    assert gradient_check(prob, rng.standard_normal(n), h=1e-5) < 1e-9
    bad = MinimizeProblem(prob.objective, lambda x: 2.0 * prob.gradient(x),
                          prob.hessian)
    err = gradient_check(bad, rng.standard_normal(n), h=1e-5)
    assert 0.2 < err < 2.0


def test_newton_evaluates_the_objective_once_per_point():
    # a strictly convex ring with exponential bonds: full Newton steps are
    # accepted, so every objective call is at a new point, the first iterate
    # or an accepted trial, and the result carries the last one's value
    n = 16
    gen = np.random.default_rng(7)
    load = mean_zero(0.3 * gen.standard_normal(n))
    calls = []

    def strains(x):
        return np.roll(x, -1) - x

    def objective(x):
        calls.append(x.copy())
        return float(np.sum(np.exp(strains(x)) - strains(x)) - load @ x)

    def gradient(x):
        fb = np.exp(strains(x)) - 1.0
        return np.roll(fb, 1) - fb - load

    res = newton_one(stack_of_one(
        objective, gradient, lambda x: bond_band(n, [np.exp(strains(x))])),
        np.zeros(n))
    assert res.converged and res.iterations >= 3
    assert len(calls) == res.iterations + 1
    assert np.array_equal(calls[-1], res.x)
    assert res.fun == objective(res.x)


def exponential_ring(n, load):
    """A strictly convex ring with exponential bonds under a mean-zero load:
    objective, gradient and Hessian."""
    def strains(x):
        return np.roll(x, -1) - x

    def objective(x):
        return float(np.sum(np.exp(strains(x)) - strains(x)) - load @ x)

    def gradient(x):
        fb = np.exp(strains(x)) - 1.0
        return np.roll(fb, 1) - fb - load

    return stack_of_one(objective, gradient,
                        lambda x: bond_band(n, [np.exp(strains(x))]))


def test_newton_returns_the_certified_point_plus_its_step():
    # the result is x_k + p_k, where x_k is the last point whose Hessian was
    # factored and p_k its Newton step, the first one below STEP_RTOL
    n = 16
    load = mean_zero(0.3 * np.random.default_rng(7).standard_normal(n))
    prob, one = exponential_ring(n, load), Single(exponential_ring(n, load))
    factored = []
    hessian = prob.hessian
    prob.hessian = lambda x: factored.append(x[0].copy()) or hessian(x)
    res = newton_one(prob, np.zeros(n))
    assert res.converged and res.iterations == len(factored) >= 3
    steps = []
    for x in factored:
        g = mean_zero(one.gradient(x))
        steps.append(band_solve(one.hessian(x), -g))
    x_k, p_k = factored[-1], steps[-1]
    assert np.array_equal(res.x, (x_k + p_k) - (x_k + p_k).mean())
    assert res.fun == one.objective(res.x)
    assert res.grad_norm == np.max(np.abs(mean_zero(one.gradient(x_k))))
    assert np.max(np.abs(p_k)) <= STEP_RTOL * np.max(np.abs(x_k + p_k))
    assert all(np.max(np.abs(p)) > STEP_RTOL * np.max(np.abs(x + p))
               for x, p in zip(factored[:-1], steps[:-1]))


def test_newton_zero_gradient_returns_the_start():
    # an exactly stationary start is certified and returned as it is, with
    # no step taken
    n = 12
    H = bond_band(n, rng.uniform(0.5, 1.5, (2, n)))
    res = newton_one(quadratic_problem(H, np.zeros(n)), np.zeros(n))
    assert res.converged and res.iterations == 0 and res.grad_norm == 0.0
    assert np.array_equal(res.x, np.zeros(n)) and res.fun == 0.0


def test_newton_flags_an_indefinite_start_before_stepping():
    # a start that is not stationary, at a saddle of an indefinite
    # quadratic: the factorization at x_0 flags it before any step
    n = 12
    H = indefinite_band(n, 2, np.random.default_rng(4))
    b = mean_zero(np.random.default_rng(5).standard_normal(n))
    res = newton_one(quadratic_problem(H, b), np.zeros(n))
    assert res.hessian_indefinite and not res.converged
    assert res.iterations == 0 and res.grad_norm > 0.0


def smooth_ring(n):
    """`exponential_ring` under a smooth load of three Fourier modes, whose
    solution stays in Newton's reach at every n."""
    gen = np.random.default_rng(0)
    m = np.arange(n)
    load = sum(gen.uniform(-0.3, 0.3)
               * np.sin(2 * np.pi * k * m / n + gen.uniform(0.0, 6.0))
               for k in (1, 2, 3)) * 6 * np.pi / n
    return exponential_ring(n, mean_zero(load))


def test_newton_refines_only_the_steps_that_continue(reduction_passes):
    # each Hessian is a new band. The first, at the homogeneous start, is
    # circulant and solved through its spectrum; the others are factored
    # by the reduction. A step that continues makes the first pass and the
    # refinement pass, and the step that stops makes the first pass alone
    n = 64
    prob = smooth_ring(n)
    hessian = prob.hessian
    prob.hessian = lambda x: reduction_passes.append("H") or hessian(x)
    res = newton_one(prob, np.zeros(n))
    assert res.converged and res.iterations >= 3
    assert reduction_passes == (["H"] + ["H", n, n] * (res.iterations - 2)
                                + ["H", n])


def test_newton_final_step_is_the_refined_one_to_an_ulp():
    # the final step skips its refinement: the point it returns is within
    # one ulp of ||x||_inf of x_k plus the refined step at the last
    # certified point x_k
    n = 2048
    prob, one = smooth_ring(n), Single(smooth_ring(n))
    factored = []
    hessian = prob.hessian
    prob.hessian = lambda x: factored.append(x[0].copy()) or hessian(x)
    res = newton_one(prob, np.zeros(n))
    assert res.converged
    x_k = factored[-1]
    p_k = band_solve(one.hessian(x_k), -mean_zero(one.gradient(x_k)))
    want = (x_k + p_k) - (x_k + p_k).mean()
    assert np.max(np.abs(res.x - want)) <= np.spacing(np.max(np.abs(want)))


def test_default_lj_sweep_skips_the_refinement_of_every_final_step(
        reduction_passes, factorizations, newton_iterations):
    # 8 cells of chain, cb and hoc4: 24 solves and 37 Newton steps, each
    # factoring its own band, 36 by the reduction and 1 through the
    # spectrum. The 24 final steps make one reduction pass each and the 12
    # others two: 48 passes
    run_sweep(StudyConfig(potential="lj"))
    assert len(newton_iterations) == 24 and sum(newton_iterations) == 37
    assert factorizations.count(False) == 36
    assert factorizations.count(True) == 1
    assert len(reduction_passes) == 48


def test_default_harmonic_sweep_takes_one_step_per_solve(
        newton_iterations):
    # every problem of the harmonic sweep is quadratic: 8 cells of chain,
    # cb, hoc4 and hoc6, each solve one certified step
    run_sweep(StudyConfig(potential="harmonic",
                          models=("cb", "hoc4", "hoc6")))
    assert newton_iterations == [1] * 32


@pytest.mark.parametrize("kind", POTENTIAL_KINDS)
def test_only_harmonic_problems_are_quadratic(kind):
    # the flag is the potential's, and it is true exactly where the chain's
    # and every model's Hessian is the same band at every point
    pot = make_potential(kind)
    assert pot.quadratic == (kind == "harmonic")
    space, gen = PeriodicSplineSpace(8), np.random.default_rng(2)
    problems = [Single(AtomisticSystem(8, pot).objective_problem())] + [
        assemble_one(continuum_model(key, pot), space) for key in MODEL_KEYS]
    for prob in problems:
        assert prob.stack.quadratic == pot.quadratic
        x = mean_zero(0.01 * gen.standard_normal(16))
        same = np.allclose(prob.hessian(x).diags,
                           prob.hessian(np.zeros(16)).diags,
                           rtol=1e-12, atol=0.0)
        assert same == pot.quadratic


def ball_problem(quadratic=False, shrink=0.5):
    """A quadratic whose minimizer x* lies outside its domain |x|_2 < R,
    R = shrink·|x*|_2: its objective raises DomainError outside the ball."""
    n = 12
    gen = np.random.default_rng(8)
    H = bond_band(n, gen.uniform(0.5, 1.5, (2, n)))
    xstar = band_solve(H, mean_zero(gen.standard_normal(n)))
    prob = quadratic_problem(H, band_toarray(H) @ xstar, quadratic)
    R = shrink * np.linalg.norm(xstar)
    objective = prob.objective

    def inside(x):
        if np.linalg.norm(x) >= R:
            raise DomainError("outside the ball")
        return x

    prob.objective = lambda x: objective(inside(x))
    return prob, inside, xstar, R


def test_newton_rejects_trials_outside_the_domain():
    # each trial past the boundary of `ball_problem` raises DomainError and
    # is halved, and the iterates close in on the boundary along the ray
    # to x* without converging. There the Armijo decrease falls below the
    # objective's rounding, so the solve ends in "backtracking failed" or
    # in rounding-level steps up to max_iter. A start outside the domain
    # ends the solve there, with the callback's message
    prob, inside, xstar, R = ball_problem()
    n, gradient = len(xstar), prob.gradient
    res = newton_one(prob, np.zeros(n))
    assert not res.converged
    assert res.message in ("backtracking failed", "max iterations")
    assert R * (1 - 1e-9) < np.linalg.norm(res.x) < R
    prob.gradient = lambda x: gradient(inside(x))
    res = newton_one(prob, xstar)
    assert res.outside_domain and not res.converged
    assert res.message == "outside the ball" and res.iterations == 0
    assert np.array_equal(res.x, xstar - xstar.mean())


def test_newton_on_a_quadratic_outside_its_domain_takes_the_damped_steps():
    # the one step of a quadratic problem ends outside the domain, so the
    # damped steps run from x_0 and end as they do unflagged
    prob, _, xstar, _ = ball_problem()
    want = newton_one(prob, np.zeros(len(xstar)))
    res = newton_one(ball_problem(quadratic=True)[0],
                          np.zeros(len(xstar)))
    assert res.message == want.message and not res.converged
    assert np.array_equal(res.x, want.x)
    assert res.iterations == want.iterations and res.fun == want.fun


@pytest.mark.parametrize("quadratic", [False, True])
def test_newton_damps_a_stopping_point_outside_the_domain(quadratic):
    # from a start within STEP_RTOL of x*, which lies just outside the
    # domain, the first step stops at x*: f raises there, and the damped
    # steps run from x_0 instead of the error escaping
    prob, _, xstar, R = ball_problem(quadratic, shrink=1 - 1e-9)
    prob.max_iter = 5
    res = newton_one(prob, (1 - 2e-9) * xstar)
    assert not res.converged
    assert res.message in ("backtracking failed", "max iterations")
    assert np.linalg.norm(res.x) < R


def _stacked(members):
    """One MinimizeProblem whose row i is the problem members[i], given by
    its callbacks on one vector; a row at which a member raises
    DomainError is named in the stacked error."""
    def callback(name):
        def stacked(x):
            values, outside = [], {}
            for i in range(len(x)):
                if np.isnan(x[i, 0]):
                    continue
                try:
                    values.append(getattr(members[i], name)(x[i]))
                except DomainError as err:
                    outside[i] = str(err)
            if outside:
                raise DomainError(next(iter(outside.values())), rows=outside)
            return values if name == "hessian" else np.array(values)
        return stacked

    return MinimizeProblem(*map(callback, ("objective", "gradient",
                                           "hessian")))


def test_newton_solves_each_member_of_a_stack_as_if_alone():
    # members that take several damped steps, that run into the domain's
    # boundary, that stop on an indefinite or a stationary start, and that
    # start outside the domain, in one lockstep solve: each ends with the
    # result it gets alone, bit for bit
    ball, inside, xstar, _ = ball_problem()
    outside = ball_problem()[0]
    gradient = outside.gradient
    outside.gradient = lambda x: gradient(inside(x))
    n = len(xstar)
    gen = np.random.default_rng(9)
    members = [
        (ball, np.zeros(n)),
        (exponential_ring(n, mean_zero(0.3 * gen.standard_normal(n))),
         np.zeros(n)),
        (quadratic_problem(indefinite_band(n, 2, gen),
                           mean_zero(gen.standard_normal(n))), np.zeros(n)),
        (quadratic_problem(bond_band(n, gen.uniform(0.5, 1.5, (2, n))),
                           np.zeros(n)), np.zeros(n)),
        (outside, xstar)]
    stack = newton_minimize(_stacked([Single(p) for p, _ in members]),
                            np.array([x0 for _, x0 in members]))
    assert stack.iterations == sum(r.iterations for r in stack)
    assert [r.message for r in stack][2:] == [
        "Hessian not positive definite", "converged", "outside the ball"]
    for got, (prob, x0) in zip(stack, members):
        want = newton_one(prob, x0)
        assert got.x.tobytes() == want.x.tobytes()
        assert repr((got.fun, got.grad_norm)) == repr((want.fun,
                                                       want.grad_norm))
        assert (got.iterations, got.converged, got.message,
                got.hessian_indefinite, got.outside_domain) == (
            want.iterations, want.converged, want.message,
            want.hessian_indefinite, want.outside_domain)


def test_lockstep_serves_copies_in_the_calls_of_one():
    # three copies of an LJ hoc4 problem, started from cb's coefficients,
    # take three steps through the line search. As one stack they make
    # each callback's calls exactly as often as one copy alone, and each
    # ends with the lone copy's bits: the lockstep batches its members'
    # requests rather than serving them one at a time
    N = 16
    pot, space = make_potential("lj"), PeriodicSplineSpace(N)
    load = space.load_vector(lambda x: np.cos(np.pi * x / N) / N)
    start = solve_one(continuum_model("cb", pot), space, load).coeffs

    def solve(k):
        prob = assemble([continuum_model("hoc4", pot)] * k, space, load)
        calls = dict.fromkeys(("objective", "gradient", "hessian"), 0)
        for name in calls:
            def counted(x, callback=getattr(prob, name), name=name):
                calls[name] += 1
                return callback(x)
            setattr(prob, name, counted)
        return newton_minimize(prob, np.tile(start, (k, 1))), calls

    (alone,), one = solve(1)
    stack, three = solve(3)
    assert alone.converged and alone.iterations == 3
    assert three == one
    for res in stack:
        assert res.x.tobytes() == alone.x.tobytes()
        assert repr((res.fun, res.grad_norm, res.iterations)) == repr(
            (alone.fun, alone.grad_norm, alone.iterations))


def _lj_problem(kind, N):
    """The LJ chain's problem, or the LJ hoc4 FEM problem, with 2N unknowns
    under the sweep's load at eps = 1/N."""
    pot, eps = make_potential("lj"), 1.0 / N
    if kind == "chain":
        force = eps * np.cos(np.pi * eps * np.arange(-N, N))
        return AtomisticSystem(N, pot, force=force).objective_problem()
    return assemble([continuum_model("hoc4", pot)], PeriodicSplineSpace(N),
                    lambda x: eps * np.cos(np.pi * eps * x))


@pytest.mark.parametrize("kind", ["chain", "hoc4"])
def test_newton_frees_each_factorization_before_it_evaluates_f(
        kind, monkeypatch):
    # at every objective call, the last one of the converged step included,
    # no solve that a factorization returned is alive: Newton drops each
    # step's passes before it evaluates f at a point. From u = 0 the first
    # Hessian is circulant and the later ones take the reduction
    made = []
    for name in ("_cyclic_reduction", "_spectral_passes"):
        def tracked(*args, make=getattr(optimize, name), name=name):
            solve = make(*args)
            made.append((name, weakref.ref(solve)))
            return solve

        monkeypatch.setattr(optimize, name, tracked)
    N = 64
    prob = _lj_problem(kind, N)
    objective, alive = prob.objective, []

    def checked(x):
        alive.append([name for name, ref in made if ref() is not None])
        return objective(x)

    prob.objective = checked
    res = newton_one(prob, np.zeros(2 * N))
    assert res.converged and res.iterations >= 2
    assert {name for name, _ in made} == {"_cyclic_reduction",
                                          "_spectral_passes"}
    assert alive == [[]] * len(alive) and len(alive) >= res.iterations


def test_default_lj_sweep_reads_one_cached_layout():
    # a cell factors all the chain's (n, r_cut) bands and then all the
    # models' (n, 5) bands, so one cached layout serves every hit
    optimize._grounded_layout.cache_clear()
    run_sweep(StudyConfig(potential="lj"))
    info = optimize._grounded_layout.cache_info()
    assert (info.misses, info.hits, info.currsize) == (16, 20, 1)


def _oracle_sizes(b):
    """n = 1..64, and for the b of the default sweeps, the chains' b = 2
    and the FEM's b = 5, their n = 2N, N = 8..1024."""
    sweep = [2 * N for N in (64, 128, 256, 512, 1024)] if b in (2, 5) else []
    return list(range(1, 65)) + sweep


def _argsort_layout(n, b):
    """`optimize._grounded_layout` as first built: the zig-zag order by an
    argsort of the positions, and each entry's block and offset by // and %
    of its positions over the (2b + 1, n) arrays."""
    w = 2 * b
    j = np.arange(n)
    pos = np.where(2 * j <= n, 2 * j - 2, 2 * (n - j) - 1)
    order = np.argsort(pos)[1:]
    nb = -(-(n - 1) // w)
    cols = (j + np.arange(-b, b + 1)[:, None]) % n
    p = np.broadcast_to(pos, (2 * b + 1, n)).ravel()
    q = pos[cols].ravel()
    src = np.flatnonzero((p >= 0) & (q >= 0) & (q // w >= p // w))
    p, q = p[src], q[src]
    dst = (p // w + np.where(q // w > p // w, nb + 1, 0)) * w * w \
        + p % w * w + q % w
    pad = np.arange(n - 1, nb * w)
    pad = pad // w * w * w + pad % w * (w + 1)
    return optimize._Layout(order, cols, src, dst, pad, nb)


@pytest.mark.parametrize("b", range(1, 8))
def test_grounded_layout_matches_the_argsort_construction(b):
    # array for array, dtype and shape included, aliased n <= 2b too
    for n in _oracle_sizes(b):
        got, want = optimize._grounded_layout(n, b), _argsort_layout(n, b)
        assert got.nb == want.nb, n
        for name in ("order", "cols", "src", "dst", "pad"):
            a, r = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.shape) == (r.dtype, r.shape), (n, name)
            assert np.array_equal(a, r), (n, name)
            assert not a.flags.writeable, (n, name)


@pytest.mark.parametrize("b", range(1, 8))
def test_band_spectrum_matches_the_sin2_formula_bit_for_bit(b):
    # lam_j = -sum_o 2 (H[0, o] + H[0, -o]) sin^2(pi j o / n), from one
    # sin^2 sweep per call, equals the cached table's product bitwise, on
    # circulant bands and on equal-column aliased ones (n <= 2b)
    gen = np.random.default_rng(b)
    o = np.arange(1, b + 1)
    for n in _oracle_sizes(b):
        H = PeriodicBand(n, b)
        H.diags[:] = gen.standard_normal(2 * b + 1)[:, None]
        half = np.arange(n // 2 + 1)
        k = np.outer(half, o) % n
        sin2 = np.sin(np.pi / n * half) ** 2
        lam = -2.0 * (sin2[np.minimum(k, n - k)]
                      @ (H.diags[b + o, 0] + H.diags[b - o, 0]))
        assert np.array_equal(H._half_spectrum(), lam), n
        assert np.array_equal(H.eigenvalues(), np.concatenate(
            [lam, lam[(n - 1) // 2:0:-1]])), n


def test_default_harmonic_sweep_builds_each_table_once_per_size():
    # per cell, the chain's band reads the (2N, 2) sin^2 table and the three
    # models' bands the (2N, 5) one, built once and read twice
    optimize._sin2_table.cache_clear()
    run_sweep(StudyConfig(potential="harmonic",
                          models=("cb", "hoc4", "hoc6")))
    tables = optimize._sin2_table.cache_info()
    assert (tables.misses, tables.hits, tables.currsize) == (16, 16, 2)


def test_warm_lj_hoc4_solve_keeps_its_traced_peak(traced_peak):
    # one LJ hoc4 solve at N = 4096 (n = 8192), warm: each reduction level
    # keeps only what its solve reads, and Newton frees a factorization
    # before it evaluates the point it returns. This peak reads 8.41 MB;
    # it read 10.47 MB while each level held its used-up temporaries and
    # the converged step's factorization outlived the step
    N = 4096
    model = continuum_model("hoc4", make_potential("lj"))
    space = PeriodicSplineSpace(N)
    load = space.load_vector(lambda x: np.cos(np.pi * x / N) / N)
    solve_one(model, space, load)
    peak = traced_peak(lambda: solve_one(model, space, load))
    assert peak <= 8.8e6
