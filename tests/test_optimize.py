import numpy as np
import pytest
import scipy.linalg

from chain_elastica.optimize import (MinimizeProblem, PeriodicBand,
                                     gradient_check, newton_minimize)

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


def quadratic_problem(H, b):
    A = H.toarray()
    return MinimizeProblem(objective=lambda x: 0.5 * x @ A @ x - b @ x,
                           gradient=lambda x: A @ x - b,
                           hessian=lambda x: H)


def mean_zero(v):
    return v - v.mean()


def indefinite_band(n, b):
    """Positive bonds at offsets 2..b and strongly negative nearest-neighbour
    bonds: the lowest mean-zero mode has negative energy."""
    weights = rng.uniform(0.5, 1.5, (b, n))
    weights[0] -= 4.0 * b ** 3
    return bond_band(n, weights)


@pytest.mark.parametrize("b", [2, 5])
@pytest.mark.parametrize("n", [8, 10, 11, 16, 64])
def test_periodic_band_solve_matches_dense(n, b):
    H = bond_band(n, rng.uniform(0.5, 1.5, (b, n)))
    A = H.toarray()
    assert np.array_equal(A, A.T)
    assert np.max(np.abs(A @ np.ones(n))) < 1e-13
    rhs = mean_zero(rng.standard_normal(n))
    ref = mean_zero(np.linalg.lstsq(A, rhs, rcond=None)[0])
    x = H.solve(rhs)
    assert np.max(np.abs(x - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))
    assert abs(x.mean()) < 1e-15


@pytest.mark.parametrize("b", [2, 5])
@pytest.mark.parametrize("n", [8, 10, 11, 16, 64])
def test_periodic_band_indefinite_raises(n, b):
    H = indefinite_band(n, b)
    A = H.toarray()
    P = np.eye(n) - 1.0 / n
    assert np.linalg.eigvalsh(P @ A @ P)[0] < -1.0
    with pytest.raises(scipy.linalg.LinAlgError):
        H.solve(mean_zero(rng.standard_normal(n)))


def test_newton_one_step_on_quadratic():
    # SPD circulant on mean-zero vectors: constant bond weights
    n = 16
    H = bond_band(n, np.outer([2.0, 0.5, 0.25], np.ones(n)))
    b = mean_zero(rng.standard_normal(n))
    xstar = mean_zero(np.linalg.lstsq(H.toarray(), b, rcond=None)[0])
    res = newton_minimize(quadratic_problem(H, b), np.zeros(n))
    assert res.converged and res.iterations <= 2
    assert np.max(np.abs(res.x - xstar)) < 1e-10


def test_newton_flags_indefinite():
    n = 12
    H = indefinite_band(n, 2)
    b = mean_zero(rng.standard_normal(n))
    res = newton_minimize(quadratic_problem(H, b), np.zeros(n))
    assert not res.converged
    assert res.hessian_indefinite


def test_projection_keeps_iterates_mean_zero():
    n = 12
    H = bond_band(n, rng.uniform(0.5, 1.5, (3, n)))
    b = mean_zero(rng.standard_normal(n))
    prob = quadratic_problem(H, b)
    seen = []
    grad = prob.gradient
    prob.gradient = lambda x: seen.append(x.mean()) or grad(x)
    res = newton_minimize(prob, rng.standard_normal(n))
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
