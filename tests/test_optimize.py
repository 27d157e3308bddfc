import numpy as np
import pytest

from chain_elastica.optimize import (MinimizeProblem, gradient_check,
                                     newton_minimize)

rng = np.random.default_rng(11)


def quadratic_problem(n=10, seed=0):
    r = np.random.default_rng(seed)
    A = r.standard_normal((n, n))
    A = A @ A.T + n * np.eye(n)
    b = r.standard_normal(n)
    return MinimizeProblem(
        objective=lambda x: 0.5 * x @ A @ x - b @ x,
        gradient=lambda x: A @ x - b,
        hessian=lambda x: A,
    ), np.linalg.solve(A, b)


def test_newton_one_step_on_quadratic():
    prob, xstar = quadratic_problem()
    res = newton_minimize(prob, np.zeros(10))
    assert res.converged and res.iterations <= 2
    assert np.max(np.abs(res.x - xstar)) < 1e-10


def test_newton_flags_indefinite():
    A = np.diag([1.0, -1.0])
    prob = MinimizeProblem(lambda x: 0.5 * x @ A @ x - np.array([1.0, 1.0]) @ x,
                           lambda x: A @ x - np.array([1.0, 1.0]),
                           hessian=lambda x: A)
    res = newton_minimize(prob, np.zeros(2))
    assert not res.converged
    assert res.hessian_indefinite


def test_projection_keeps_iterates_mean_zero():
    n = 12
    A = np.diag(np.arange(1.0, n + 1))
    b = rng.standard_normal(n)
    b -= b.mean()
    proj = lambda x: x - x.mean()
    prob = MinimizeProblem(lambda x: 0.5 * x @ A @ x - b @ x,
                           lambda x: A @ x - b, hessian=lambda x: A,
                           projection=proj)
    res = newton_minimize(prob, rng.standard_normal(n))
    assert res.converged
    assert abs(res.x.mean()) < 1e-12


def test_gradient_check_catches_wrong_gradient():
    prob, _ = quadratic_problem()
    assert gradient_check(prob, rng.standard_normal(10), h=1e-5) < 1e-9
    bad = MinimizeProblem(prob.objective, lambda x: 2.0 * prob.gradient(x))
    err = gradient_check(bad, rng.standard_normal(10), h=1e-5)
    assert 0.2 < err < 2.0
