"""The stacked solver APIs as a stack of one, for tests that exercise one
model or one problem: `assemble`'s callbacks on one coefficient vector, a
`solve_continuum` that returns the field or raises its error, and a Newton
solve from one start."""

import numpy as np

from chain_elastica.fem import assemble, solve_continuum
from chain_elastica.optimize import newton_minimize


class Single:
    """The callbacks of a stack of one on its one vector: objective, energy
    and gradient of the row, and its one Hessian band."""

    def __init__(self, stack):
        self.stack = stack

    def objective(self, c):
        return self.stack.objective(np.asarray(c, float)[None])[0]

    def energy(self, c):
        return self.stack.energy(np.asarray(c, float)[None])[0]

    def gradient(self, c):
        return self.stack.gradient(np.asarray(c, float)[None])[0]

    def hessian(self, c):
        return self.stack.hessian(np.asarray(c, float)[None])[0]


def assemble_one(model, space, f=None):
    return Single(assemble([model], space, f))


def solve_one(model, space, f=None, max_iter=500, x0=None):
    """The field of `solve_continuum` for one model; its error is raised."""
    u, = solve_continuum([model], space, f, max_iter,
                         None if x0 is None else np.asarray(x0, float)[None])
    if isinstance(u, Exception):
        raise u
    return u


def newton_one(problem, x0):
    """The MinimizeResult of a stack of one from the start x0."""
    res, = newton_minimize(problem, np.asarray(x0, float)[None])
    return res
