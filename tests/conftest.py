import tracemalloc

import pytest

from chain_elastica import atomistic, fem, optimize
from chain_elastica.optimize import PeriodicBand


@pytest.fixture
def factorizations(monkeypatch):
    """Every PeriodicBand factorization made during the test, in order:
    True where the band is circulant and takes the spectral path, False
    where it takes the cyclic reduction."""
    calls = []
    factor = PeriodicBand.factor
    monkeypatch.setattr(
        PeriodicBand, "factor",
        lambda self: calls.append(self.is_circulant()) or factor(self))
    return calls


@pytest.fixture
def reduction_passes(monkeypatch):
    """Every pass through a cyclic reduction's solve made during the test,
    in order, as the size n of the band solved."""
    calls = []
    reduction = optimize._cyclic_reduction

    def counted(diags, layout):
        solve = reduction(diags, layout)
        return lambda rhs: calls.append(len(rhs) + 1) or solve(rhs)

    monkeypatch.setattr(optimize, "_cyclic_reduction", counted)
    return calls


@pytest.fixture
def newton_iterations(monkeypatch):
    """The `iterations` of every Newton solve that the chain's and the
    FEM's solvers make during the test, in order."""
    calls = []
    newton = optimize.newton_minimize

    def counted(problem, x0):
        res = newton(problem, x0)
        calls.append(res.iterations)
        return res

    for module in (atomistic, fem):
        monkeypatch.setattr(module, "newton_minimize", counted)
    return calls


@pytest.fixture
def traced_peak():
    """A function that calls fn() and returns the peak, in bytes, of the
    memory that tracemalloc traces while fn runs, above what it traced when
    fn started."""
    def peak(fn):
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fn()
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            if not tracing:
                tracemalloc.stop()

    return peak
