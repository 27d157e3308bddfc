import pytest

from chain_elastica.optimize import PeriodicBand


@pytest.fixture
def factorizations(monkeypatch):
    """Every PeriodicBand factorization made during the test, in order:
    True where the band is circulant and takes the spectral path, False
    where it takes the cyclic reduction."""
    calls = []
    factor = PeriodicBand._factor
    monkeypatch.setattr(
        PeriodicBand, "_factor",
        lambda self: calls.append(self.is_circulant()) or factor(self))
    return calls
