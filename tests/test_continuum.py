import numpy as np
import pytest

from chain_elastica.atomistic import AtomisticSystem
from chain_elastica.continuum import (SineField, MODEL_KEYS,
                                      consistency_residual, continuum_model,
                                      gradients)
from chain_elastica.lattice import PeriodicLatticeField
from chain_elastica.oracles import (SumField, continuum_energy,
                                    external_work_gap,
                                    first_variation_pairing, stress_pairing)
from chain_elastica.potentials import make_potential
from chain_elastica.splines import reproducing_kernel

rng = np.random.default_rng(31)
N = 16


def el_residual(m, u, x):
    """W(u) = d/dx of the hoc4 stress along u; W(u) + f = 0 is the strong
    form of the forced minimization. Needs derivatives up to order 6."""
    g = np.stack([u.eval(x, j) for j in range(1, 7)])
    out = np.zeros_like(g[0])
    for rho in m.bonds:
        a = rho * g[0] + rho ** 3 / 24.0 * g[2]
        ap = rho * g[1] + rho ** 3 / 24.0 * g[3]
        app = rho * g[2] + rho ** 3 / 24.0 * g[4]
        p2 = m.phi[rho].derivative(2, a)
        p3 = m.phi[rho].derivative(3, a)
        p4 = m.phi[rho].derivative(4, a)
        out += (rho * p2 * ap
                + rho ** 3 / 24.0 * p4 * ap ** 3
                + rho ** 3 / 12.0 * p3 * ap * app
                + rho ** 4 / 24.0 * p3 * ap * g[2]
                + rho ** 4 / 24.0 * p2 * g[3]
                + rho ** 6 / 576.0 * p3 * ap * g[4]
                + rho ** 6 / 576.0 * p2 * g[5])
    return out


def variational_stress(m, u, x):
    """Exact stress of the `first` model's density (integration by parts on
    g2 and g3)."""
    g = gradients(u, x)
    out = np.zeros_like(g[0])
    for rho in m.bonds:
        a = rho * g[0] + rho ** 2 / 2.0 * g[1] + rho ** 3 / 6.0 * g[2]
        ap = rho * g[1] + rho ** 2 / 2.0 * g[2] + rho ** 3 / 6.0 * g[3]
        app = rho * g[2] + rho ** 2 / 2.0 * g[3] + rho ** 3 / 6.0 * g[4]
        p1 = m.phi[rho].derivative(1, a)
        p2 = m.phi[rho].derivative(2, a)
        p3 = m.phi[rho].derivative(3, a)
        out += (rho * p1 - rho ** 2 / 2.0 * p2 * ap
                + rho ** 3 / 6.0 * (p3 * ap ** 2 + p2 * app))
    return out


def small_field(seed=0):
    r = np.random.default_rng(seed)
    return SumField(SineField(0.02 * r.uniform(0.5, 1), np.pi / N, r.uniform(0, 2)),
                    SineField(0.01 * r.uniform(0.5, 1), 3 * np.pi / N, r.uniform(0, 2)))


def test_density_at_zero_gradients():
    g = np.zeros((5, 4))
    for key in MODEL_KEYS:
        m = continuum_model(key, make_potential("lj"), bonds=(1, 2))
        expect = sum(float(m.phi[rho].derivative(0, np.zeros(1))[0])
                     for rho in (1, 2))
        assert np.allclose(m.density(g), expect)
        assert m.density0() == pytest.approx(expect, rel=1e-14)


def test_hoc4_density_harmonic_nn():
    m = continuum_model("hoc4", make_potential("harmonic"), bonds=(1,))
    g = np.zeros((5, 3))
    g[0] = [0.1, -0.2, 0.05]
    g[2] = [0.3, 0.0, -0.4]
    expect = 0.5 * (g[0] + g[2] / 24.0) ** 2
    assert np.allclose(m.density(g), expect, atol=1e-15)


def test_ill2_density_harmonic_nn():
    m = continuum_model("ill2", make_potential("harmonic"), bonds=(1,))
    g = np.zeros((5, 3))
    g[0] = [0.1, -0.2, 0.05]
    g[1] = [0.3, 0.1, -0.4]
    expect = 0.5 * g[0] ** 2 - g[1] ** 2 / 24.0
    assert np.allclose(m.density(g), expect, atol=1e-15)


def test_first_density_uses_printed_argument():
    m = continuum_model("first", make_potential("harmonic"), bonds=(1,))
    g = np.zeros((5, 2))
    g[0] = [0.1, -0.1]
    g[1] = [0.2, 0.3]
    g[2] = [-0.3, 0.2]
    expect = 0.5 * (g[0] + g[1] / 2.0 + g[2] / 6.0) ** 2
    assert np.allclose(m.density(g), expect, atol=1e-15)


def test_domain_violation_names_bond():
    m = continuum_model("cb", make_potential("lj"), bonds=(1, 2))
    g = np.zeros((5, 1))
    g[0] = -1.2        # rho=1 argument 1 + g1 < 0
    with pytest.raises(ValueError):
        m.density(g)


@pytest.mark.parametrize("key", ["cb", "hoc4", "ill2"])
def test_stress_is_gateaux_derivative(key):
    # int S grad v == <dE(u), v> exactly (both by high-order quadrature)
    m = continuum_model(key, make_potential("lj"), bonds=(1, 2))
    u, v = small_field(1), small_field(2)
    lhs = stress_pairing(m, u, v, N, npoints=10)
    rhs = first_variation_pairing(m, u, v, N, npoints=10)
    assert abs(lhs - rhs) <= 1e-9 * (abs(rhs) + 1e-12)


def test_hoc6_truncated_stress_gateaux_within_tolerance():
    # the eight-term stress is the model-order truncation of the variational
    # stress; on small smooth fields the defect is far below 1e-6 relative
    m = continuum_model("hoc6", make_potential("lj"), bonds=(1, 2))
    u, v = small_field(3), small_field(4)
    lhs = stress_pairing(m, u, v, N, npoints=10)
    rhs = first_variation_pairing(m, u, v, N, npoints=10)
    assert abs(lhs - rhs) <= 1e-6 * abs(rhs)


def test_first_naive_stress_has_gateaux_defect_but_variational_does_not():
    # negative control: the lattice-point model's as-derived stress is NOT the
    # Gateaux derivative of its density; the variational stress of the same
    # density is (that defect is exactly why the model is low-order).
    from chain_elastica.quadrature import composite_integral
    m = continuum_model("first", make_potential("lj"), bonds=(1, 2))
    u, v = small_field(5), small_field(6)
    naive = stress_pairing(m, u, v, N, npoints=10)
    vari = composite_integral(lambda x: variational_stress(m, u, x) * v.eval(x, 1),
                              N, 10)
    rhs = first_variation_pairing(m, u, v, N, npoints=10)
    assert abs(vari - rhs) <= 1e-9 * abs(rhs)
    assert abs(naive - rhs) > 1e-5 * abs(rhs)


def test_energy_fd_matches_first_variation():
    for key in MODEL_KEYS:
        m = continuum_model(key, make_potential("lj"), bonds=(1, 2))
        u = small_field(7)
        v = SineField(0.7, 2 * np.pi / N, 0.9)
        t = 1e-6
        Ep = continuum_energy(m, SumField(u, SineField(t * 0.7, 2 * np.pi / N, 0.9)),
                              N, npoints=10)
        Em = continuum_energy(m, SumField(u, SineField(-t * 0.7, 2 * np.pi / N, 0.9)),
                              N, npoints=10)
        fd = (Ep - Em) / (2 * t)
        fv = first_variation_pairing(m, u, v, N, npoints=10)
        assert abs(fd - fv) <= 1e-6 * (abs(fv) + 1.0), key


def test_stress_at_zero_field():
    z = SineField(0.0, np.pi / N)
    x = rng.uniform(-N, N, 5)
    for key in MODEL_KEYS:
        m = continuum_model(key, make_potential("lj"), bonds=(1, 2))
        expect = sum(rho * float(m.phi[rho].derivative(1, np.zeros(1))[0])
                     for rho in (1, 2))
        assert np.allclose(m.stress(gradients(z, x)), expect, atol=1e-13)


def test_hoc4_stress_linear_harmonic_symbol():
    # harmonic NN on a single mode: S = A cos(kx) [(k - k^3/24)(1) + ...]
    # = A cos(kx) (k - k^3/24)(1 + 0) with the extra terms k^3/24 and k^5/576
    m = continuum_model("hoc4", make_potential("harmonic"), bonds=(1,))
    k = np.pi / N
    u = SineField(0.1, k)
    x = rng.uniform(-N, N, 7)
    got = m.stress(gradients(u, x))
    # hand expansion: g1 + g3/24 + (1/24) g3 + (1/576) g5
    expect = (u.eval(x, 1) + u.eval(x, 3) / 12.0 + u.eval(x, 5) / 576.0)
    assert np.allclose(got, expect, atol=1e-14)


def test_el_residual_is_x_derivative_of_stress():
    m = continuum_model("hoc4", make_potential("lj"), bonds=(1, 2))
    u = small_field(8)
    x = rng.uniform(-N, N, 7)
    h = 1e-5
    W = el_residual(m, u, x)
    fd = (m.stress(gradients(u, x + h))
          - m.stress(gradients(u, x - h))) / (2 * h)
    assert np.max(np.abs(W - fd)) < 1e-8


def test_el_residual_harmonic_nn_closed_form():
    m = continuum_model("hoc4", make_potential("harmonic"), bonds=(1,))
    u = SineField(0.1, np.pi / N)
    x = rng.uniform(-N, N, 9)
    got = el_residual(m, u, x)
    expect = u.eval(x, 2) + u.eval(x, 4) / 12.0 + u.eval(x, 6) / 576.0
    assert np.max(np.abs(got - expect)) < 1e-15
    zero = SineField(0.0, np.pi / N)
    assert np.max(np.abs(el_residual(m, zero, x))) == 0.0


def test_consistency_residual_zero_on_homogeneous():
    sys_ = AtomisticSystem(N, make_potential("lj"), bonds=(1, 2))
    z = reproducing_kernel(3)
    x = np.linspace(-N, N, 101)
    zero = SineField(0.0, np.pi / N)
    for key in MODEL_KEYS:
        m = continuum_model(key, make_potential("lj"), bonds=(1, 2))
        r = consistency_residual(sys_, m, zero, z, x)
        assert np.max(np.abs(r)) < 1e-12, key


def consistency_order(key, kernel_degree, Ns, potential="harmonic", bonds=(1,)):
    pot = make_potential(potential)
    model = continuum_model(key, pot, bonds=bonds)
    kern = reproducing_kernel(kernel_degree)
    errs = []
    for NN in Ns:
        sys_ = AtomisticSystem(NN, pot, bonds=bonds)
        u = SineField(0.1, np.pi / NN)
        x = np.linspace(-NN, NN, 16 * 2 * NN, endpoint=False)
        r = consistency_residual(sys_, model, u, kern, x)
        errs.append(np.max(np.abs(r)))
    return float(np.polyfit(np.log([1 / n for n in Ns]), np.log(errs), 1)[0])


def test_consistency_orders_hoc4_and_hoc6():
    assert consistency_order("hoc4", 3, (8, 16, 32, 64)) >= 4.8
    assert consistency_order("hoc6", 5, (8, 16, 32)) >= 6.8


def test_consistency_order_controls():
    # the second-gradient model shares the fourth-order stress consistency;
    # the lattice-point expansion is the low-order negative control
    assert consistency_order("ill2", 3, (8, 16, 32, 64)) >= 3.8
    first = consistency_order("first", 3, (8, 16, 32, 64))
    assert first < 3.0          # far below every midpoint-expansion variant
    cb = consistency_order("cb", 3, (8, 16, 32, 64))
    assert 2.7 <= cb <= 3.3


def test_external_work_gap_trivial_cases():
    z = reproducing_kernel(3)
    v = PeriodicLatticeField(rng.standard_normal(2 * N), N)
    assert external_work_gap(lambda x: np.zeros_like(np.asarray(x, float)),
                             v, z) < 1e-15
    const = PeriodicLatticeField(np.full(2 * N, 1.7), N)
    eps = 1.0 / N
    f = lambda x: eps * np.cos(np.pi * eps * np.asarray(x, dtype=float))
    assert external_work_gap(f, const, z) < 1e-12


def test_external_work_gap_order():
    z = reproducing_kernel(3)
    errs, Ns = [], (8, 16, 32, 64)
    for NN in Ns:
        eps = 1.0 / NN
        f = lambda x: eps * np.cos(np.pi * eps * np.asarray(x, dtype=float))
        xi = np.arange(-NN, NN)
        v = PeriodicLatticeField(np.sin(np.pi * eps * xi + 1.0), NN)
        errs.append(external_work_gap(f, v, z))
    slope = np.polyfit(np.log([1 / n for n in Ns]), np.log(errs), 1)[0]
    assert slope >= 3.8
