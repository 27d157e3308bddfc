import numpy as np
import pytest

from chain_elastica.atomistic import AtomisticSystem, atomistic_stress
from chain_elastica.oracles import (band_toarray, convolution_interpolant,
                                    dft_solve, gradient_check,
                                    hessian_dft_eigenvalues,
                                    nodal_interpolant)
from chain_elastica.potentials import make_potential
from chain_elastica.quadrature import composite_integral
from chain_elastica.splines import (SplineKernel, bspline_kernel,
                                    localization_weight, reproducing_kernel)
from single import Single

rng = np.random.default_rng(101)


def lattice_force(N):
    eps = 1.0 / N
    return eps * np.cos(np.pi * eps * np.arange(-N, N))


def chain_energy(sys_, u):
    """E_a(u) = sum_xi sum_rho phi_rho(D_rho u(xi)): the energy above the
    homogeneous state plus its offset 2N sum_rho phi_rho(0)."""
    return (sys_.energy_above_homogeneous(u)
            + 2 * sys_.N * sum(sys_._phi0.values()))


def test_energy_values_homogeneous():
    N = 8
    har = AtomisticSystem(N, make_potential("harmonic"), bonds=(1, 2))
    assert har.energy_above_homogeneous(np.zeros(2 * N)) == 0.0
    assert chain_energy(har, np.zeros(2 * N)) == pytest.approx(N, abs=1e-12)
    lj = AtomisticSystem(N, make_potential("lj"), bonds=(1,))
    assert lj.energy_above_homogeneous(np.zeros(2 * N)) == 0.0
    assert chain_energy(lj, np.zeros(2 * N)) == pytest.approx(-2 * N,
                                                              abs=1e-12)


def test_energy_translation_invariance():
    N = 8
    sys_ = AtomisticSystem(N, make_potential("lj"), bonds=(1, 2))
    u = 0.02 * rng.standard_normal(2 * N)
    assert chain_energy(sys_, u + 3.3) == pytest.approx(chain_energy(sys_, u),
                                                        rel=1e-13)
    assert sys_.energy_above_homogeneous(u + 3.3) == pytest.approx(
        sys_.energy_above_homogeneous(u), rel=1e-12)


def test_bond_collapse_names_the_bond():
    N = 8
    sys_ = AtomisticSystem(N, make_potential("lj"), bonds=(1,))
    u = np.zeros(2 * N)
    u[3] = -1.5          # bond (xi=2, rho=1) has length 1 + u[3]-u[2] < 0
    with pytest.raises(ValueError, match="rho=1"):
        sys_.energy_above_homogeneous(u)


def test_stress_raises_on_a_collapsed_bond():
    # the potential no longer checks its domain per call; the stress path
    # checks the strains it builds
    N = 8
    sys_ = AtomisticSystem(N, make_potential("lj"), bonds=(1, 2))
    u = np.zeros(2 * N)
    u[3] = -1.5
    with pytest.raises(ValueError, match="rho=1"):
        atomistic_stress(sys_, u, reproducing_kernel(3), np.linspace(-N, N, 9))


def test_gradient_matches_finite_differences():
    N = 8
    sys_ = AtomisticSystem(N, make_potential("lj"), bonds=(1, 2))
    u = 0.03 * rng.standard_normal(2 * N)
    prob = sys_.objective_problem()
    assert gradient_check(prob, u, h=1e-6) < 1e-6


def test_objective_problem_shares_one_evaluation_per_point():
    # the callbacks cache one set of strains, keyed by the displacement's
    # value: after a call at another point, and after the caller overwrote
    # its array in place, each returns the bits of a fresh problem
    N = 8
    sys_ = AtomisticSystem(N, make_potential("lj"), bonds=(1, 2),
                           force=lattice_force(N))
    gen = np.random.default_rng(8)
    a, b = 0.03 * gen.standard_normal((2, 2 * N))

    def callbacks(prob, u):
        return prob.objective(u), prob.gradient(u), prob.hessian(u).diags

    def assert_same_bits(got, want):
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])
        assert np.array_equal(got[2], want[2])

    want = callbacks(Single(sys_.objective_problem()), b)
    prob = Single(sys_.objective_problem())
    callbacks(prob, a)
    assert_same_bits(callbacks(prob, b), want)
    u = a.copy()
    prob.objective(u)
    u[:] = b
    assert_same_bits(callbacks(prob, u), want)


def test_solution_carries_its_energy_above_homogeneous():
    # the energy without the load term, which energy_gap reads
    N = 8
    sys_ = AtomisticSystem(N, make_potential("lj"), bonds=(1, 2),
                           force=lattice_force(N))
    sol = sys_.solve()
    assert sol.energy_above_homogeneous == sys_.energy_above_homogeneous(
        sol.displacement)


def test_gradient_zero_at_homogeneous():
    N = 8
    sys_ = AtomisticSystem(N, make_potential("lj"), bonds=(1, 2))
    assert np.max(np.abs(sys_.gradient(np.zeros(2 * N)))) < 1e-14


def test_hessian_is_circulant_and_symmetric():
    N = 8
    sys_ = AtomisticSystem(N, make_potential("harmonic"), bonds=(1, 2))
    H = band_toarray(sys_.hessian(np.zeros(2 * N)))
    assert np.array_equal(H, H.T)
    for shift in (1, 3):
        assert np.allclose(np.roll(np.roll(H, shift, 0), shift, 1), H)


def test_hessian_dft_matches_dense_and_formula():
    N = 8
    sys_ = AtomisticSystem(N, make_potential("harmonic"), bonds=(1,))
    lam = np.sort(hessian_dft_eigenvalues(sys_))
    dense = np.sort(np.linalg.eigvalsh(
        band_toarray(sys_.hessian(np.zeros(2 * N)))))
    assert np.max(np.abs(lam - dense)) < 1e-10
    formula = np.sort(4 * np.sin(np.pi * np.arange(2 * N) / (2 * N)) ** 2)
    assert np.max(np.abs(lam - formula)) < 1e-12


@pytest.mark.parametrize("N", [8, 16, 64, 256, 1024, 4096])
def test_band_spectrum_matches_dft_oracle_on_every_mode(N):
    # the harmonic chain's band is circulant and its eigenvalues() match the
    # closed form to a few ulps relative on every mode j = 1..2N-1, the
    # smallest ones j = 1 and 2N - 1 included: both reduce their sines'
    # arguments to [0, pi/2]
    sys_ = AtomisticSystem(N, make_potential("harmonic"), bonds=(1, 2))
    H = sys_.hessian(np.zeros(2 * N))
    assert H.is_circulant()
    lam, ref = H.eigenvalues(), hessian_dft_eigenvalues(sys_)
    assert lam[0] == 0.0 and ref[0] == 0.0
    j = np.arange(1, 2 * N)
    assert np.max(np.abs(lam[j] - ref[j]) / ref[j]) < 4 * np.finfo(float).eps


def test_zero_force_gives_zero_displacement():
    N = 8
    sys_ = AtomisticSystem(N, make_potential("lj"), bonds=(1, 2))
    sol = sys_.solve()
    assert sol.converged
    assert np.max(np.abs(sol.displacement)) < 1e-12


def test_harmonic_solve_matches_circulant_dft_solve():
    N = 64
    sys_ = AtomisticSystem(N, make_potential("harmonic"), bonds=(1, 2),
                           force=lattice_force(N))
    sol = sys_.solve()
    assert sol.converged
    ref = dft_solve(sys_)
    assert np.max(np.abs(sol.displacement - ref)) < 1e-10


def test_lj_solve_converges_and_is_admissible():
    N = 64
    sys_ = AtomisticSystem(N, make_potential("lj"), bonds=(1, 2),
                           force=lattice_force(N))
    sol = sys_.solve()
    assert sol.converged and sol.grad_norm <= 1e-10
    assert sol.admissible


def test_force_must_be_mean_zero():
    with pytest.raises(ValueError):
        AtomisticSystem(8, make_potential("harmonic"), force=np.ones(16))


def test_force_must_have_one_entry_per_site():
    # a force of the wrong length is named with both lengths, not left to
    # a broadcast error in the solve
    with pytest.raises(ValueError, match="force has length 10, not the "
                                         "2N = 16"):
        AtomisticSystem(8, make_potential("harmonic"), force=np.zeros(10))


def test_homogeneous_stress_is_constant():
    N = 8
    sys_ = AtomisticSystem(N, make_potential("harmonic"), bonds=(1, 2))
    z = reproducing_kernel(3)
    x = rng.uniform(-N, N, 9)
    S = atomistic_stress(sys_, np.zeros(2 * N), z, x)
    expect = sum(rho * float(sys_.phi[rho].derivative(1, np.zeros(1))[0])
                 for rho in (1, 2))
    assert np.max(np.abs(S - expect)) < 1e-12
    sys1 = AtomisticSystem(N, make_potential("harmonic"), bonds=(1,))
    S1 = atomistic_stress(sys1, np.zeros(2 * N), z, x)
    assert np.max(np.abs(S1)) < 1e-14


def _per_bond_stress(system, u, kernel, x):
    """S_a summed bond by bond: rho phi_rho'(D_rho u(xi)) chi_{xi,rho}(x) over
    every xi whose weight can be nonzero at x, chi from the kernel's
    antiderivative (`localization_weight`)."""
    N = len(u) // 2
    xw = (x + N) % (2 * N) - N
    base = np.floor(xw).astype(int)
    rad = int(np.ceil(kernel.support_radius)) + 1
    out = np.zeros_like(xw)
    for rho in system.bonds:
        force = rho * system.phi[rho].derivative(1, np.roll(u, -rho) - u)
        for off in range(-rad - rho, rad + 1):
            xi = base + off
            out += (force[(xi + N) % (2 * N)]
                    * localization_weight(kernel, xi, rho, xw))
    return out


@pytest.mark.parametrize("kernel", [
    bspline_kernel(3), reproducing_kernel(3), reproducing_kernel(5),
    SplineKernel(2, {0: 0.7, 1: 0.5, 3: -0.2}, name="asymmetric")],
    ids=lambda k: k.name)
@pytest.mark.parametrize("potential", ["harmonic", "lj", "morse"])
def test_stress_matches_per_bond_sum(potential, kernel):
    # N = 2, 3 have periods shorter than the kernels' supports; the points
    # include integers, half-integers and points outside [-N, N)
    gen = np.random.default_rng([len(potential), kernel.degree])
    for bonds in [(1,), (1, 2), (1, 2, 3)]:
        for N in [2, 3, 8, 16]:
            sys_ = AtomisticSystem(N, make_potential(potential), bonds=bonds)
            u = 0.05 * gen.standard_normal(2 * N)
            x = np.concatenate([np.arange(-3 * N, 3 * N, 0.5),
                                gen.uniform(-3 * N, 3 * N, 50)])
            want = _per_bond_stress(sys_, u, kernel, x)
            got = atomistic_stress(sys_, u, kernel, x)
            assert np.max(np.abs(got - want)) \
                <= 1e-14 * max(1.0, np.max(np.abs(want))), (bonds, N)


@pytest.mark.parametrize("degree", [3, 5])
def test_stress_weak_form_identity(degree):
    # int S_a grad(vhat) dx == <dE_a(u), vtilde at the sites>
    N = 16
    sys_ = AtomisticSystem(N, make_potential("lj"), bonds=(1, 2))
    z = reproducing_kernel(degree)
    sites = np.arange(-N, N).astype(float)
    for _ in range(3):
        u = 0.03 * rng.standard_normal(2 * N)
        u -= u.mean()
        v = rng.standard_normal(2 * N)
        v -= v.mean()
        vhat = nodal_interpolant(v, z)
        vtil = convolution_interpolant(v, z)
        lhs = composite_integral(
            lambda x: atomistic_stress(sys_, u, z, x) * vhat.eval(x, 1),
            N, npoints=degree + 3)
        rhs = float(np.dot(sys_.gradient(u), vtil.eval(sites)))
        assert abs(lhs - rhs) < 1e-9
