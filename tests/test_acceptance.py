"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
Shared sweeps are computed once per session.
"""

import numpy as np
import pytest

from chain_elastica.analysis import (atomistic_symbol, cb_symbol,
                                     direct_symbol, find_negative_mode,
                                     hoc_taylor_symbol)
from chain_elastica.atomistic import AtomisticSystem, atomistic_stress
from chain_elastica.continuum import (SineField, consistency_residual,
                                      continuum_model)
from chain_elastica.fem import PeriodicSplineSpace, assemble, solve_continuum
from chain_elastica.harness import (StudyConfig, fit_models, fit_slope,
                                    run_sweep, write_records_csv)
from chain_elastica.oracles import (SumField, band_toarray,
                                    convolution_interpolant, dft_solve,
                                    external_work_gap,
                                    first_variation_pairing,
                                    fourier_cos_amplitude, gradient_check,
                                    hessian_dft_eigenvalues, moment_sum,
                                    nodal_interpolant, stress_pairing)
from chain_elastica.potentials import make_potential
from chain_elastica.quadrature import composite_integral
from chain_elastica.splines import reproducing_kernel

EPS_SWEEP = tuple(2.0 ** -k for k in range(3, 9))


def report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


@pytest.fixture(scope="module")
def harmonic_sweep():
    cfg = StudyConfig(potential="harmonic", models=("cb", "hoc4"),
                      eps_list=EPS_SWEEP, interp="quartic")
    records, fits = run_sweep(cfg)
    return cfg, records, {f.model: f for f in fits}


@pytest.fixture(scope="module")
def harmonic_cubic_sweep():
    cfg = StudyConfig(potential="harmonic", models=("hoc4",),
                      eps_list=EPS_SWEEP, interp="cubic")
    records, fits = run_sweep(cfg)
    return {f.model: f for f in fits}


@pytest.fixture(scope="module")
def lj_sweep():
    cfg = StudyConfig(potential="lj", models=("cb", "hoc4"),
                      eps_list=EPS_SWEEP, interp="quartic")
    records, fits = run_sweep(cfg)
    return cfg, records, {f.model: f for f in fits}


def test_criterion_1_harmonic_rates(harmonic_sweep, harmonic_cubic_sweep):
    _, _, fits = harmonic_sweep
    cub = harmonic_cubic_sweep
    ok = (3.7 <= fits["hoc4"].slope <= 4.3 and fits["hoc4"].r2 >= 0.99
          and 1.8 <= fits["cb"].slope <= 2.2 and fits["cb"].r2 >= 0.99
          and 2.7 <= cub["hoc4"].slope <= 3.3 and cub["hoc4"].r2 >= 0.99)
    assert report(1, ok,
                  f"harmonic grad-error slopes: hoc4 {fits['hoc4'].slope:.3f} "
                  f"(r2 {fits['hoc4'].r2:.5f}), cb {fits['cb'].slope:.3f} "
                  f"(r2 {fits['cb'].r2:.5f}), hoc4/cubic-I "
                  f"{cub['hoc4'].slope:.3f} (r2 {cub['hoc4'].r2:.5f})")


def test_criterion_2_lennard_jones_rate(lj_sweep):
    _, _, fits = lj_sweep
    ok = 3.7 <= fits["hoc4"].slope <= 4.3 and fits["hoc4"].r2 >= 0.99
    assert report(2, ok, f"lj grad-error slope: hoc4 {fits['hoc4'].slope:.3f} "
                         f"(r2 {fits['hoc4'].r2:.5f})")


def test_criterion_3_energy_gap_rates(harmonic_sweep, lj_sweep):
    cfg_h, rec_h, _ = harmonic_sweep
    cfg_l, rec_l, _ = lj_sweep
    eh = {f.model: f for f in fit_models(cfg_h, rec_h, "energy_gap")}
    el = {f.model: f for f in fit_models(cfg_l, rec_l, "energy_gap")}
    ok = all((3.6 <= d["hoc4"].slope <= 4.4 and d["hoc4"].r2 >= 0.99
              and 1.8 <= d["cb"].slope <= 2.2 and d["cb"].r2 >= 0.99)
             for d in (eh, el))
    assert report(3, ok,
                  f"energy-gap slopes: harmonic hoc4 {eh['hoc4'].slope:.3f} / "
                  f"cb {eh['cb'].slope:.3f}; lj hoc4 {el['hoc4'].slope:.3f} / "
                  f"cb {el['cb'].slope:.3f}")


def test_criterion_4_moment_identities():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for degree, kmax in ((3, 3), (5, 5)):
        z = reproducing_kernel(degree)
        for rho in (1, 2, 3):
            for k in range(kmax + 1):
                for x0 in rng.uniform(-4, 4, 50):
                    val, guaranteed = moment_sum(z, rho, float(x0), k)
                    assert guaranteed
                    worst = max(worst, abs(val - (-rho) ** k / (k + 1)))
    assert report(4, worst <= 1e-12,
                  f"bond-weight moments, max |error| = {worst:.2e}")


def test_criterion_5_stress_weak_forms():
    rng = np.random.default_rng(55)
    N = 32
    pot = make_potential("lj")
    system = AtomisticSystem(N, pot, bonds=(1, 2))
    z = reproducing_kernel(3)
    sites = np.arange(-N, N).astype(float)
    worst_a = 0.0
    for _ in range(10):
        u = 0.02 * rng.standard_normal(2 * N)
        u -= u.mean()
        v = rng.standard_normal(2 * N)
        v -= v.mean()
        vhat = nodal_interpolant(v, z)
        vtil = convolution_interpolant(v, z)
        lhs = composite_integral(
            lambda x: atomistic_stress(system, u, z, x) * vhat.eval(x, 1),
            N, npoints=6)
        rhs = float(np.dot(system.gradient(u), vtil.eval(sites)))
        worst_a = max(worst_a, abs(lhs - rhs))

    model = continuum_model("hoc4", pot, bonds=(1, 2))
    worst_c = 0.0
    for i in range(10):
        r = np.random.default_rng(100 + i)
        u = SumField(SineField(0.02 * r.uniform(0.5, 1), np.pi / N, r.uniform(0, 2)),
                     SineField(0.01 * r.uniform(0.5, 1), 3 * np.pi / N, r.uniform(0, 2)))
        v = nodal_interpolant(r.standard_normal(2 * N) - 0.0, z)
        lhs = stress_pairing(model, u, v, N, npoints=8)
        rhs = first_variation_pairing(model, u, v, N, npoints=8)
        worst_c = max(worst_c, abs(lhs - rhs))
    ok = worst_a <= 1e-9 and worst_c <= 1e-9
    assert report(5, ok, f"weak forms: atomistic {worst_a:.2e}, "
                         f"fourth-order continuum {worst_c:.2e}")


def _consistency_sizes(model_key, kernel_degree, Ns):
    """max|R| and max|S_a| per N on the fixed-amplitude field 0.1 sin(pi x / N),
    S_a being the atomistic stress that the residual R subtracts from."""
    pot = make_potential("harmonic")
    model = continuum_model(model_key, pot, bonds=(1,))
    kern = reproducing_kernel(kernel_degree)
    res, stress = [], []
    for N in Ns:
        system = AtomisticSystem(N, pot, bonds=(1,))
        u = SineField(0.1, np.pi / N)
        x = np.linspace(-N, N, 16 * 2 * N, endpoint=False)
        v = u.eval(np.arange(-N, N).astype(float), 0)
        r = consistency_residual(system, model, u, kern, x)
        res.append(np.max(np.abs(r)))
        stress.append(np.max(np.abs(atomistic_stress(system, v, kern, x))))
    return np.array(res), np.array(stress)


def _order(Ns, values):
    slope, _, r2, _ = fit_slope(list(zip((1.0 / n for n in Ns), values)))
    return slope, r2


def _consistency_order(model_key, kernel_degree, Ns):
    res, _ = _consistency_sizes(model_key, kernel_degree, Ns)
    return _order(Ns, res)


def test_criterion_6_consistency_orders():
    hoc4, r2a = _consistency_order("hoc4", 3, (8, 16, 32, 64, 128))
    # the sixth-order residual reaches the roundoff floor past N = 32
    hoc6, r2b = _consistency_order("hoc6", 5, (8, 16, 32))
    ill2, r2c = _consistency_order("ill2", 3, (8, 16, 32, 64, 128))
    ok = hoc4 >= 4.8 and hoc6 >= 6.8 and ill2 >= 3.8
    assert report(6, ok, f"consistency orders: hoc4 {hoc4:.2f}, "
                         f"hoc6 {hoc6:.2f}, second-gradient {ill2:.2f}")


def test_criterion_6_first_order_negative_control_band():
    # The band [0.8, 1.4] is the order label of the lattice-point expansion:
    # the size of the residual relative to the stress itself. On the
    # fixed-amplitude field 0.1 sin(pi x / N) the stress falls like 1/N, and
    # the harmonic model is linear, so the absolute residual max|R| falls one
    # power of 1/N faster than the label (the orders above are absolute:
    # hoc4 5, hoc6 7). The band is therefore checked on max|R| / max|S_a|.
    Ns = (8, 16, 32, 64, 128)
    res, stress = _consistency_sizes("first", 3, Ns)
    absolute, _ = _order(Ns, res)
    first, _ = _order(Ns, res / stress)
    ok = 0.8 <= first <= 1.4
    report(6, ok, f"lattice-point expansion consistency order {first:.2f} "
                  f"relative to max|S_a| (band [0.8, 1.4]; absolute slope "
                  f"{absolute:.2f} = label + 1 on this field)")
    assert ok


def test_criterion_7_gradients_and_dft():
    rng = np.random.default_rng(77)
    N = 8
    pot = make_potential("lj")
    system = AtomisticSystem(N, pot, bonds=(1, 2))
    u = 0.02 * rng.standard_normal(2 * N)
    atom_err = gradient_check(system.objective_problem(), u, h=1e-6)
    space = PeriodicSplineSpace(N)
    eps = 1.0 / N
    fem_errs = []
    for key in ("cb", "hoc4", "hoc6", "ill2", "first"):
        model = continuum_model(key, pot, bonds=(1, 2))
        prob = assemble([model], space,
                        lambda x: eps * np.cos(np.pi * eps * x))
        fem_errs.append(gradient_check(prob, 0.01 * rng.standard_normal(2 * N),
                                       h=1e-6))
    har = AtomisticSystem(8, make_potential("harmonic"), bonds=(1,))
    lam = np.sort(hessian_dft_eigenvalues(har))
    dense = np.sort(np.linalg.eigvalsh(
        band_toarray(har.hessian(np.zeros(16)))))
    eig_err = float(np.max(np.abs(lam - dense)))
    ok = atom_err <= 1e-6 and max(fem_errs) <= 1e-6 and eig_err <= 1e-10
    assert report(7, ok, f"gradient checks: atomistic {atom_err:.2e}, fem "
                         f"max {max(fem_errs):.2e}; DFT vs dense eig "
                         f"{eig_err:.2e}")


def test_criterion_8_linear_solution_oracles():
    N = 64
    eps = 1.0 / N
    xi = np.arange(-N, N)
    system = AtomisticSystem(N, make_potential("harmonic"), bonds=(1, 2),
                             force=eps * np.cos(np.pi * eps * xi))
    sol = system.solve()
    ref = dft_solve(system)
    atom_err = float(np.max(np.abs(sol.displacement - ref)))

    model = continuum_model("hoc4", make_potential("harmonic"), bonds=(1, 2))
    space = PeriodicSplineSpace(N)
    k = np.pi * eps
    u, = solve_continuum([model], space, lambda x: eps * np.cos(k * x))
    s = sum((rho * k - rho ** 3 * k ** 3 / 24.0) ** 2 for rho in (1, 2))
    A = eps / s
    amp_rel = abs(fourier_cos_amplitude(u, k, N) - A) / A
    ok = atom_err <= 1e-10 and amp_rel <= 1e-8
    assert report(8, ok, f"atomistic vs DFT {atom_err:.2e}; continuum "
                         f"amplitude vs symbol rel {amp_rel:.2e}")


def test_criterion_9_stability():
    x = np.linspace(0.0, 1.0, 10_001)[1:]
    worst = -np.inf
    for pot, bonds in (("harmonic", (1, 2)), ("lj", (1,))):
        system = AtomisticSystem(8, make_potential(pot), bonds=bonds)
        a = atomistic_symbol(system, x)
        h = hoc_taylor_symbol(system, x)
        c = np.full_like(x, cb_symbol(system))
        tol = 1e-12 * float(np.max(np.abs(c)))
        worst = max(worst, float(np.max(a - h)), float(np.max(h - c)))
        ordering = np.all(a <= h + tol) and np.all(h <= c + tol)
        if not ordering:
            assert report(9, False, f"ordering failed for {pot} {bonds}")

    m4 = continuum_model("hoc4", make_potential("harmonic"), bonds=(1,))
    xb = np.linspace(0.0, np.pi, 10_001)[1:]
    hoc_nonneg = bool(np.min(direct_symbol(m4, xb)) >= 0.0)

    ill = continuum_model("ill2", make_potential("harmonic"), bonds=(1,))
    modes_ok = all(find_negative_mode(ill, N)
                   == int(np.ceil(2 * np.sqrt(3) * N / np.pi))
                   for N in (8, 16, 32))
    ok = worst <= 1e-10 and hoc_nonneg and modes_ok
    assert report(9, ok, f"symbol ordering (max violation {worst:.1e}), "
                         f"direct symbol nonneg: {hoc_nonneg}, negative modes "
                         f"at predicted m*: {modes_ok}")


def test_criterion_10_external_work_gap():
    # phase note: f is even, so v = sin(pi eps xi), exactly in quadrature with
    # f, would be odd and both pairings would vanish identically by symmetry,
    # leaving no rate to measure; the phase shift + 1.0 makes v generic
    z = reproducing_kernel(3)
    errs, Ns = [], (8, 16, 32, 64, 128)
    for N in Ns:
        eps = 1.0 / N
        f = lambda x: eps * np.cos(np.pi * eps * np.asarray(x, dtype=float))
        v = np.sin(np.pi * eps * np.arange(-N, N) + 1.0)
        errs.append(external_work_gap(f, v, z))
    slope, _, r2, _ = fit_slope(list(zip((1.0 / n for n in Ns), errs)))
    ok = slope >= 3.8
    assert report(10, ok, f"external-work gap order {slope:.2f} (r2 {r2:.4f})")


def test_criterion_11_determinism(tmp_path):
    cfg = StudyConfig(potential="harmonic", models=("cb", "hoc4"),
                      eps_list=EPS_SWEEP, interp="quartic")
    blobs = []
    for tag in ("a", "b"):
        records, _ = run_sweep(cfg)
        p = tmp_path / f"records_{tag}.csv"
        write_records_csv(p, records)
        blobs.append(p.read_bytes())
    ok = blobs[0] == blobs[1]
    assert report(11, ok, "two sweep runs produce bitwise-identical records.csv")
