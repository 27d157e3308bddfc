import ast
import contextlib
import importlib.util
import io
from fractions import Fraction
import json
import os
import pathlib
import pkgutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chain_elastica import cli, fem, harness
from chain_elastica.analysis import StabilityReport
from chain_elastica.atomistic import AtomisticSystem
from chain_elastica.continuum import (MODEL_KEYS, SineField,
                                      consistency_residual, continuum_model)
from chain_elastica.cli import main as cli_main
from chain_elastica.harness import (CONSISTENCY_MODELS, ConvergenceRecord,
                                    StudyConfig, fit_models, fit_slope,
                                    load_config, run_consistency,
                                    run_stability, run_sweep, solve_cell,
                                    unfitted_consistency, unfitted_models,
                                    write_records_csv, write_stability)
from chain_elastica.optimize import PeriodicBand
from chain_elastica.potentials import (POTENTIAL_KINDS, PairPotential,
                                      make_potential)
from chain_elastica.splines import (periodic_spline_coefficients,
                                    reproducing_kernel)


def test_fit_slope_synthetic():
    eps = [2.0 ** -k for k in range(3, 9)]
    slope, intercept, r2, n = fit_slope([(e, 7.0 * e ** 4) for e in eps])
    assert slope == pytest.approx(4.0, abs=1e-10)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    slope, *_ = fit_slope([(e, 5.0) for e in eps])
    assert slope == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        fit_slope([(0.1, 1.0), (0.2, 2.0)])
    with pytest.raises(ValueError):
        fit_slope([(0.1, 1.0), (0.2, 2.0), (0.3, -1.0)])


def _polyfit_agrees(pairs):
    """fit_slope against np.polyfit on the same logs within 1e-12 relative:
    the slope to itself, the intercept to the two terms it is the
    difference of (mean log v and slope times mean log eps), and r2, which
    lies in [0, 1], to 1."""
    slope, intercept, r2, n = fit_slope(pairs)
    le = np.log([e for e, _ in pairs])
    lv = np.log([v for _, v in pairs])
    want_slope, want_intercept = np.polyfit(le, lv, 1)
    resid = lv - (want_slope * le + want_intercept)
    want_r2 = 1.0 - np.sum(resid ** 2) / np.sum((lv - lv.mean()) ** 2)
    terms = abs(lv.mean()) + abs(want_slope * le.mean())
    assert slope == pytest.approx(want_slope, rel=1e-12, abs=0.0)
    assert intercept == pytest.approx(want_intercept, rel=0.0,
                                      abs=1e-12 * terms)
    assert r2 == pytest.approx(want_r2, rel=0.0, abs=1e-12)
    assert n == len(pairs)


def test_fit_slope_matches_polyfit():
    # the closed-form least squares on centred logs against numpy's SVD
    # fit, on 200 random data sets and on every fit window of the default
    # LJ and harmonic sweeps (both columns) and of `consistency`
    gen = np.random.default_rng(1905)
    for _ in range(200):
        k = gen.integers(3, 12)
        eps = np.sort(gen.uniform(1e-4, 1.0, k))
        _polyfit_agrees(list(zip(eps, np.exp(gen.normal(0.0, 5.0, k)))))
    for potential, models in (("lj", ("cb", "hoc4")),
                              ("harmonic", ("cb", "hoc4", "hoc6"))):
        cfg = StudyConfig(potential=potential, models=models)
        records, _ = run_sweep(cfg)
        for column in ("grad_error", "energy_gap"):
            for key, cells, why in harness._fit_windows(cfg, records, column):
                assert not why
                _polyfit_agrees([(r.eps, getattr(r, column)) for r in cells])
    rows, fits = run_consistency(StudyConfig())
    for key in fits:
        _polyfit_agrees([(1.0 / r["N"], r["max_R"]) for r in rows
                         if r["model"] == key])


def test_eps_must_be_reciprocal_integer():
    cfg = StudyConfig(eps_list=(0.3,), models=("cb",))
    for eps in (0.3, 0.0, -0.25, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            solve_cell(cfg, eps, ("cb",))


def test_solve_cell_harmonic():
    cfg = StudyConfig(potential="harmonic")
    [rec] = solve_cell(cfg, 2.0 ** -3, ("hoc4",)).records
    assert rec.converged
    assert rec.N == 8
    assert 0 < rec.grad_error < 1e-3
    assert 0 < rec.energy_gap < 1e-4


def test_cell_force_is_its_load_density_at_the_sites(monkeypatch):
    # eps = 0.333333333333333 is accepted as N = 3 but is not 1/3: the
    # chain's force and the FEM load both come from one f with eps = 1/N
    forces, densities = [], []
    monkeypatch.setattr(harness, "AtomisticSystem", lambda *args, **kw: (
        forces.append(kw["force"]) or AtomisticSystem(*args, **kw)))
    load_vector = fem.PeriodicSplineSpace.load_vector
    monkeypatch.setattr(fem.PeriodicSplineSpace, "load_vector",
                        lambda self, f: densities.append(f)
                        or load_vector(self, f))
    solve_cell(StudyConfig(potential="harmonic"), 0.333333333333333, ("cb",))
    [force], [f] = forces, densities
    sites = np.arange(-3, 3)
    assert np.array_equal(force, f(sites))
    x = np.linspace(-3.0, 3.0, 13)
    eps = 1.0 / 3
    assert np.array_equal(f(x), eps * np.cos(np.pi * eps * x))


def test_solve_cell_reports_unconverged_chain():
    # one Newton step cannot solve the nonlinear LJ chain: every record says
    # so in its reason
    cfg = StudyConfig(potential="lj", max_iter=1)
    cell = solve_cell(cfg, 2.0 ** -3, ("cb", "hoc4"))
    assert not cell.atomistic.converged
    assert cell.atomistic.message == "max iterations"
    for rec in cell.records:
        assert not rec.converged
        assert rec.reason == "atomistic chain not converged: max iterations"


def test_hoc4_beats_cb_at_fixed_eps():
    # the displacement-figure comparison: the fourth-order model is closer to
    # the atomistic solution than Cauchy-Born
    cfg = StudyConfig(potential="harmonic")
    dists = solve_cell(cfg, 2.0 ** -3, ("cb", "hoc4")).distances
    assert dists["hoc4"] < dists["cb"]


def test_run_consistency_orders():
    cfg = StudyConfig(potential="harmonic", r_cut=1)
    rows, fits = run_consistency(cfg, Ns=(8, 16, 32), models=("hoc4",))
    assert fits["hoc4"].slope >= 4.8
    assert all(r["max_R"] > 0 for r in rows)


@pytest.mark.parametrize("potential", ["harmonic", "lj"])
def test_consistency_rows_are_each_models_alone_and_the_oracles(potential):
    # the per-N work the models share changes no row, bit for bit: each
    # model's rows are those of a run with that model alone, in any order
    # of the others, and the R of `consistency_residual` gives them
    cfg = StudyConfig(potential=potential)
    together, _ = run_consistency(cfg, models=MODEL_KEYS)
    alone = {key: run_consistency(cfg, models=(key,))[0]
             for key in MODEL_KEYS}
    assert together == [row for key in MODEL_KEYS for row in alone[key]]
    reverse, _ = run_consistency(cfg, models=MODEL_KEYS[::-1])
    assert reverse == [row for key in MODEL_KEYS[::-1] for row in alone[key]]
    pot = cfg.make_potential()
    for row in together:
        N, key = row["N"], row["model"]
        r = consistency_residual(
            AtomisticSystem(N, pot, bonds=cfg.bonds(), F=cfg.F),
            continuum_model(key, pot, bonds=cfg.bonds(), F=cfg.F),
            SineField(0.1, np.pi / N),
            reproducing_kernel(5 if key == "hoc6" else 3),
            np.linspace(-N, N, 16 * 2 * N, endpoint=False))
        assert row["max_R"] == float(np.max(np.abs(r)))
        assert row["l2_R"] == float(np.sqrt(np.mean(r ** 2) * 2 * N))


@pytest.mark.parametrize("models", [("hoc4",), CONSISTENCY_MODELS])
def test_consistency_evaluates_the_test_field_once_per_N(models,
                                                         monkeypatch):
    # per N, the field's five derivatives at the points and its values at
    # the sites, whatever the number of models: they share one stack
    calls, eval_ = [], SineField.eval

    def counted(self, x, deriv=0):
        calls.append(deriv)
        return eval_(self, x, deriv)

    monkeypatch.setattr(SineField, "eval", counted)
    Ns = (8, 16, 32)
    run_consistency(StudyConfig(potential="lj"), Ns=Ns, models=models)
    assert sorted(calls) == [d for d in range(6) for _ in Ns]


def test_consistency_checks_each_stress_argument_once(monkeypatch):
    # each model's stress checks the argument of each bond once, and takes
    # its other derivative orders unchecked: one checked call per model,
    # bond and N
    calls, derivative = [], PairPotential.derivative

    def counted(self, j, r):
        calls.append(j)
        return derivative(self, j, r)

    monkeypatch.setattr(PairPotential, "derivative", counted)
    cfg = StudyConfig(potential="lj")
    Ns = (8, 16, 32, 64, 128)
    run_consistency(cfg, Ns=Ns)
    assert len(calls) == len(CONSISTENCY_MODELS) * len(cfg.bonds()) * len(Ns)


def test_a_zero_test_field_leaves_the_model_unfitted():
    # the nearest-neighbour harmonic chain and model are both stress-free
    # at u = 0, so every max_R is 0.0: below resolution, and left out of
    # the fits
    rows, fits = run_consistency(StudyConfig(potential="harmonic", r_cut=1),
                                 Ns=(8, 16, 32), amplitude=0.0,
                                 models=("hoc4",))
    assert [row["max_R"] for row in rows] == [0.0] * 3 and fits == {}
    assert unfitted_consistency(rows) == {
        "hoc4": "max_R 0.0 at N = 8 is not positive (below resolution)"}


def test_run_stability_smoke():
    cfg = StudyConfig(potential="harmonic")
    report, modes, table = run_stability(cfg, Ns=(8, 16))
    assert report.ordering_holds
    assert modes[8] is not None
    assert table.shape[1] == 5


def test_cli_outputs_deterministic(tmp_path):
    # every file of every command is bitwise the same on a second run
    for argv in (["sweep", "--model", "cb", "--eps-list", "2^-3..2^-5"],
                 ["solve", "--potential", "lj", "--model", "cb",
                  "--model", "hoc4"],
                 ["consistency", "--model", "hoc4"],
                 ["stability", "--potential", "lj"]):
        outs = [tmp_path / argv[0] / tag for tag in ("a", "b")]
        for out in outs:
            assert cli_main(argv + ["--out", str(out)]) == 0
        names = sorted(p.name for p in outs[0].iterdir())
        assert names and names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert ((outs[0] / name).read_bytes()
                    == (outs[1] / name).read_bytes()), (argv[0], name)


def test_cli_parsing_keeps_no_state(tmp_path):
    # every call of a process parses through the same flag tables: a second
    # pass of the same calls, a failed one among them, writes the same bytes
    # as the first
    calls = (["consistency"], ["stability", "--potential", "lj"],
             ["sweep", "--eps-list", "0.3"],
             ["sweep", "--model", "cb", "--eps-list", "2^-3..2^-5"])
    for tag in ("a", "b"):
        for argv in calls:
            argv = argv + ["--out", str(tmp_path / tag / argv[0])]
            if "0.3" in argv:
                with pytest.raises(SystemExit) as exc:
                    cli_main(argv)
                assert exc.value.code == 2
            else:
                assert cli_main(argv) == 0
    for command in ("consistency", "stability", "sweep"):
        a, b = tmp_path / "a" / command, tmp_path / "b" / command
        names = sorted(p.name for p in a.iterdir())
        assert names and names == sorted(p.name for p in b.iterdir())
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_written_formats(tmp_path):
    # hand-built inputs: bools as true/false, floats by repr, and the N keys
    # of stability.json sorted as strings ("16" before "8")
    write_records_csv(tmp_path / "records.csv", [
        ConvergenceRecord("cb", 0.125, 8, 0.1, 1e-20, True),
        ConvergenceRecord("ill2", 0.125, 8, float("nan"), float("nan"), False,
                          reason="not positive definite")])
    assert (tmp_path / "records.csv").read_text() == (
        "model,eps,N,grad_error,energy_gap,converged\n"
        "cb,0.125,8,0.1,1e-20,true\n"
        "ill2,0.125,8,nan,nan,false\n")
    report = StabilityReport(
        band=(0.0, 1.0), lambda_a_per_N={8: 2.0, 16: 1.5}, lambda_a=1.5,
        lambda_cb=3.0, lambda_hoc_taylor=2.5, lambda_hoc_direct=2.25,
        ordering_holds=True, max_ordering_violation=-0.5,
        perturbation_kappa_bound=0.125)
    write_stability(tmp_path, report, {8: 10, 16: None},
                    np.array([[0.5, 1.0, 3.0, 2.0, 2.0 / 3.0]]))
    assert (tmp_path / "stability_symbols.csv").read_text() == (
        "x,phi_a,phi_cb,phi_hoc_taylor,phi_hoc_direct\n"
        "0.5,1.0,3.0,2.0,0.6666666666666666\n")
    assert (tmp_path / "stability.json").read_text() == """\
{
  "band": [
    0.0,
    1.0
  ],
  "lambda_a": 1.5,
  "lambda_a_per_N": {
    "16": 1.5,
    "8": 2.0
  },
  "lambda_cb": 3.0,
  "lambda_hoc_direct": 2.25,
  "lambda_hoc_taylor": 2.5,
  "max_ordering_violation": -0.5,
  "negative_modes_ill2": {
    "16": null,
    "8": 10
  },
  "ordering_holds": true,
  "perturbation_kappa_bound": 0.125
}
"""


def test_load_config_roundtrip(tmp_path):
    p = tmp_path / "study.cfg"
    p.write_text("""
# comment
potential = "lj"
r_cut = 2
models = ("cb", "hoc4")
eps_list = (0.125, 0.0625)
interp = "quartic"
opt.max_iter = 50
""")
    cfg = load_config(str(p))
    assert cfg.potential == "lj"
    assert cfg.models == ("cb", "hoc4")
    assert cfg.eps_list == (0.125, 0.0625)
    assert cfg.max_iter == 50
    # Newton stops on its step, so there is no gradient tolerance to set
    for key in ("no_such_key", "opt_method", "grad_tol", "opt.grad_tol"):
        with pytest.raises(ValueError, match="unknown config key"):
            load_config(None, {key: "newton"})


def test_cli_sweep_and_outputs(tmp_path):
    out = tmp_path / "out"
    rc = cli_main(["sweep", "--potential", "harmonic", "--model", "cb",
                   "--eps-list", "2^-3..2^-5", "--interp", "quartic",
                   "--out", str(out)])
    assert rc == 0
    records = (out / "records.csv").read_text().splitlines()
    assert records[0] == "model,eps,N,grad_error,energy_gap,converged"
    assert len(records) == 4
    fits = json.loads((out / "fit.json").read_text())
    assert fits[0]["model"] == "cb"
    assert 1.5 < fits[0]["slope"] < 2.5


def test_cli_sweep_skips_model_without_certified_cells(tmp_path, capsys):
    # every ill2 cell has an indefinite Hessian: the sweep still writes its
    # NaN rows, fits only cb, and says why ill2 has no fit
    out = tmp_path / "out"
    rc = cli_main(["sweep", "--model", "cb", "--model", "ill2",
                   "--eps-list", "2^-3..2^-5", "--out", str(out)])
    assert rc == 0
    records = (out / "records.csv").read_text().splitlines()
    assert records[4:] == ["ill2,0.125,8,nan,nan,false",
                           "ill2,0.0625,16,nan,nan,false",
                           "ill2,0.03125,32,nan,nan,false"]
    for name in ("fit.json", "fit_energy.json"):
        fits = json.loads((out / name).read_text())
        assert [f["model"] for f in fits] == ["cb"]
    printed = capsys.readouterr().out.splitlines()
    assert printed[-1] == (
        "ill2: not fitted, 0 certified cells in the fit window (need 3): "
        "continuum model 'ill2' is not positive definite on the mean-zero "
        "subspace at N=8: Hessian not positive definite")


def test_cli_solve_writes_solutions(tmp_path):
    out = tmp_path / "sol"
    rc = cli_main(["solve", "--potential", "harmonic", "--eps", "0.125",
                   "--model", "cb", "--model", "hoc4", "--out", str(out)])
    assert rc == 0
    atom = (out / "solution_atomistic_8.csv").read_text().splitlines()
    assert atom[0] == "xi,u,grad_interp_u"
    assert len(atom) == 17
    hoc = (out / "solution_hoc4_8.csv").read_text().splitlines()
    assert hoc[0] == "x,u,grad_u,grad3_u"


def test_cli_solve_reports_indefinite_model(tmp_path, capsys):
    # ill2 has an indefinite Hessian: solve still writes the atomistic and cb
    # solutions, writes nothing for ill2 and says why, like sweep
    out = tmp_path / "sol"
    rc = cli_main(["solve", "--potential", "harmonic", "--eps", "0.125",
                   "--model", "cb", "--model", "ill2", "--out", str(out)])
    assert rc == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "solution_atomistic_8.csv", "solution_cb_8.csv"]
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("|grad I u_a - grad u_cb|_L2 = ")
    assert printed[1] == (
        "ill2: not solved: continuum model 'ill2' is not positive definite "
        "on the mean-zero subspace at N=8: Hessian not positive definite")


def test_cli_rejects_atomistic_model(capsys):
    for command in ("solve", "sweep", "consistency"):
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "--model", "atomistic"])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"chain-elastica {command}: error: ")
        assert "invalid choice: 'atomistic'" in err[0]


@pytest.mark.parametrize("argv", [
    ["stability", "--model", "cb"],
    ["stability", "--eps-list", "2^-3..2^-4"],
    ["stability", "--interp", "pi"],
    ["stability", "--eps-min", "0.5"],
    ["stability", "--eps", "0.25"],
    ["consistency", "--interp", "pi"],
    ["consistency", "--eps-list", "2^-3..2^-4"],
    ["consistency", "--eps-min", "0.5"],
    ["consistency", "--eps", "0.25"],
    ["solve", "--eps-list", "2^-3..2^-4"],
    ["solve", "--eps-min", "0.5"],
    # a flag is spelled out in full: no prefix of one is taken for it
    ["sweep", "--pot", "lj"],
    ["stability", "--pot=lj"],
])
def test_cli_rejects_flags_the_command_ignores(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    flag = argv[1].partition("=")[0]
    assert capsys.readouterr().err.splitlines() == [
        f"chain-elastica {argv[0]}: error: unrecognized argument {flag!r} "
        f"({argv[0]} takes {', '.join(cli._COMMAND_FLAGS[argv[0]])})"]


@pytest.mark.parametrize("argv, line", [
    ([], "chain-elastica: error: no command (choose from sweep, solve, "
     "consistency, stability)"),
    (["fit"], "chain-elastica: error: invalid command 'fit' (choose from "
     "sweep, solve, consistency, stability)"),
    (["--potential", "lj"], "chain-elastica: error: invalid command "
     "'--potential' (choose from sweep, solve, consistency, stability)"),
    (["sweep", "--potential"],
     "chain-elastica sweep: error: argument --potential: expected one "
     "argument"),
    (["solve", "--eps", "--model", "cb"],
     "chain-elastica solve: error: argument --eps: expected one argument"),
    (["consistency", "--model=hoc4", "--model"],
     "chain-elastica consistency: error: argument --model: expected one "
     "argument"),
    (["stability", "lj"], "chain-elastica stability: error: unrecognized "
     "argument 'lj' (stability takes --config, --potential, --out)"),
    (["sweep", "--interp=linear"], "chain-elastica sweep: error: argument "
     "--interp: invalid choice: 'linear' (choose from 'pi', 'cubic', "
     "'quartic')"),
], ids=["no-command", "unknown-command", "flag-before-command",
        "no-value-at-end", "flag-for-value", "no-value-after-equals-form",
        "positional", "bad-choice-equals-form"])
def test_cli_rejects_a_bad_command_line_with_one_line(argv, line, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [line] and not captured.out


def test_cli_takes_flag_equals_value(tmp_path):
    # --flag=value and --flag value write the same bytes
    argv = ["sweep", "--potential", "lj", "--model", "cb", "--eps-list",
            "2^-3..2^-5", "--out"]
    assert cli_main(argv + [str(tmp_path / "a")]) == 0
    joined = ["sweep"] + [f"{flag}={value}" for flag, value
                          in zip(argv[1::2], argv[2::2])]
    assert cli_main(joined + [f"--out={tmp_path / 'b'}"]) == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes()), name


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["sweep", "-h"],
                                  ["solve", "--eps", "0.25", "--help"]])
def test_cli_help_prints_the_usage(argv, capsys):
    assert cli_main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == cli.__doc__ and not captured.err
    assert "chain-elastica sweep [common]" in captured.out


@pytest.mark.parametrize("argv", [
    ["solve", "--eps", "0"],
    ["solve", "--eps", "-0.25"],
    ["solve", "--eps", "0.3"],
    ["sweep", "--eps-list", "0.3,0.25"],
    ["sweep", "--eps-list", "2^-3,2^-4"],
    ["sweep", "--eps-list", "0.1..0.2"],
    ["sweep", "--eps-list", ","],
])
def test_cli_rejects_invalid_eps(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"chain-elastica {argv[0]}: error: argument "
                             f"{argv[1]}: {argv[2]!r}: ")


@pytest.mark.parametrize("command", ["stability", "consistency", "sweep",
                                     "solve"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_cli_rejects_empty_out_dir(command, source, tmp_path, capsys):
    if source == "flag":
        argv = [command, "--out", ""]
    else:
        cfg = tmp_path / "empty_out.cfg"
        cfg.write_text('out_dir = ""\n')
        argv = [command, "--config", str(cfg)]
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"chain-elastica {command}: error: empty output "
                   "directory (--out or out_dir)"]


@pytest.mark.parametrize("argv, user", [
    (["solve", "--eps", "1"], "the Hermite interpolant in the solution files"),
    (["solve", "--eps", "0.5"],
     "the Hermite interpolant in the solution files"),
    (["solve", "--eps", "0.3333333333333333"],
     "the Hermite interpolant in the solution files"),
    (["sweep", "--interp", "pi", "--eps-list", "2^-1..2^-4"], "--interp pi"),
], ids=["solve-1", "solve-1/2", "solve-1/3", "sweep-pi"])
def test_cli_rejects_chains_too_small_for_the_hermite_interpolant(
        argv, user, tmp_path, capsys):
    # its stencils need 2N >= 7 sites; without the check these ended in a
    # ValueError traceback from lattice.stencil_derivatives
    with pytest.raises(SystemExit) as exc:
        cli_main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    eps = argv[argv.index("--eps") + 1] if "--eps" in argv else "0.5"
    err = capsys.readouterr().err.splitlines()
    assert err == [f"chain-elastica {argv[0]}: error: eps = "
                   f"{float(eps)!r} is too large: {user} needs eps <= 1/4"]


def test_cli_solves_the_smallest_hermite_chain(tmp_path):
    assert cli_main(["solve", "--eps", "0.25", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "solution_atomistic_4.csv").exists()


@pytest.mark.parametrize("text, message", [
    ("no_such_key = 1\n", "unknown config key 'no_such_key'"),
    ("eps_list = (0.125, 0.3)\n",
     "eps = 0.3 is not the reciprocal of an integer"),
    (None, "No such file or directory"),
    ('potential = "foo"\n', "potential: 'foo' is not one of harmonic, lj, "
     "morse"),
    ('models = ("atomistic",)\n', "models: 'atomistic' is not one of cb, "
     "hoc4, hoc6, ill2, first"),
    ('interp = "linear"\n', "interp: 'linear' is not one of pi, cubic, "
     "quartic"),
    ('eps_min_fit = "abc"\n', "eps_min_fit: 'abc' is not of type float"),
    ('r_cut = "two"\n', "r_cut: 'two' is not of type int"),
    ("max_iter = 2.5\n", "max_iter: 2.5 is not of type int"),
    ("F = True\n", "F: True is not of type float"),
    ('kappa = "x"\n', "kappa: 'x' is not of type float"),
    ('eps_list = (0.125, "x")\n', "eps_list: 'x' is not of type float"),
    ('models = ("cb", "hoc4", "cb")\n', "models: 'cb' is repeated"),
    # values out of range ended in tracebacks from inside the sweep
    ("r_cut = 0\n", "r_cut: 0 is not >= 1"),
    ("max_iter = 0\n", "max_iter: 0 is not >= 1"),
    ("F = 0.0\n", "F: 0.0 is not > 0"),
    ("F = -1\n", "F: -1 is not > 0"),
    ("eps_scale = 0\n", "eps_scale: 0 is not > 0"),
    ("morse_a = -4.0\n", "morse_a: -4.0 is not > 0"),
    ("eps_min_fit = -0.5\n", "eps_min_fit: -0.5 is not >= 0"),
    # non-finite values ran to the end with every chain failed, or passed
    ("F = 1e309\n", "F: inf is not finite"),
    ("eps_scale = -1e309\n", "eps_scale: -inf is not finite"),
    (f"morse_a = {10 ** 400}\n", f"morse_a: {10 ** 400} is not finite"),
    ("eps_min_fit = 1e309\n", "eps_min_fit: inf is not finite"),
    ("kappa = -1.0\n", "kappa: -1.0 is not > 0"),
    ("kappa = 0\n", "kappa: 0 is not > 0"),
    ("kappa = 1e309\n", "kappa: inf is not finite"),
    # the stability report's strain interval reached a collapsed bond
    ("F = 0.5\nkappa = 0.5\n", "kappa: 0.5 is not < F = 0.5"),
    # a repeated N was solved twice, the second time cold, and both rows
    # were fitted; an empty list wrote an empty records.csv
    ("eps_list = (0.125, 0.125, 0.0625)\n",
     "eps_list: 0.125 is repeated (N = 8)"),
    ("eps_list = (0.25, 0.125, 0.2500000000001)\n",
     "eps_list: 0.2500000000001 is repeated (N = 4)"),
    ("eps_list = ()\n", "eps_list: no eps values"),
    # no models wrote header-only records.csv and consistency.csv
    ("models = ()\n", "models: no models"),
], ids=["unknown-key", "bad-eps", "missing-file", "bad-potential",
        "bad-model", "bad-interp", "str-for-float", "str-for-int",
        "float-for-int", "bool-for-float", "str-for-kappa", "str-eps",
        "repeated-model", "r_cut-0", "max_iter-0", "F-0", "F-negative",
        "eps_scale-0", "morse_a-negative", "eps_min_fit-negative", "F-inf",
        "eps_scale-minus-inf", "morse_a-huge-int", "eps_min_fit-inf",
        "kappa-negative", "kappa-0", "kappa-inf", "kappa-not-below-F",
        "repeated-eps", "eps-with-a-repeated-N", "empty-eps-list",
        "no-models"])
def test_cli_config_errors_exit_2_with_one_line(text, message, tmp_path,
                                                capsys):
    path = tmp_path / "study.cfg"
    if text is not None:
        path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        cli_main(["sweep", "--config", str(path), "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"chain-elastica sweep: error: --config {path}: "
                   f"{message}"]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(command=st.sampled_from(["sweep", "solve", "consistency",
                                "stability"]),
       potential=st.sampled_from(POTENTIAL_KINDS),
       F=st.one_of(st.sampled_from([1e-9, 0.01, 1.0]), st.floats(1e-9, 1e4)),
       r_cut=st.integers(1, 9),
       kappa=st.one_of(st.none(), st.floats(1e-6, 1e3)),
       eps_scale=st.floats(1e-3, 1e3),
       models=st.lists(st.sampled_from(MODEL_KEYS), unique=True, max_size=3),
       eps_list=st.sampled_from([(0.25,), (0.25, 0.125),
                                 (0.125, 0.0625, 0.03125)]),
       max_iter=st.integers(1, 6))
# a line-search trial that collapsed a bond and a consistency test field
# that collapsed one ended in tracebacks; no models exited 0 with
# header-only files
@example(command="sweep", potential="harmonic", F=1e-9, r_cut=2, kappa=None,
         eps_scale=1.0, models=["cb", "hoc4"], eps_list=(0.25, 0.125),
         max_iter=500)
@example(command="consistency", potential="harmonic", F=0.01, r_cut=2,
         kappa=None, eps_scale=1.0, models=["hoc4"], eps_list=(0.25,),
         max_iter=500)
@example(command="sweep", potential="harmonic", F=1.0, r_cut=2, kappa=None,
         eps_scale=1.0, models=[], eps_list=(0.25,), max_iter=500)
def test_cli_config_fuzz_exits_0_or_2_with_one_line(
        command, potential, F, r_cut, kappa, eps_scale, models, eps_list,
        max_iter):
    # any config of valid types on tiny cells: the command runs and reports
    # on every model (exit 0), or names the bad input in one line (exit 2);
    # any other exception fails the test. max_iter is kept small to bound
    # the time per example
    text = (f"potential = {potential!r}\nF = {F!r}\nr_cut = {r_cut}\n"
            f"kappa = {kappa!r}\neps_scale = {eps_scale!r}\n"
            f"models = {tuple(models)!r}\neps_list = {eps_list!r}\n"
            f"max_iter = {max_iter}\n")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "study.cfg")
        with open(path, "w") as fh:
            fh.write(text)
        argv = [command, "--config", path, "--out", os.path.join(tmp, "out")]
        if command == "solve":
            argv += ["--eps", repr(eps_list[-1])]
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
    lines, printed = err.getvalue().splitlines(), out.getvalue().splitlines()
    if code == 2:
        assert len(lines) == 1
        assert lines[0].startswith(f"chain-elastica {command}: error: ")
        return
    assert code == 0 and not lines and printed
    if command != "stability":
        for key in models:
            assert any(line.startswith(f"{key}:") or f"u_{key}|" in line
                       for line in printed)


def test_load_config_takes_ints_for_floats_and_no_kappa():
    cfg = load_config(None, {"F": 1, "eps_min_fit": 0, "kappa": None})
    assert (cfg.F, cfg.eps_min_fit, cfg.kappa) == (1, 0, None)
    assert load_config(None, {"kappa": 0.5}).kappa == 0.5


@pytest.mark.parametrize("command", ["sweep", "solve", "consistency"])
def test_cli_rejects_a_repeated_model(command, tmp_path, capsys):
    # each row and fit was written twice, and the models would share one
    # history
    with pytest.raises(SystemExit) as exc:
        cli_main([command, "--model", "cb", "--model", "hoc4", "--model",
                  "cb", "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"chain-elastica {command}: error: models: 'cb' is "
                   "repeated"]


@pytest.mark.parametrize("eps_list, message", [
    ("0.125,0.125,0.0625,0.03125", "0.125 is repeated (N = 8)"),
    ("0.25,0.125,0.2500000000001", "0.2500000000001 is repeated (N = 4)")])
def test_cli_rejects_a_repeated_eps(eps_list, message, tmp_path, capsys):
    # the repeated N was solved twice, the second time cold, and fit.json
    # counted both rows as points
    with pytest.raises(SystemExit) as exc:
        cli_main(["sweep", "--eps-list", eps_list, "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"chain-elastica sweep: error: eps_list: {message}"]
    assert not (tmp_path / "records.csv").exists()


def test_cli_stability_and_consistency(tmp_path):
    out = tmp_path / "stab"
    rc = cli_main(["stability", "--potential", "harmonic", "--out", str(out)])
    assert rc == 0
    data = json.loads((out / "stability.json").read_text())
    assert data["ordering_holds"] is True
    assert (out / "stability_symbols.csv").exists()

    out2 = tmp_path / "cons"
    rc = cli_main(["consistency", "--potential", "harmonic", "--model",
                   "hoc4", "--out", str(out2)])
    assert rc == 0
    fits = json.loads((out2 / "consistency_fit.json").read_text())
    assert fits[0]["slope"] >= 4.8


@pytest.mark.parametrize("F", [0.0391, 0.0385])
def test_cli_consistency_names_a_stress_outside_the_domain(F, tmp_path,
                                                           capsys):
    # at N = 8 the chain's bonds stay positive, but a model's stress takes
    # phi_1 at a compressed bond: one line naming F, the bond and N
    path = tmp_path / "study.cfg"
    path.write_text(f"F = {F!r}\n")
    with pytest.raises(SystemExit) as exc:
        cli_main(["consistency", "--potential", "lj", "--config", str(path),
                  "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"chain-elastica consistency: error: F = {F!r}: the test field "
        "0.1*sin(pi x / N) leaves the potential's domain at N = 8: bond "
        "rho=1: pair potential evaluated at nonpositive distance"]


def test_cli_consistency_takes_the_config_models(tmp_path):
    # the file's models, unless --model is given; without either, the four
    # consistency models
    path = tmp_path / "study.cfg"
    path.write_text('models = ("hoc4",)\n')

    def models(out, *argv):
        assert cli_main(["consistency", *argv, "--out", str(out)]) == 0
        rows = (out / "consistency.csv").read_text().splitlines()[1:]
        return list(dict.fromkeys(row.split(",")[0] for row in rows))

    assert models(tmp_path / "a", "--config", str(path)) == ["hoc4"]
    assert models(tmp_path / "b", "--config", str(path),
                  "--model", "ill2") == ["ill2"]
    assert models(tmp_path / "c") == ["hoc4", "hoc6", "ill2", "first"]


def test_importing_the_cli_loads_no_scipy():
    # a fresh interpreter, because other tests import scipy as an oracle
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, chain_elastica.cli; print(sorted("
            "m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_exported_name_resolves():
    # a deleted function must leave no stale name behind in a module's
    # `__all__` or among the names the package imports
    import chain_elastica
    for info in pkgutil.iter_modules(chain_elastica.__path__):
        module = importlib.import_module(f"chain_elastica.{info.name}")
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert not missing, (info.name, missing)
    # each name the package imports is one its module exports
    tree = ast.parse(pathlib.Path(chain_elastica.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"chain_elastica.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, (node.module, alias.name)
            assert getattr(chain_elastica, alias.asname or alias.name) \
                is getattr(module, alias.name)


def _records_with_a_zero_gap():
    """cb and hoc4 over eps 2^-3..2^-6 with exact rates, but hoc4's energy
    gap at N = 64 is 0.0: below resolution."""
    eps = [2.0 ** -k for k in range(3, 7)]
    records = [ConvergenceRecord(key, e, round(1 / e), e ** p, e ** p, True)
               for key, p in (("cb", 2), ("hoc4", 4)) for e in eps]
    records[-1].energy_gap = 0.0
    return records


def test_fit_leaves_out_a_column_with_a_value_below_resolution():
    cfg = StudyConfig(models=("cb", "hoc4"), eps_min_fit=2.0 ** -6)
    records = _records_with_a_zero_gap()
    assert [f.model for f in fit_models(cfg, records, "grad_error")] == [
        "cb", "hoc4"]
    assert [f.model for f in fit_models(cfg, records, "energy_gap")] == ["cb"]
    assert unfitted_models(cfg, records, "grad_error") == []
    assert unfitted_models(cfg, records, "energy_gap") == [
        ("hoc4", "energy_gap 0.0 at eps = 0.015625 is not positive "
                 "(below resolution)")]


def test_cli_sweep_reports_a_column_below_resolution(tmp_path, capsys,
                                                     monkeypatch):
    # the sweep writes every file and exits 0; one line says which fit is
    # missing and why
    records = _records_with_a_zero_gap()
    monkeypatch.setattr(cli, "run_sweep", lambda cfg: (
        records, fit_models(cfg, records, "grad_error")))
    out = tmp_path / "out"
    assert cli_main(["sweep", "--eps-min", str(2.0 ** -6),
                     "--out", str(out)]) == 0
    fits = json.loads((out / "fit.json").read_text())
    assert [f["model"] for f in fits] == ["cb", "hoc4"]
    fits = json.loads((out / "fit_energy.json").read_text())
    assert [f["model"] for f in fits] == ["cb"]
    printed = capsys.readouterr().out.splitlines()
    assert printed[2:] == [
        "hoc4: not fitted, energy_gap 0.0 at eps = 0.015625 is not positive "
        "(below resolution)"]


def test_warm_and_cold_starts_reach_the_same_cell():
    # a chain started from its one coarser solution moved to this mesh and
    # one started from 0 stop on their steps at the same minimizer, to far
    # below the rows' 1e-6 reference tolerance; the models, without
    # coarser solutions, start from the chain's spline in both
    cfg = StudyConfig(potential="lj", models=("cb", "hoc4"))
    coarse = solve_cell(cfg, 2.0 ** -4, ()).history
    assert {key: len(rows) for key, rows in coarse.rows.items()} == {
        "chain": 1}
    warm = solve_cell(cfg, 2.0 ** -5, cfg.models, coarse)
    cold = solve_cell(cfg, 2.0 ** -5, cfg.models)
    assert warm.atomistic.iterations < cold.atomistic.iterations
    assert np.max(np.abs(warm.atomistic.displacement
                         - cold.atomistic.displacement)) < 1e-12
    for w, c in zip(warm.records, cold.records):
        assert w.converged and c.converged
        assert w.grad_error == pytest.approx(c.grad_error, rel=1e-9)
        assert w.energy_gap == pytest.approx(c.energy_gap, rel=1e-6)


def test_lj_sweep_certifies_every_cell_of_every_model():
    # all five models certify every cell from 2^-3 to 2^-10, as with cold
    # starts and a gradient tolerance; without the roundoff-aware line
    # search, ill2 at N = 32 and first at N = 8 ran out of iterations
    cfg = StudyConfig(potential="lj",
                      models=("cb", "hoc4", "hoc6", "ill2", "first"))
    records, fits = run_sweep(cfg)
    assert len(records) == 40
    assert [(r.model, r.N) for r in records if not r.converged] == []
    assert [f.model for f in fits] == list(cfg.models)


def _newton_steps(monkeypatch, cfg):
    """run_sweep(cfg) with the Newton steps of each cell: N -> [chain, then
    each model that was solved]."""
    steps = {}

    def counted(cfg, eps, models, history=None):
        cell = solve_cell(cfg, eps, models, history)
        N = len(cell.atomistic.displacement) // 2
        steps[N] = [cell.atomistic.iterations] + [
            cell.fields[key].result.iterations for key in models
            if key in cell.fields]
        return cell

    monkeypatch.setattr(harness, "solve_cell", counted)
    run_sweep(cfg)
    return steps


def test_default_lj_sweep_factorization_count(monkeypatch, factorizations):
    # nested iteration from the extrapolated coarser solutions for the
    # chain and cb, hoc4 started from the chain's spline, and the step
    # test: 37 factorizations, where hoc4's own extrapolated history took
    # 39, prolonged starts 49 and cold starts with a gradient tolerance 96.
    # From N = 128 on, each solve takes one Newton step. Only the N = 8
    # chain, which starts cold at u = 0, has a circulant Hessian
    calls = []
    factor = PeriodicBand.factor
    monkeypatch.setattr(PeriodicBand, "factor",
                        lambda self: calls.append(self.n) or factor(self))
    steps = _newton_steps(monkeypatch,
                          StudyConfig(potential="lj", models=("cb", "hoc4")))
    assert len(calls) <= 52
    assert len(factorizations) == 37
    assert factorizations.count(True) == 1
    assert {N: s for N, s in steps.items() if N >= 128} == {
        N: [1, 1, 1] for N in (128, 256, 512, 1024)}


def test_default_harmonic_sweep_factorization_count(factorizations):
    # a linear problem has one Hessian: each of the 32 solves factors it
    # once, where the stopping step factored it again (54). Every one is
    # circulant and goes through its spectrum
    run_sweep(StudyConfig(potential="harmonic",
                          models=("cb", "hoc4", "hoc6")))
    assert factorizations == [True] * 32


def _fem_bands(monkeypatch, cfg):
    """For each FEM Hessian band that `run_sweep(cfg)` builds, in order:
    True where it is built from one element's stencil, False where its
    element rows are streamed through `PeriodicSplineSpace.scatter_add`,
    which scatters (11, n) parts for nothing else."""
    built = []

    class Band(PeriodicBand):
        streamed = False

        def __init__(self, n, b):
            super().__init__(n, b)
            built.append(self)

    scatter = fem.PeriodicSplineSpace.scatter_add

    def scatter_add(self, local, out=None):
        out = scatter(self, local, out)
        if out.shape[0] == 11:
            built[-1].streamed = True
        return out

    monkeypatch.setattr(fem, "PeriodicBand", Band)
    monkeypatch.setattr(fem.PeriodicSplineSpace, "scatter_add", scatter_add)
    run_sweep(cfg)
    return [not band.streamed for band in built]


def test_default_sweeps_build_homogeneous_bands_from_one_element(
        monkeypatch):
    # a harmonic density has the same second derivatives at every point,
    # so each of the 24 continuum solves builds its one band from one
    # element; none of the 23 LJ bands is homogeneous, as each LJ
    # continuum solve starts from a deformed state, not from u = 0
    assert _fem_bands(monkeypatch, StudyConfig(
        potential="harmonic", models=("cb", "hoc4", "hoc6"))) == [True] * 24
    assert _fem_bands(monkeypatch, StudyConfig(
        potential="lj", models=("cb", "hoc4"))) == [False] * 23


def test_default_morse_sweep_takes_one_newton_step_per_solve_from_N_128(
        monkeypatch):
    # as on the LJ sweep, each start of the chain and cb is the Richardson
    # extrapolation in eps^2 of the coarser solutions, and hoc4 starts from
    # the chain's spline; each is within about 1e-10 relative of the
    # solution from N = 128 on, so the first step already passes the step
    # test. hoc4's own extrapolated history took 39 steps, prolonged
    # starts 49
    steps = _newton_steps(monkeypatch, StudyConfig(potential="morse",
                                                   models=("cb", "hoc4")))
    assert sum(map(sum, steps.values())) == 37
    assert all(s == [1, 1, 1] for N, s in steps.items() if N >= 128)


def test_harmonic_sweep_factors_once_per_solve_in_few_newton_steps(
        monkeypatch, factorizations):
    # one factorization per solve, as with prolonged starts (54 steps), and
    # no more than 47 Newton steps: a linear solve takes a second step only
    # to see that its first one was small
    steps = _newton_steps(monkeypatch, StudyConfig(
        potential="harmonic", models=("cb", "hoc4", "hoc6")))
    assert factorizations == [True] * 32
    assert sum(map(sum, steps.values())) <= 47


def test_extrapolated_and_cold_starts_reach_the_same_cell():
    # three coarser cells give the N = 256 cell's chain and cb starts
    # extrapolated from three solutions each, and hoc4, which keeps no
    # history, starts from the chain's spline: one Newton step per solve,
    # at the minimizers that cold starts reach, to far below the rows' 1e-6
    # reference tolerance
    cfg = StudyConfig(potential="lj", models=("cb", "hoc4"))
    history = None
    for k in (5, 6, 7):
        history = solve_cell(cfg, 2.0 ** -k, cfg.models, history).history
    assert {key: len(rows) for key, rows in history.rows.items()} == {
        "chain": 3, "cb": 3}
    warm = solve_cell(cfg, 2.0 ** -8, cfg.models, history)
    cold = solve_cell(cfg, 2.0 ** -8, cfg.models)
    assert warm.atomistic.iterations == 1 < cold.atomistic.iterations
    for key in cfg.models:
        assert warm.fields[key].result.iterations == 1
    scale = np.max(np.abs(cold.atomistic.displacement))
    assert np.max(np.abs(warm.atomistic.displacement
                         - cold.atomistic.displacement)) < 1e-12 * scale
    for w, c in zip(warm.records, cold.records):
        assert w.converged and c.converged
        assert w.grad_error == pytest.approx(c.grad_error, rel=1e-7)
        assert w.energy_gap == pytest.approx(c.energy_gap, rel=1e-6)


def test_models_started_from_the_chain_keep_no_history(monkeypatch):
    # the class attribute, not the key, picks hoc4 and hoc6. They start
    # from the quintic spline through this cell's chain in every cell and
    # keep no rows; cb starts from its own extrapolated rows
    pot = make_potential("morse")
    assert [key for key in MODEL_KEYS
            if continuum_model(key, pot).starts_from_chain] == ["hoc4", "hoc6"]
    starts = {}
    solve = harness.solve_continuum

    def recorded(models, space, load, max_iter, x0):
        starts.update((m.key, row.copy()) for m, row in zip(models, x0))
        return solve(models, space, load, max_iter, x0)

    monkeypatch.setattr(harness, "solve_continuum", recorded)
    cfg = StudyConfig(potential="morse", models=("cb", "hoc4", "hoc6"))
    history = solve_cell(cfg, 2.0 ** -3, cfg.models).history
    cell = solve_cell(cfg, 2.0 ** -4, cfg.models, history)
    assert {key: len(rows) for key, rows in cell.history.rows.items()} == {
        "chain": 2, "cb": 2}
    spline = periodic_spline_coefficients(cell.atomistic.displacement, 5)
    assert np.array_equal(starts["hoc4"], spline)
    assert np.array_equal(starts["hoc6"], spline)
    assert not np.array_equal(starts["cb"], spline)


def test_failed_solves_restart_their_history():
    # only converged solutions are extrapolated: an unconverged solve and a
    # model with an indefinite Hessian keep no solutions, and a cell after
    # an empty history is the cell of cold starts
    cfg = StudyConfig(potential="harmonic", models=("cb", "ill2"))
    cell = solve_cell(cfg, 2.0 ** -3, cfg.models)
    assert {key: len(rows) for key, rows in cell.history.rows.items()} == {
        "chain": 1, "cb": 1}
    # one Newton step ends a harmonic solve, so the unconverged chain is
    # Lennard-Jones's, stopped after its first step
    lj = StudyConfig(potential="lj", models=cfg.models, max_iter=1)
    cell = solve_cell(lj, 2.0 ** -3, cfg.models)
    assert not cell.atomistic.converged
    assert cell.history.rows == {}
    after = solve_cell(cfg, 2.0 ** -4, cfg.models, cell.history).records
    cold = solve_cell(cfg, 2.0 ** -4, cfg.models).records
    assert after[0] == cold[0] and after[1].reason == cold[1].reason


@pytest.mark.parametrize("scale, model", [
    (dict(F=998925.3, eps_scale=0.1), "cb"),
    (dict(F=1e-6, eps_scale=1e-6, r_cut=3), "hoc4")])
def test_harmonic_cells_at_extreme_scale_converge_in_one_step(scale, model):
    # quadratic problems at scales where the step test of the damped loop
    # fails: cb at F ~ 1e6 ended "backtracking failed" after 4 steps, and
    # hoc4 at eps_scale 1e-6 ran all 500
    cfg = StudyConfig(potential="harmonic", models=(model,), **scale)
    cell = solve_cell(cfg, 0.25, cfg.models)
    assert cell.atomistic.converged and cell.atomistic.iterations == 1
    assert cell.records[0].converged and cell.records[0].reason == ""
    assert cell.fields[model].result.iterations == 1


@settings(derandomize=True, max_examples=40, deadline=None)
@given(coeffs=st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=3,
                       max_size=3),
       h=st.fractions(min_value=Fraction(1, 2 ** 40), max_value=1))
def test_extrapolation_is_exact_on_polynomials_in_eps_squared(coeffs, h):
    # the weights for k solutions at eps**2 = 4h, 16h, 64h give p(h)
    # exactly, in rational arithmetic, for every p of degree below k
    for rows, weights in harness._EXTRAPOLATION.items():
        weights = [Fraction(float(w)) for w in weights]
        for degree in range(rows):
            p = [sum(c * t ** i for i, c in enumerate(coeffs[:degree + 1]))
                 for t in (h, 4 * h, 16 * h, 64 * h)]
            assert sum(w * v for w, v in zip(weights, p[1:])) == p[0], \
                (rows, degree)


def _sweep_cells(cfg):
    """The cells of run_sweep(cfg), coarse to fine."""
    cells, history = [], None
    for eps in sorted(cfg.eps_list, reverse=True):
        cells.append(solve_cell(cfg, eps, cfg.models, history))
        history = cells[-1].history
    return cells


def _assert_solved_as_if_alone(together, alone, key):
    """The cells `together` give model `key` the record, the coefficients
    and the Newton result's iterations and message of the cells `alone`,
    bit for bit."""
    assert len(together) == len(alone)
    for t, a in zip(together, alone):
        i = [r.model for r in t.records].index(key)
        assert repr(t.records[i]) == repr(a.records[0])
        assert (key in t.fields) == (key in a.fields)
        if key in a.fields:
            u, v = t.fields[key], a.fields[key]
            assert u.coeffs.tobytes() == v.coeffs.tobytes()
            assert u.energy == v.energy
            assert u.result.iterations == v.result.iterations
            assert u.result.message == v.result.message


def test_a_sweep_solves_each_model_as_if_alone():
    # each model extrapolates from its own history, and the models of a
    # cell are solved in lockstep on one stack, each with its own steps,
    # tests and exits: its rows, coefficients and Newton results do not
    # depend on the other models of the sweep, bit for bit. The harmonic
    # case is the default sweep of the benchmark
    models = ("cb", "hoc4", "hoc6")
    for cfg in (StudyConfig(potential="lj", models=models,
                            eps_list=tuple(2.0 ** -k for k in range(3, 8))),
                StudyConfig(potential="harmonic", models=models)):
        together, _ = run_sweep(cfg)
        alone = []
        for key in models:
            cfg.models = (key,)
            alone += run_sweep(cfg)[0]
        assert together == alone
        cfg.models = models
        cells = _sweep_cells(cfg)
        for key in models:
            cfg.models = (key,)
            _assert_solved_as_if_alone(cells, _sweep_cells(cfg), key)


@pytest.mark.parametrize("potential, models, failing", [
    ("harmonic", ("cb", "ill2", "hoc4"), "ill2"),
    ("morse", ("cb", "first", "hoc4"), "first")])
def test_a_failing_model_leaves_the_others_as_if_alone(potential, models,
                                                       failing):
    # at N = 8 harmonic ill2 (solved alone, in slot form) and Morse first
    # (on the bond-form stack with cb and hoc4) are not positive definite:
    # the failing model keeps its reason, and the others are bitwise what
    # they are alone
    cfg = StudyConfig(potential=potential, models=models)
    cell = solve_cell(cfg, 0.125, models)
    rec = cell.records[models.index(failing)]
    assert not rec.converged and failing not in cell.fields
    assert rec.reason == (
        f"continuum model {failing!r} is not positive definite on the "
        "mean-zero subspace at N=8: Hessian not positive definite")
    for key in models:
        _assert_solved_as_if_alone([cell], [solve_cell(cfg, 0.125, (key,))],
                                   key)


def test_lj_solve_of_five_models_writes_each_as_if_alone(tmp_path):
    # `solve` with every model writes each model's solution file and line
    # as it does with that model alone
    keys = ("cb", "hoc4", "hoc6", "ill2", "first")

    def solve(models, out):
        argv = ["solve", "--potential", "lj", "--out", str(out)]
        for key in models:
            argv += ["--model", key]
        lines = io.StringIO()
        with contextlib.redirect_stdout(lines):
            assert cli_main(argv) == 0
        return lines.getvalue().splitlines()

    together = solve(keys, tmp_path / "all")
    for key, line in zip(keys, together):
        assert solve((key,), tmp_path / key) == [line]
        name = f"solution_{key}_8.csv"
        assert ((tmp_path / "all" / name).read_bytes()
                == (tmp_path / key / name).read_bytes())


def test_sweep_with_eps_steps_that_are_not_halvings(tmp_path):
    # 8 -> 10 -> 16 sites per half period: each history moves to an empty
    # one on the next mesh, so every solve starts cold and each cell is
    # the one `solve_cell` gives without a history, bit for bit
    out = tmp_path / "out"
    rc = cli_main(["sweep", "--potential", "lj", "--eps-list",
                   "0.125,0.1,0.0625", "--out", str(out)])
    assert rc == 0
    rows = (out / "records.csv").read_text().splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == ["8", "10", "16"] * 2
    assert all(row.endswith(",true") for row in rows)
    cfg = StudyConfig(potential="lj")
    for eps in (0.1, 0.0625):
        cold = solve_cell(cfg, eps, cfg.models).records
        for row, rec in zip([r for r in rows if r.split(",")[1] == repr(eps)],
                            cold):
            grad, gap = map(float, row.split(",")[3:5])
            assert (grad, gap) == (rec.grad_error, rec.energy_gap)


def test_a_cell_measures_each_model_as_if_alone():
    # the chain's energy, grad I u at the Gauss points and the load vector
    # are computed once per cell and shared by its models
    cfg = StudyConfig(potential="lj")
    models = ("cb", "hoc4", "hoc6")
    together = solve_cell(cfg, 2.0 ** -4, models).records
    assert together == [solve_cell(cfg, 2.0 ** -4, (key,)).records[0]
                        for key in models]


def test_a_cell_builds_no_pp_form_of_its_model_fields():
    # each model is measured at the Gauss points from its coefficients
    cell = solve_cell(StudyConfig(), 2.0 ** -4, ("cb", "hoc4", "hoc6"))
    assert len(cell.fields) == 3
    assert not any("pp" in vars(u) for u in cell.fields.values())


BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.mark.parametrize("workload, argv", [
    ("sweep-harmonic", ["--potential", "harmonic", "--model", "cb",
                        "--model", "hoc4", "--model", "hoc6"]),
    ("sweep-lj", ["--potential", "lj", "--model", "cb", "--model", "hoc4"]),
])
def test_default_sweeps_pass_the_benchmark_checks(workload, argv, tmp_path):
    # the benchmark's row and slope checks against its recorded references,
    # read only, so a row that moves fails here before the benchmark runs
    spec = importlib.util.spec_from_file_location(
        "benchmark_checks", BENCHMARKS / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    assert cli_main(["sweep", *argv, "--out", str(tmp_path)]) == 0
    ops = checks.check_sweep(
        str(tmp_path), str(BENCHMARKS / "reference" / workload / "sweep"))
    failed = {op: why for op, why in ops.items() if why is not None}
    assert ops and not failed, failed


def test_a_sweep_loads_no_numpy_polynomial(tmp_path):
    # a fresh interpreter: the Gauss rules need only numpy.linalg
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; from chain_elastica.cli import main; "
            f"main(['sweep', '--eps-list', '2^-3..2^-5', '--out', "
            f"{str(tmp_path)!r}]); print(sorted("
            "m for m in sys.modules if m.startswith('numpy.polynomial')))")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_no_command_loads_the_oracles(tmp_path):
    # the reference oracles stay off every command's path: neither the
    # package nor a command imports them, at import time or later; nor do
    # they load argparse or what it loads to word its messages
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    names = ("chain_elastica.oracles", "argparse", "gettext", "locale")
    commands = [["sweep", "--eps-list", "2^-3..2^-5"], ["solve"],
                ["consistency"], ["stability"]]
    code = "\n".join([
        "import sys",
        "from chain_elastica.cli import main",
        "def loaded(step):",
        f"    for name in {names!r}:",
        "        print(name, 'after', step, name in sys.modules)",
        "loaded('import')",
        f"for argv in {commands!r}:",
        f"    assert main(argv + ['--out', {str(tmp_path)!r} + '/' + argv[0]])"
        " == 0",
        "    loaded(argv[0])"])
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = [line for line in proc.stdout.splitlines()
              if line.startswith(names)]
    assert report == [f"{name} after {step} False" for step in
                      ("import", "sweep", "solve", "consistency",
                       "stability") for name in names]
