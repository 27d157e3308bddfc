"""Refinement studies: configuration, the modeling-error sweep, slope fits,
and the consistency / stability / solve reports with CSV + JSON output.

Internally everything runs in lattice units (spacing 1, domain [-N, N]);
reported errors are converted to the scaled axes: gradient errors carry a
factor eps^(1/2), energies a factor eps.
"""

import ast
import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from .analysis import find_negative_mode, stability_constants, \
    atomistic_symbol, cb_symbol, hoc_taylor_symbol, direct_symbol
from .atomistic import AtomisticSolution, AtomisticSystem
from .continuum import SineField, consistency_residual, continuum_model
from .fem import PeriodicSplineSpace, energy_gap, grad_l2_distance, \
    solve_continuum, IndefiniteHessianError
from .lattice import hermite_interpolant
from .potentials import make_potential
from .splines import measurement_interpolant, reproducing_kernel

__all__ = ["StudyConfig", "ConvergenceRecord", "SlopeFit", "fit_slope",
           "fit_models", "unfitted_models", "Cell", "solve_cell", "run_sweep",
           "run_consistency", "run_stability", "write_records_csv",
           "write_fits_json", "write_solution_csvs", "write_consistency",
           "write_stability", "load_config"]

_DEFAULT_EPS = tuple(2.0 ** -k for k in range(3, 11))


@dataclass
class StudyConfig:
    potential: str = "harmonic"
    eps_scale: float = 1.0            # potential length scale (lattice units)
    morse_a: float = 4.0
    r_cut: int = 2                    # bonds {1, ..., r_cut}
    F: float = 1.0
    models: tuple = ("cb", "hoc4")
    eps_list: tuple = _DEFAULT_EPS
    interp: str = "quartic"           # pi | cubic | quartic
    grad_tol: float = 1e-10
    max_iter: int = 500
    eps_min_fit: float = 2.0 ** -8    # exclude smaller eps from slope fits
    kappa: float = None
    out_dir: str = "out"

    def bonds(self):
        return tuple(range(1, self.r_cut + 1))

    def make_potential(self):
        return make_potential(self.potential, eps=self.eps_scale,
                              morse_a=self.morse_a)


@dataclass
class ConvergenceRecord:
    model: str
    eps: float
    N: int
    grad_error: float       # scaled units: eps^(1/2) * lattice value
    energy_gap: float       # scaled units: eps * lattice value
    converged: bool
    reason: str = ""        # why the cell failed; not written to records.csv


@dataclass
class Cell:
    """What `solve_cell` returns for one eps."""
    atomistic: AtomisticSolution
    records: list           # one ConvergenceRecord per model, in model order
    fields: dict            # model -> FemField, for the models solved
    distances: dict         # model -> ||grad I u_a - grad u_c||_L2, lattice units


@dataclass
class SlopeFit:
    model: str
    slope: float
    intercept: float
    r2: float
    points: int
    flagged: bool           # r2 below the acceptance bar


def fit_slope(pairs, eps_min=0.0):
    """Least squares on (log eps, log error); needs >= 3 positive points."""
    pts = [(e, v) for e, v in pairs if e >= eps_min]
    if len(pts) < 3:
        raise ValueError("slope fit needs at least 3 points")
    if any(v <= 0.0 for _, v in pts):
        raise ValueError("slope fit needs positive errors")
    le = np.log([e for e, _ in pts])
    lv = np.log([v for _, v in pts])
    slope, intercept = np.polyfit(le, lv, 1)
    resid = lv - (slope * le + intercept)
    ss_tot = float(np.sum((lv - lv.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 0.0
    return slope, intercept, r2, len(pts)


def _slope_fit(model, pairs):
    """`fit_slope` of `pairs` as a SlopeFit, flagged when r2 < 0.99."""
    slope, intercept, r2, npts = fit_slope(pairs)
    return SlopeFit(model, slope, intercept, r2, npts, flagged=r2 < 0.99)


def _eps_to_N(eps):
    """N = 1/eps; ValueError unless eps is the reciprocal of an integer >= 1."""
    if not eps > 0:
        raise ValueError(f"eps = {eps} is not positive")
    N = round(1.0 / eps)
    if N < 1 or abs(N * eps - 1.0) > 1e-12:
        raise ValueError(f"eps = {eps} is not the reciprocal of an integer")
    return int(N)


def _lattice_force(N):
    eps = 1.0 / N
    xi = np.arange(-N, N)
    return eps * np.cos(np.pi * eps * xi)


def solve_cell(cfg, eps, models):
    """One eps of the study: the atomistic chain is solved once, then each
    continuum model in `models` is solved and measured against it. A model
    whose Hessian is indefinite gets a NaN record with the reason and no
    field. If the chain did not converge, the other records give that as
    their reason."""
    N = _eps_to_N(eps)
    pot = cfg.make_potential()
    bonds = cfg.bonds()
    system = AtomisticSystem(N, pot, bonds=bonds, F=cfg.F,
                             force=_lattice_force(N), kappa=cfg.kappa)
    sol_a = system.solve(grad_tol=cfg.grad_tol, max_iter=cfg.max_iter)
    iu = measurement_interpolant(sol_a.displacement, cfg.interp)
    space = PeriodicSplineSpace(N)
    f_cont = lambda x: eps * np.cos(np.pi * eps * x)
    cell = Cell(sol_a, [], {}, {})
    chain_failure = ("" if sol_a.converged else
                     f"atomistic chain not converged: {sol_a.message}")
    for key in models:
        model = continuum_model(key, pot, bonds=bonds, F=cfg.F)
        try:
            u_c = solve_continuum(model, space, f_cont, grad_tol=cfg.grad_tol,
                                  max_iter=cfg.max_iter)
        except IndefiniteHessianError as exc:
            cell.records.append(ConvergenceRecord(
                key, eps, N, float("nan"), float("nan"), False,
                reason=str(exc)))
            continue
        g_err = grad_l2_distance(iu, u_c, N)
        e_gap = energy_gap(system, sol_a, model, u_c)
        cell.fields[key] = u_c
        cell.distances[key] = g_err
        cell.records.append(ConvergenceRecord(
            key, eps, N, float(np.sqrt(eps) * g_err), float(eps * e_gap),
            bool(sol_a.converged and u_c.result.converged),
            reason=chain_failure))
    return cell


def run_sweep(cfg):
    """The refinement protocol: for each eps solve both descriptions, measure
    the scaled gradient error and energy gap, then fit slopes per model.
    Output ordering is deterministic: models in config order, eps descending.
    See `fit_models` for the models left unfitted."""
    by_eps = [solve_cell(cfg, eps, cfg.models).records
              for eps in sorted(cfg.eps_list, reverse=True)]
    records = [row[i] for i in range(len(cfg.models)) for row in by_eps]
    return records, fit_models(cfg, records, "grad_error")


def fit_models(cfg, records, column):
    """Slope fit of one record column per model over its certified cells in
    the fit window; models with fewer than 3 are left out (`unfitted_models`)."""
    return [_slope_fit(key, [(r.eps, getattr(r, column)) for r in cells])
            for key, cells in _fit_windows(cfg, records) if len(cells) >= 3]


def _fit_windows(cfg, records):
    """(model, its certified cells in the fit window) in config order."""
    return [(key, [r for r in records if r.model == key and r.converged
                   and r.eps >= cfg.eps_min_fit]) for key in cfg.models]


def unfitted_models(cfg, records):
    """(model, certified cells in the fit window, first failure reason) for
    each model that `fit_models` leaves out."""
    return [(key, len(cells),
             next((r.reason for r in records if r.model == key and r.reason), ""))
            for key, cells in _fit_windows(cfg, records) if len(cells) < 3]


def _fmt(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_csv(path, header, rows):
    """The header line, then one line per row with each cell `_fmt`-ed."""
    lines = [header] + [",".join(_fmt(v) for v in row) for row in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_records_csv(path, records):
    """records.csv: one line per record; `reason` is not written."""
    _write_csv(path, "model,eps,N,grad_error,energy_gap,converged",
               [(r.model, r.eps, r.N, r.grad_error, r.energy_gap, r.converged)
                for r in records])


def write_fits_json(path, fits):
    """A JSON list with one object per SlopeFit (fit.json, fit_energy.json,
    consistency_fit.json)."""
    _write_json(path, [asdict(f) for f in fits])


def run_consistency(cfg, Ns=(8, 16, 32, 64, 128), amplitude=0.1,
                    models=("hoc4", "hoc6", "ill2", "first")):
    """Pointwise stress-consistency sweep on the fixed test field
    amplitude * sin(pi x / N). The sixth-order model is paired with the
    quintic kernel, everything else with the cubic one."""
    pot = cfg.make_potential()
    bonds = cfg.bonds()
    rows = []
    for model_key in models:
        model = continuum_model(model_key, pot, bonds=bonds, F=cfg.F)
        kernel = reproducing_kernel(5 if model_key == "hoc6" else 3)
        for N in Ns:
            system = AtomisticSystem(N, pot, bonds=bonds, F=cfg.F)
            u = SineField(amplitude, np.pi / N)
            x = np.linspace(-N, N, 16 * 2 * N, endpoint=False)
            r = consistency_residual(system, model, u, kernel, x)
            rows.append({"model": model_key, "N": N,
                         "max_R": float(np.max(np.abs(r))),
                         "l2_R": float(np.sqrt(np.mean(r ** 2) * 2 * N))})
    fits = {key: _slope_fit(key, [(1.0 / row["N"], row["max_R"])
                                  for row in rows if row["model"] == key])
            for key in models}
    return rows, fits


def write_consistency(out_dir, rows, fits):
    """consistency.csv (`model,N,max_R,l2_R`) and consistency_fit.json."""
    _write_csv(os.path.join(out_dir, "consistency.csv"), "model,N,max_R,l2_R",
               [(r["model"], r["N"], r["max_R"], r["l2_R"]) for r in rows])
    write_fits_json(os.path.join(out_dir, "consistency_fit.json"),
                    list(fits.values()))


def run_stability(cfg, band=(0.0, 1.0), ngrid=10_000, Ns=(8, 16, 32, 64)):
    pot = cfg.make_potential()
    bonds = cfg.bonds()
    system = AtomisticSystem(8, pot, bonds=bonds, F=cfg.F, kappa=cfg.kappa)
    report = stability_constants(system, band=band, ngrid=ngrid, Ns=Ns)
    ill = continuum_model("ill2", pot, bonds=bonds, F=cfg.F)
    modes = {N: find_negative_mode(ill, N) for N in Ns}
    x = np.linspace(band[0], band[1], 513)[1:]
    hoc4 = continuum_model("hoc4", pot, bonds=bonds, F=cfg.F)
    table = np.column_stack([x, atomistic_symbol(system, x),
                             np.full_like(x, cb_symbol(system)),
                             hoc_taylor_symbol(system, x),
                             direct_symbol(hoc4, x)])
    return report, modes, table


def write_stability(out_dir, report, modes, table):
    """stability_symbols.csv (the symbol table) and stability.json (the
    report and the ill-posed model's negative modes). The N keys are written
    as strings, so json sorts them as strings ("16" before "8")."""
    _write_csv(os.path.join(out_dir, "stability_symbols.csv"),
               "x,phi_a,phi_cb,phi_hoc_taylor,phi_hoc_direct", table)
    summary = asdict(report)
    summary["lambda_a_per_N"] = {str(N): v for N, v in
                                 report.lambda_a_per_N.items()}
    summary["negative_modes_ill2"] = {str(N): m for N, m in modes.items()}
    _write_json(os.path.join(out_dir, "stability.json"), summary)


def write_solution_csvs(out_dir, cell):
    """solution_atomistic_<N>.csv and solution_<model>_<N>.csv for each
    model of the cell that was solved."""
    u = cell.atomistic.displacement
    N = u.N
    xi = np.arange(-N, N)
    du = hermite_interpolant(u).eval(xi.astype(float), 1)
    _write_csv(os.path.join(out_dir, f"solution_atomistic_{N}.csv"),
               "xi,u,grad_interp_u", zip(xi, u.values, du))
    xs = np.sort(np.concatenate([xi.astype(float), xi + 0.5]))
    for key, fld in cell.fields.items():
        _write_csv(os.path.join(out_dir, f"solution_{key}_{N}.csv"),
                   "x,u,grad_u,grad3_u",
                   zip(xs, fld.eval(xs, 0), fld.eval(xs, 1), fld.eval(xs, 3)))


# dotted spellings accepted in config files
_KEY_ALIASES = {"opt.grad_tol": "grad_tol", "opt.max_iter": "max_iter"}


def load_config(path=None, overrides=None):
    """Flat key = value config (strings, numbers, tuples via literal syntax);
    '#' starts a comment. CLI overrides win."""
    data = {}
    if path:
        with open(path) as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"bad config line: {raw.rstrip()}")
                key, val = (s.strip() for s in line.split("=", 1))
                key = _KEY_ALIASES.get(key, key)
                try:
                    data[key] = ast.literal_eval(val)
                except (SyntaxError, ValueError):
                    data[key] = val
    if overrides:
        data.update(overrides)
    cfg = StudyConfig()
    for key, val in data.items():
        if not hasattr(cfg, key):
            raise ValueError(f"unknown config key {key!r}")
        if key in ("models", "eps_list") and not isinstance(val, tuple):
            val = tuple(val) if isinstance(val, (list, set)) else (val,)
        setattr(cfg, key, val)
    return cfg
