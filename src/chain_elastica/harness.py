"""Refinement studies: configuration, the modeling-error sweep, slope fits,
and the consistency / stability / solve reports with CSV + JSON output.

Internally everything runs in lattice units (spacing 1, domain [-N, N]);
reported errors are converted to the scaled axes: gradient errors carry a
factor eps^(1/2), energies a factor eps.
"""

import ast
import json
import os
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .analysis import find_negative_mode, stability_constants, \
    atomistic_symbol, cb_symbol, hoc_taylor_symbol, direct_symbol
from .atomistic import AtomisticSolution, AtomisticSystem, atomistic_stress
from .continuum import MODEL_KEYS, SineField, continuum_model, gradients
from .fem import PeriodicSplineSpace, energy_gap, grad_l2_distance, \
    solve_continuum, IndefiniteHessianError
from .lattice import hermite_interpolant
from .optimize import DomainError
from .potentials import POTENTIAL_KINDS, make_potential
from .quadrature import composite_points
from .splines import INTERP_KINDS, measurement_interpolant, \
    periodic_spline_coefficients, periodic_spline_subdivision, \
    periodic_spline_values, reproducing_kernel

__all__ = ["StudyConfig", "ConvergenceRecord", "SlopeFit", "fit_slope",
           "fit_models", "unfitted_models", "Cell", "History", "solve_cell",
           "run_sweep", "run_consistency", "unfitted_consistency",
           "run_stability", "write_records_csv", "write_fits_json",
           "write_solution_csvs", "write_consistency", "write_stability",
           "load_config"]

_DEFAULT_EPS = tuple(2.0 ** -k for k in range(3, 11))
CONSISTENCY_MODELS = ("hoc4", "hoc6", "ill2", "first")


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
    history: "History"      # the start of the next cell


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


# Lagrange weights that extrapolate in eps**2 to a cell's eps**2 = h from
# its coarser solutions at eps**2 = 4h, 16h, 64h (eps halving), finest
# first, by history length
_EXTRAPOLATION = {1: np.array([1.0]), 2: np.array([5 / 4, -1 / 4]),
                  3: np.array([21 / 16, -21 / 64, 1 / 64])}


@dataclass
class History:
    """The converged solutions of the cells before one eps, the start of
    nested iteration (Hackbusch, Multi-Grid Methods and Applications, 1985):
    for each solve that keeps them, keyed "chain" or by model key (not the
    models that `starts_from_chain`), the quintic-spline
    coefficients of its solutions on the mesh of the last cell, 2N sites, as
    the rows of one array, finest first. A solve has 1 to 3 solutions, at
    eps halving from one row to the next, and none (no key) where its last
    solve failed."""
    N: int
    rows: dict

    def moved(self, N):
        """The history on 2N sites: when N is 2·self.N, every solution
        subdivided onto the mesh twice as fine and scaled by 2, like the
        displacement, all in one call; otherwise an empty one."""
        if N != 2 * self.N or not self.rows:
            return History(N, {})
        arrays = list(self.rows.values())
        ends = np.cumsum([len(a) for a in arrays])[:-1]
        fine = 2.0 * periodic_spline_subdivision(np.concatenate(arrays), 5)
        return History(N, dict(zip(self.rows, np.split(fine, ends))))

    def start(self, key, cold):
        """The Richardson extrapolation in eps**2 (`_EXTRAPOLATION`) of the
        solutions of `key`, or `cold` when there are none."""
        rows = self.rows.get(key)
        return cold if rows is None else _EXTRAPOLATION[len(rows)] @ rows

    def pushed(self, key, new):
        """The solutions of `key` after it converged to `new` on this mesh:
        `new` in front of the finest two."""
        return np.vstack([new, *self.rows.get(key, ())[:2]])


def solve_cell(cfg, eps, models, history=None):
    """One eps of the study: the atomistic chain is solved once, then each
    continuum model in `models` is solved and measured against it.

    `history` is the `History` that the cell before returned, or None.
    The chain and every model that does not `starts_from_chain` start from
    the extrapolation of their own solutions there, moved to this mesh
    (`History.moved`, `History.start`): the chain from that spline at its
    sites, a model from those coefficients. A solve without solutions
    starts cold: the chain from 0, a model from the quintic spline through
    this cell's chain. A model that `starts_from_chain` (hoc4, hoc6) always
    starts from that spline, which lies closer to its solution than the
    extrapolation of its own, and keeps no history. A history whose eps
    this cell does not halve moves to an empty one.

    What the models share is computed once per cell: the chain's energy
    above the homogeneous state (carried by its solution), grad I u at the
    Gauss points of the error norm, and the FEM load vector. A model whose
    Hessian is indefinite, or whose start is outside the potential's
    domain, gets a NaN record with the reason and no field.
    If the chain did not converge, the other records give that as their
    reason. The cell returns the history for the next one: the solutions
    of the converged solves that keep one."""
    N = _eps_to_N(eps)
    history = History(N, {}) if history is None else history.moved(N)
    pot = cfg.make_potential()
    bonds = cfg.bonds()
    system = AtomisticSystem(N, pot, bonds=bonds, F=cfg.F,
                             force=_lattice_force(N), kappa=cfg.kappa)
    sol_a = system.solve(max_iter=cfg.max_iter, u0=periodic_spline_values(
        history.start("chain", np.zeros(2 * N)), 5))
    space = PeriodicSplineSpace(N)
    iu = measurement_interpolant(sol_a.displacement, cfg.interp)
    grad_iu = (iu.eval(composite_points(N), 1) if cfg.interp == "pi" else
               space.gradient_at_points(iu))
    # the FEM coefficients of the quintic spline through the chain
    start = periodic_spline_coefficients(sol_a.displacement.values, 5)
    load = space.load_vector(lambda x: eps * np.cos(np.pi * eps * x))
    cell = Cell(sol_a, [], {}, {}, History(N, {}))
    if sol_a.converged:
        cell.history.rows["chain"] = history.pushed("chain", start)
    chain_failure = ("" if sol_a.converged else
                     f"atomistic chain not converged: {sol_a.message}")
    for key in models:
        model = continuum_model(key, pot, bonds=bonds, F=cfg.F)
        try:
            u_c = solve_continuum(model, space, load, cfg.max_iter,
                                  start if model.starts_from_chain
                                  else history.start(key, start))
        except (IndefiniteHessianError, DomainError) as exc:
            cell.records.append(ConvergenceRecord(
                key, eps, N, float("nan"), float("nan"), False,
                reason=str(exc)))
            continue
        if u_c.result.converged and not model.starts_from_chain:
            cell.history.rows[key] = history.pushed(key, u_c.coeffs)
        g_err = grad_l2_distance(grad_iu, space.gradient_at_points(u_c), N)
        e_gap = energy_gap(sol_a, u_c)
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
    The eps run from coarse to fine, and each cell starts from the history
    of converged solutions the one before returns (nested iteration,
    `solve_cell`). Output ordering is deterministic: models in config
    order, eps descending. See `unfitted_models` for the models left
    unfitted."""
    by_eps, history = [], None
    for eps in sorted(cfg.eps_list, reverse=True):
        cell = solve_cell(cfg, eps, cfg.models, history)
        by_eps.append(cell.records)
        history = cell.history
    records = [row[i] for i in range(len(cfg.models)) for row in by_eps]
    return records, fit_models(cfg, records, "grad_error")


def fit_models(cfg, records, column):
    """Slope fit of one record column per model over its certified cells in
    the fit window; the models `unfitted_models` names are left out."""
    return [_slope_fit(key, [(r.eps, getattr(r, column)) for r in cells])
            for key, cells, why in _fit_windows(cfg, records, column)
            if not why]


def _fit_windows(cfg, records, column):
    """(model, its certified cells in the fit window, why the column cannot
    be fitted or "") in config order. A value <= 0 is below resolution: the
    log-log fit cannot take it."""
    windows = []
    for key in cfg.models:
        cells = [r for r in records if r.model == key and r.converged
                 and r.eps >= cfg.eps_min_fit]
        bad = next((r for r in cells if getattr(r, column) <= 0.0), None)
        if len(cells) < 3:
            reason = next((r.reason for r in records
                           if r.model == key and r.reason), "")
            why = (f"{len(cells)} certified cells in the fit window (need 3)"
                   + (f": {reason}" if reason else ""))
        elif bad is not None:
            why = (f"{column} {getattr(bad, column)!r} at eps = {bad.eps!r} "
                   "is not positive (below resolution)")
        else:
            why = ""
        windows.append((key, cells, why))
    return windows


def unfitted_models(cfg, records, column):
    """(model, why) for each model that `fit_models` leaves out of the
    column: fewer than 3 certified cells in the fit window (the same for
    every column), or a value there that is not positive."""
    return [(key, why) for key, _, why in _fit_windows(cfg, records, column)
            if why]


def _column(values):
    """One CSV column as strings, formatted by the type of its first entry
    (a column holds one type): bools as true/false, floats by repr, the rest
    by str."""
    values = values.tolist() if isinstance(values, np.ndarray) else values
    if not values:
        return []
    if isinstance(values[0], bool):
        return ["true" if v else "false" for v in values]
    if isinstance(values[0], (float, np.floating)):
        return list(map(repr, map(float, values)))
    return list(map(str, values))


def _write_csv(path, header, columns):
    """The header line, then one line per row of the columns, each column
    formatted whole by `_column`."""
    lines = [header] + list(map(",".join, zip(*map(_column, columns))))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_records_csv(path, records):
    """records.csv: one line per record; `reason` is not written."""
    header = "model,eps,N,grad_error,energy_gap,converged"
    _write_csv(path, header, [[getattr(r, c) for r in records]
                              for c in header.split(",")])


def write_fits_json(path, fits):
    """A JSON list with one object per SlopeFit (fit.json, fit_energy.json,
    consistency_fit.json)."""
    _write_json(path, [asdict(f) for f in fits])


def run_consistency(cfg, Ns=(8, 16, 32, 64, 128), amplitude=0.1,
                    models=CONSISTENCY_MODELS):
    """Pointwise stress-consistency sweep on the fixed test field
    amplitude * sin(pi x / N). The sixth-order model is paired with the
    quintic kernel, everything else with the cubic one. Per N, the field's
    gradient stack at the points (`gradients`) and the atomistic stress,
    once per kernel degree, are shared by the models: the arrays that
    `consistency_residual` computes, so each R is that oracle's bit for
    bit. Rows are in model order, N ascending; the models that
    `unfitted_consistency` names are left out of `fits`. DomainError names
    F and N where the test field or a model's stress argument leaves the
    potential's domain."""
    pot = cfg.make_potential()
    bonds = cfg.bonds()
    cont = {key: continuum_model(key, pot, bonds=bonds, F=cfg.F)
            for key in models}
    by_model = {key: [] for key in models}
    for N in Ns:
        system = AtomisticSystem(N, pot, bonds=bonds, F=cfg.F)
        x = np.linspace(-N, N, 16 * 2 * N, endpoint=False)
        u = SineField(amplitude, np.pi / N)
        g = gradients(u, x)
        samples = u.eval(np.arange(-N, N).astype(float), 0)
        stress_a = {}
        for key, model in cont.items():
            degree = 5 if key == "hoc6" else 3
            try:
                if degree not in stress_a:
                    stress_a[degree] = atomistic_stress(
                        system, samples, reproducing_kernel(degree), x)
                r = stress_a[degree] - model.stress(g)
            except DomainError as err:
                raise DomainError(
                    f"F = {cfg.F!r}: the test field {amplitude!r}*"
                    f"sin(pi x / N) leaves the potential's domain at "
                    f"N = {N}: {err}") from None
            by_model[key].append({
                "model": key, "N": N, "max_R": float(np.max(np.abs(r))),
                "l2_R": float(np.sqrt(np.mean(r ** 2) * 2 * N))})
        del x, g, samples, stress_a     # before the next N's arrays
    rows = [row for key in models for row in by_model[key]]
    unfitted = unfitted_consistency(rows)
    fits = {key: _slope_fit(key, [(1.0 / row["N"], row["max_R"])
                                  for row in by_model[key]])
            for key in models if key not in unfitted}
    return rows, fits


def unfitted_consistency(rows):
    """model -> why, in row order, for each model of the consistency rows
    that `run_consistency` leaves unfitted: one with a max_R that is not
    positive (below resolution), its first such row named."""
    unfitted = {}
    for row in rows:
        if not row["max_R"] > 0.0:
            unfitted.setdefault(row["model"], (
                f"max_R {row['max_R']!r} at N = {row['N']} is not "
                "positive (below resolution)"))
    return unfitted


def write_consistency(out_dir, rows, fits):
    """consistency.csv (`model,N,max_R,l2_R`) and consistency_fit.json."""
    _write_csv(os.path.join(out_dir, "consistency.csv"), "model,N,max_R,l2_R",
               [[r[c] for r in rows] for c in ("model", "N", "max_R", "l2_R")])
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
               "x,phi_a,phi_cb,phi_hoc_taylor,phi_hoc_direct", table.T)
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
               "xi,u,grad_interp_u", (xi, u.values, du))
    xs = np.sort(np.concatenate([xi.astype(float), xi + 0.5]))
    for key, fld in cell.fields.items():
        _write_csv(os.path.join(out_dir, f"solution_{key}_{N}.csv"),
                   "x,u,grad_u,grad3_u",
                   (xs, fld.eval(xs, 0), fld.eval(xs, 1), fld.eval(xs, 3)))


# dotted spellings accepted in config files
_KEY_ALIASES = {"opt.max_iter": "max_iter"}
# the keys with a fixed set of values: the CLI flags' choices
_KEY_CHOICES = {"potential": POTENTIAL_KINDS, "models": MODEL_KEYS,
                "interp": INTERP_KINDS}
# the numeric keys' lower bounds, strict or not
_KEY_BOUNDS = {"r_cut": (">=", 1), "max_iter": (">=", 1), "F": (">", 0),
               "eps_scale": (">", 0), "morse_a": (">", 0),
               "eps_min_fit": (">=", 0), "kappa": (">", 0)}


def _check_type(key, val, want):
    """ValueError naming the key unless val is a `want`: an int passes for
    a float, a bool for neither."""
    if isinstance(val, bool) or not isinstance(
            val, (int, float) if want is float else want):
        raise ValueError(f"{key}: {val!r} is not of type {want.__name__}")


def load_config(path=None, overrides=None, defaults=None):
    """Flat key = value config (strings, numbers, tuples via literal syntax);
    '#' starts a comment. The file wins over `defaults` (a command's own,
    where they differ from `StudyConfig`'s), and CLI overrides win over
    both. ValueError names an unknown key, a line without '=', a value whose
    type is not its `StudyConfig` field's (`kappa` may also be None), that
    is below its `_KEY_BOUNDS` or (for a float) not finite, an eps that is
    not the reciprocal of an integer, an empty eps or model list, a repeated
    model or N, a `kappa` that is not below F, or a potential, model or
    interpolant that the CLI flags do not offer."""
    data = dict(defaults or {})
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
    types = {f.name: f.type for f in fields(StudyConfig)}
    for key, val in data.items():
        if key not in types:
            raise ValueError(f"unknown config key {key!r}")
        if key in ("models", "eps_list") and not isinstance(val, tuple):
            val = tuple(val) if isinstance(val, (list, set)) else (val,)
        if not (key == "kappa" and val is None):
            _check_type(key, val, types[key])
            if types[key] is float and not abs(val) <= sys.float_info.max:
                raise ValueError(f"{key}: {val!r} is not finite")
            if key in _KEY_BOUNDS:
                op, low = _KEY_BOUNDS[key]
                if not (val > low or op == ">=" and val == low):
                    raise ValueError(f"{key}: {val!r} is not {op} {low}")
        if key == "eps_list":
            if not val:
                raise ValueError("eps_list: no eps values")
            for i, eps in enumerate(val):
                _check_type(key, eps, float)
                N = _eps_to_N(eps)
                if N in map(_eps_to_N, val[:i]):
                    raise ValueError(f"eps_list: {eps!r} is repeated (N = {N})")
        if key in _KEY_CHOICES:
            choices = _KEY_CHOICES[key]
            for v in val if key == "models" else (val,):
                if v not in choices:
                    raise ValueError(f"{key}: {v!r} is not one of "
                                     f"{', '.join(choices)}")
        if key == "models" and not val:
            raise ValueError("models: no models")
        if key == "models" and len(set(val)) < len(val):
            repeated = next(v for v in val if val.count(v) > 1)
            raise ValueError(f"models: {repeated!r} is repeated")
        setattr(cfg, key, val)
    if cfg.kappa is not None and not cfg.kappa < cfg.F:
        # the strain -kappa would take a nearest-neighbour bond to length
        # F - kappa <= 0, outside the potential's domain
        raise ValueError(f"kappa: {cfg.kappa!r} is not < F = {cfg.F!r}")
    return cfg
