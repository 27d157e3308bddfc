"""Command line front end:

    chain-elastica sweep [common] [--model ...] [--interp {pi|cubic|quartic}]
        [--eps-list ...] [--eps-min <eps>]
    chain-elastica solve [common] [--model ...] [--interp {pi|cubic|quartic}]
        [--eps <eps>]
    chain-elastica consistency [common] [--model ...]
    chain-elastica stability [common]

    common: [--config <path>] [--potential {harmonic|lj|morse}] [--out <dir>]

Each command accepts only the flags it reads; any other exits with status 2,
as does a bad flag value or config file, with one line. `solve`, and `sweep
--interp pi`, need eps <= 1/4: the Hermite interpolant's stencils take 7
sites. Each command parses, runs and prints; `harness` writes every output
file.
"""

import argparse
import dataclasses
import functools
import os
import sys

from .continuum import MODEL_KEYS
from .harness import (CONSISTENCY_MODELS, StudyConfig, fit_models,
                      load_config, run_consistency, run_stability, run_sweep,
                      solve_cell, unfitted_consistency, unfitted_models,
                      write_consistency, write_fits_json, write_records_csv,
                      write_solution_csvs, write_stability, _eps_to_N)
from .lattice import STENCIL_MIN_N
from .optimize import DomainError
from .potentials import POTENTIAL_KINDS
from .splines import INTERP_KINDS


def _parse_eps_list(text):
    """Comma-separated eps values, or a dyadic range like '2^-3..2^-8'."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..")
        a = int(lo.replace("2^-", ""))
        b = int(hi.replace("2^-", ""))
        return tuple(2.0 ** -k for k in range(min(a, b), max(a, b) + 1))
    values = tuple(float(tok) for tok in text.split(",") if tok)
    if not values:
        raise ValueError("no eps values")
    return values


def _eps_arg(parse):
    """argparse type: `parse` the text, then check every eps with
    `_eps_to_N`; a bad value exits with status 2 and a one-line message."""
    def convert(text):
        try:
            value = parse(text)
            for eps in value if isinstance(value, tuple) else (value,):
                _eps_to_N(eps)
        except ValueError as err:
            raise argparse.ArgumentTypeError(f"{text!r}: {err}") from None
        return value
    return convert


def _build_config(parser, args):
    """The --config file, overridden by every flag given whose destination
    is a StudyConfig field; `consistency` models default to its own four.
    A file that cannot be read, or a bad line, key, type, value, eps or
    choice in it, or a repeated model or N, exits with status 2 and a
    one-line message."""
    keys = {f.name for f in dataclasses.fields(StudyConfig)}
    defaults = ({"models": CONSISTENCY_MODELS}
                if args.command == "consistency" else None)
    try:
        return load_config(args.config, {k: v for k, v in vars(args).items()
                                         if k in keys and v is not None},
                           defaults)
    except OSError as err:
        parser.error(f"--config {args.config}: {err.strerror}")
    except ValueError as err:
        parser.error(f"--config {args.config}: {err}" if args.config
                     else str(err))


def _check_hermite_cells(parser, eps_values, user):
    """Exit with status 2 and a one-line message unless every eps leaves
    the Hermite interpolant's stencils their 7 sites: eps <= 1/4."""
    for eps in eps_values:
        if _eps_to_N(eps) < STENCIL_MIN_N:
            parser.error(f"eps = {eps!r} is too large: {user} needs "
                         f"eps <= 1/{STENCIL_MIN_N}")


@functools.lru_cache(maxsize=None)
def _parser():
    """The parser and its subcommand parsers by name, built once per
    process: parsing keeps no state in them (every `append` list and
    default is made anew in each call's namespace)."""
    parser = argparse.ArgumentParser(prog="chain-elastica")
    sub = parser.add_subparsers(dest="command", required=True)
    cmd = {name: sub.add_parser(name)
           for name in ("solve", "sweep", "stability", "consistency")}
    for p in cmd.values():
        p.add_argument("--config", default=None)
        p.add_argument("--potential", choices=POTENTIAL_KINDS)
        p.add_argument("--out", dest="out_dir")
    for name in ("solve", "sweep", "consistency"):
        cmd[name].add_argument("--model", dest="models", action="append",
                               choices=MODEL_KEYS)
    for name in ("solve", "sweep"):
        cmd[name].add_argument("--interp", choices=INTERP_KINDS)
    cmd["sweep"].add_argument("--eps-list", dest="eps_list",
                              type=_eps_arg(_parse_eps_list))
    cmd["sweep"].add_argument("--eps-min", dest="eps_min_fit", type=float,
                              help="exclude eps below this from slope fits")
    cmd["solve"].add_argument("--eps", type=_eps_arg(float),
                              default=2.0 ** -3)
    return parser, cmd


def main(argv=None):
    parser, cmd = _parser()
    args = parser.parse_args(argv)
    cfg = _build_config(cmd[args.command], args)
    if not cfg.out_dir:
        cmd[args.command].error("empty output directory (--out or out_dir)")
    if args.command == "solve":
        _check_hermite_cells(cmd["solve"], (args.eps,),
                             "the Hermite interpolant in the solution files")
    elif args.command == "sweep" and cfg.interp == "pi":
        _check_hermite_cells(cmd["sweep"], cfg.eps_list, "--interp pi")
    os.makedirs(cfg.out_dir, exist_ok=True)

    if args.command == "sweep":
        records, fits = run_sweep(cfg)
        write_records_csv(os.path.join(cfg.out_dir, "records.csv"), records)
        write_fits_json(os.path.join(cfg.out_dir, "fit.json"), fits)
        write_fits_json(os.path.join(cfg.out_dir, "fit_energy.json"),
                        fit_models(cfg, records, "energy_gap"))
        for f in fits:
            flag = "  [flagged: r2 < 0.99]" if f.flagged else ""
            print(f"{f.model}: grad-error slope {f.slope:.3f} "
                  f"(r2 = {f.r2:.5f}, {f.points} points){flag}")
        # a window with too few cells leaves a model out of both columns:
        # say so once
        for line in dict.fromkeys(
                f"{model}: not fitted, {why}"
                for column in ("grad_error", "energy_gap")
                for model, why in unfitted_models(cfg, records, column)):
            print(line)
        return 0

    if args.command == "solve":
        cell = solve_cell(cfg, args.eps, cfg.models)
        write_solution_csvs(cfg.out_dir, cell)
        for rec in cell.records:
            if rec.reason:
                print(f"{rec.model}: not solved: {rec.reason}")
            else:
                print(f"|grad I u_a - grad u_{rec.model}|_L2 = "
                      f"{cell.distances[rec.model]:.6e}")
        return 0

    if args.command == "stability":
        report, modes, table = run_stability(cfg)
        write_stability(cfg.out_dir, report, modes, table)
        print(f"ordering holds on band {report.band}: {report.ordering_holds}")
        return 0

    if args.command == "consistency":
        try:
            rows, fits = run_consistency(cfg, models=cfg.models)
        except DomainError as err:
            cmd["consistency"].error(str(err))
        write_consistency(cfg.out_dir, rows, fits)
        for key, f in fits.items():
            print(f"{key}: consistency order {f.slope:.3f} (r2 = {f.r2:.5f})")
        for key, why in unfitted_consistency(rows).items():
            print(f"{key}: not fitted, {why}")
        return 0

    return 1


if __name__ == "__main__":
    sys.exit(main())
