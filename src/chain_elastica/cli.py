"""Command line front end:

    chain-elastica sweep [common] [--model ...] [--interp {pi|cubic|quartic}]
        [--eps-list ...] [--eps-min <eps>]
    chain-elastica solve [common] [--model ...] [--interp {pi|cubic|quartic}]
        [--eps <eps>]
    chain-elastica consistency [common] [--model ...]
    chain-elastica stability [common]

    common: [--config <path>] [--potential {harmonic|lj|morse}] [--out <dir>]

Each command accepts only the flags it reads; any other exits with status 2.
"""

import argparse
import json
import os
import sys

from .continuum import MODEL_KEYS
from .harness import (energy_fits, load_config, run_consistency, run_stability,
                      run_sweep, solve_cell, unfitted_models, write_fits_json,
                      write_records_csv, write_solution_csvs, _eps_to_N, _fmt)


def _parse_eps_list(text):
    """Comma-separated eps values, or a dyadic range like '2^-3..2^-8'."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..")
        a = int(lo.replace("2^-", ""))
        b = int(hi.replace("2^-", ""))
        return tuple(2.0 ** -k for k in range(min(a, b), max(a, b) + 1))
    return tuple(float(tok) for tok in text.split(",") if tok)


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


def _build_config(args):
    opts = vars(args)
    overrides = {}
    if opts.get("model"):
        overrides["models"] = tuple(opts["model"])
    if args.potential:
        overrides["potential"] = args.potential
    if opts.get("eps_list"):
        overrides["eps_list"] = opts["eps_list"]
    if opts.get("interp"):
        overrides["interp"] = opts["interp"]
    if opts.get("eps_min") is not None:
        overrides["eps_min_fit"] = opts["eps_min"]
    if args.out:
        overrides["out_dir"] = args.out
    return load_config(args.config, overrides)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="chain-elastica")
    sub = parser.add_subparsers(dest="command", required=True)
    cmd = {name: sub.add_parser(name)
           for name in ("solve", "sweep", "stability", "consistency")}
    for p in cmd.values():
        p.add_argument("--config", default=None)
        p.add_argument("--potential", choices=["harmonic", "lj", "morse"])
        p.add_argument("--out")
    for name in ("solve", "sweep", "consistency"):
        cmd[name].add_argument("--model", action="append", choices=MODEL_KEYS)
    for name in ("solve", "sweep"):
        cmd[name].add_argument("--interp", choices=["pi", "cubic", "quartic"])
    cmd["sweep"].add_argument("--eps-list", dest="eps_list",
                              type=_eps_arg(_parse_eps_list))
    cmd["sweep"].add_argument("--eps-min", dest="eps_min", type=float,
                              help="exclude eps below this from slope fits")
    cmd["solve"].add_argument("--eps", type=_eps_arg(float),
                              default=2.0 ** -3)
    args = parser.parse_args(argv)
    cfg = _build_config(args)
    os.makedirs(cfg.out_dir, exist_ok=True)

    if args.command == "sweep":
        records, fits = run_sweep(cfg)
        write_records_csv(os.path.join(cfg.out_dir, "records.csv"), records)
        write_fits_json(os.path.join(cfg.out_dir, "fit.json"), fits)
        write_fits_json(os.path.join(cfg.out_dir, "fit_energy.json"),
                        energy_fits(cfg, records))
        for f in fits:
            flag = "  [flagged: r2 < 0.99]" if f.flagged else ""
            print(f"{f.model}: grad-error slope {f.slope:.3f} "
                  f"(r2 = {f.r2:.5f}, {f.points} points){flag}")
        for model, cells, reason in unfitted_models(cfg, records):
            print(f"{model}: not fitted, {cells} certified cells in the fit "
                  f"window (need 3)" + (f": {reason}" if reason else ""))
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
        path = os.path.join(cfg.out_dir, "stability_symbols.csv")
        with open(path, "w") as fh:
            fh.write("x,phi_a,phi_cb,phi_hoc_taylor,phi_hoc_direct\n")
            for row in table:
                fh.write(",".join(_fmt(float(v)) for v in row) + "\n")
        summary = {
            "band": list(report.band),
            "lambda_a": report.lambda_a,
            "lambda_a_per_N": {str(k): v for k, v in
                               report.lambda_a_per_N.items()},
            "lambda_cb": report.lambda_cb,
            "lambda_hoc_taylor": report.lambda_hoc_taylor,
            "lambda_hoc_direct": report.lambda_hoc_direct,
            "ordering_holds": report.ordering_holds,
            "max_ordering_violation": report.max_ordering_violation,
            "perturbation_kappa_bound": report.perturbation_kappa_bound,
            "negative_modes_ill2": {str(k): v for k, v in modes.items()},
        }
        with open(os.path.join(cfg.out_dir, "stability.json"), "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"ordering holds on band {report.band}: {report.ordering_holds}")
        return 0

    if args.command == "consistency":
        rows, fits = (run_consistency(cfg, models=tuple(args.model))
                      if args.model else run_consistency(cfg))
        path = os.path.join(cfg.out_dir, "consistency.csv")
        with open(path, "w") as fh:
            fh.write("model,N,max_R,l2_R\n")
            for row in rows:
                fh.write(f"{row['model']},{row['N']},{_fmt(row['max_R'])},"
                         f"{_fmt(row['l2_R'])}\n")
        write_fits_json(os.path.join(cfg.out_dir, "consistency_fit.json"),
                        list(fits.values()))
        for key, f in fits.items():
            print(f"{key}: consistency order {f.slope:.3f} (r2 = {f.r2:.5f})")
        return 0

    return 1


if __name__ == "__main__":
    sys.exit(main())
