"""Command line front end:

    chain-elastica sweep [common] [--model ...] [--interp {pi|cubic|quartic}]
        [--eps-list ...] [--eps-min <eps>]
    chain-elastica solve [common] [--model ...] [--interp {pi|cubic|quartic}]
        [--eps <eps>]
    chain-elastica consistency [common] [--model ...]
    chain-elastica stability [common]

    common: [--config <path>] [--potential {harmonic|lj|morse}] [--out <dir>]

A flag is spelled out in full, no prefix of it, and takes its value as
`--flag value` or `--flag=value`; `--model` may be repeated. `-h` or
`--help` prints this text. Each command accepts only the flags it reads.
Any other, a flag without a value, or a bad value or config file exits with
status 2 and one stderr line, `chain-elastica <command>: error: <message>`.
`solve`, and `sweep --interp pi`, need eps <= 1/4: the Hermite interpolant's
stencils take 7 sites. Each command parses, runs and prints; `harness`
writes every output file.
"""

import os
import sys

from .harness import (CONSISTENCY_MODELS, fit_models, load_config,
                      run_consistency, run_stability, run_sweep, solve_cell,
                      unfitted_consistency, unfitted_models,
                      write_consistency, write_fits_json, write_records_csv,
                      write_solution_csvs, write_stability, _eps_to_N,
                      _KEY_CHOICES)
from .optimize import DomainError
from .splines import STENCIL_MIN_N


def _parse_eps_list(text):
    """Comma-separated eps values, or a dyadic range like '2^-3..2^-8';
    ValueError unless each is the reciprocal of an integer."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..")
        a = int(lo.replace("2^-", ""))
        b = int(hi.replace("2^-", ""))
        values = tuple(2.0 ** -k for k in range(min(a, b), max(a, b) + 1))
    else:
        values = tuple(float(tok) for tok in text.split(",") if tok)
    if not values:
        raise ValueError("no eps values")
    for eps in values:
        _eps_to_N(eps)
    return values


def _parse_eps(text):
    eps = float(text)
    _eps_to_N(eps)
    return eps


# flag -> (destination, converter); a destination in `_KEY_CHOICES` takes
# only the values `load_config` accepts for it
_FLAGS = {"--config": ("config", str), "--potential": ("potential", str),
          "--out": ("out_dir", str), "--model": ("models", str),
          "--interp": ("interp", str), "--eps-min": ("eps_min_fit", float),
          "--eps-list": ("eps_list", _parse_eps_list),
          "--eps": ("eps", _parse_eps)}
_COMMON = ("--config", "--potential", "--out")
_COMMAND_FLAGS = {
    "sweep": _COMMON + ("--model", "--interp", "--eps-list", "--eps-min"),
    "solve": _COMMON + ("--model", "--interp", "--eps"),
    "consistency": _COMMON + ("--model",), "stability": _COMMON}


def _fail(command, message):
    """Every rejection: one stderr line, then exit with status 2."""
    prog = f"chain-elastica {command}" if command else "chain-elastica"
    print(f"{prog}: error: {message}", file=sys.stderr)
    sys.exit(2)


def _parse(argv):
    """(command, {destination: value}) for the flags given: `--model`
    values collect into a tuple, any other repeated flag keeps its last."""
    if not argv or argv[0] not in _COMMAND_FLAGS:
        _fail(None, (f"invalid command {argv[0]!r}" if argv else "no command")
              + f" (choose from {', '.join(_COMMAND_FLAGS)})")
    command, tokens, values = argv[0], iter(argv[1:]), {}
    for token in tokens:
        flag, eq, text = token.partition("=")
        if flag not in _COMMAND_FLAGS[command]:
            _fail(command, f"unrecognized argument {flag!r} ({command} takes "
                           f"{', '.join(_COMMAND_FLAGS[command])})")
        if not eq:
            text = next(tokens, None)
            if text is None or text.startswith("--"):
                _fail(command, f"argument {flag}: expected one argument")
        dest, convert = _FLAGS[flag]
        try:
            value = convert(text)
        except ValueError as err:
            _fail(command, f"argument {flag}: {text!r}: {err}")
        choices = _KEY_CHOICES.get(dest)
        if choices and value not in choices:
            _fail(command, f"argument {flag}: invalid choice: {value!r} "
                           f"(choose from {', '.join(map(repr, choices))})")
        values[dest] = (values.get(dest, ()) + (value,) if dest == "models"
                        else value)
    return command, values


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(__doc__, end="")
        return 0
    command, values = _parse(argv)
    eps, path = values.pop("eps", 2.0 ** -3), values.pop("config", None)
    try:  # the file, overridden by every flag given
        cfg = load_config(path, values, {"models": CONSISTENCY_MODELS}
                          if command == "consistency" else None)
    except OSError as err:
        _fail(command, f"--config {path}: {err.strerror}")
    except ValueError as err:
        _fail(command, f"--config {path}: {err}" if path else str(err))
    if not cfg.out_dir:
        _fail(command, "empty output directory (--out or out_dir)")
    if command == "solve" or command == "sweep" and cfg.interp == "pi":
        # the Hermite interpolant's stencils take 7 sites: eps <= 1/4
        user = ("--interp pi" if command == "sweep" else
                "the Hermite interpolant in the solution files")
        for e in cfg.eps_list if command == "sweep" else (eps,):
            if _eps_to_N(e) < STENCIL_MIN_N:
                _fail(command, f"eps = {e!r} is too large: {user} needs "
                               f"eps <= 1/{STENCIL_MIN_N}")
    os.makedirs(cfg.out_dir, exist_ok=True)

    if command == "sweep":
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

    if command == "solve":
        cell = solve_cell(cfg, eps, cfg.models)
        write_solution_csvs(cfg.out_dir, cell)
        for rec in cell.records:
            if rec.reason:
                print(f"{rec.model}: not solved: {rec.reason}")
            else:
                print(f"|grad I u_a - grad u_{rec.model}|_L2 = "
                      f"{cell.distances[rec.model]:.6e}")
        return 0

    if command == "stability":
        report, modes, table = run_stability(cfg)
        write_stability(cfg.out_dir, report, modes, table)
        print(f"ordering holds on band {report.band}: {report.ordering_holds}")
        return 0

    try:  # consistency
        rows, fits = run_consistency(cfg, models=cfg.models)
    except DomainError as err:
        _fail(command, str(err))
    write_consistency(cfg.out_dir, rows, fits)
    for key, f in fits.items():
        print(f"{key}: consistency order {f.slope:.3f} (r2 = {f.r2:.5f})")
    for key, why in unfitted_consistency(rows).items():
        print(f"{key}: not fitted, {why}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
