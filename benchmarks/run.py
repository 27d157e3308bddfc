"""Refinement-study benchmark for chain_elastica.

    python3 benchmarks/run.py --workload {sweep-lj,sweep-harmonic,diagnostics}
        --seed <n> --seconds <s> --trace {0,1} [--reduced]

Run from a checkout of the repository (it imports the library from `src/`).
Each repetition runs the workload's `chain-elastica` commands through
`chain_elastica.cli.main` in a fresh process (`child.py`), one after the
other: a closed loop with one caller. Repetitions continue while another one
fits in `--seconds`, and the figures are their medians. Untraced runs make
at least three repetitions.

--trace 0 prints the end-to-end metrics: wall_s, setup_s, peak_rss_mb, and
the share of failed operations. --trace 1 alternates untraced and traced
repetitions and prints the per-layer metrics of the traced ones, plus the
tracing overhead; it also asserts that tracing changed no output byte.
--reduced runs small versions of the workloads (N <= 64, one consistency
model) for the self-test.

All three workloads are fixed protocols: `--seed` is recorded but changes
nothing they compute. The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; a run record with the
per-repetition values and the environment goes to `.bench_runs/`.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference"
RUNS = ROOT / ".bench_runs"
MIN_REPS = 3
CHILD_TIMEOUT_S = 150

# BLAS runs single-threaded (at most nproc): on a machine with two shared
# cores a second BLAS thread competes with other work. The count is recorded
# with each run.
BLAS_THREADS = 1

# name -> [(command name, chain-elastica argv)]; each command writes into its
# own directory `<out>/<command name>`, laid out like `reference/<workload>`.
WORKLOADS = {
    "sweep-lj": [
        ("sweep", ["sweep", "--potential", "lj", "--model", "cb",
                   "--model", "hoc4"])],
    "sweep-harmonic": [
        ("sweep", ["sweep", "--potential", "harmonic", "--model", "cb",
                   "--model", "hoc4", "--model", "hoc6"])],
    "diagnostics": [
        ("consistency", ["consistency", "--potential", "harmonic"]),
        ("stability-harmonic", ["stability", "--potential", "harmonic"]),
        ("stability-lj", ["stability", "--potential", "lj"])],
}
REDUCED_ARGS = {"sweep": ["--eps-list", "2^-3..2^-6"],
                "consistency": ["--model", "hoc4"]}
REDUCED_MAX_N = 64
REDUCED_MODELS = ("hoc4",)

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def commands(workload, reduced):
    return [(name, argv + (REDUCED_ARGS.get(argv[0], []) if reduced else []))
            for name, argv in WORKLOADS[workload]]


def check_outputs(workload, out, reduced, errors):
    """{operation: failure reason or None} for one repetition."""
    result = {}
    for name, argv in WORKLOADS[workload]:
        ref, got = REFERENCE / workload / name, out / name
        if argv[0] == "sweep":
            ops = checks.check_sweep(got, ref,
                                     REDUCED_MAX_N if reduced else None)
        elif argv[0] == "consistency":
            ops = checks.check_consistency(got, ref,
                                           REDUCED_MODELS if reduced else None)
        else:
            ops = checks.check_stability(got, ref, argv[2])
        if name in errors:
            ops = {op: f"{name} failed: {errors[name]}" for op in ops}
        result.update(ops)
    return result


def output_digest(out, workload):
    """sha256 of every file the commands wrote, by relative path."""
    digest = {}
    for name, _ in WORKLOADS[workload]:
        for path in sorted((out / name).rglob("*")):
            if path.is_file():
                digest[str(path.relative_to(out))] = hashlib.sha256(
                    path.read_bytes()).hexdigest()
    return digest


def run_child(workload, out, trace, reduced):
    out.mkdir(parents=True)
    spec_path, result_path = out / "spec.json", out / "result.json"
    spec_path.write_text(json.dumps({
        "commands": commands(workload, reduced), "out": str(out),
        "trace": bool(trace), "result": str(result_path)}))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    proc = subprocess.run([sys.executable, str(HERE / "child.py"),
                           str(spec_path)], env=env, cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"workload process failed ({proc.returncode}):\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(result_path.read_text())


def median(rows, key):
    return statistics.median(row[key] for row in rows)


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "chain_elastica").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--reduced", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "chain_elastica" / "cli.py").is_file():
        print(f"no chain_elastica sources under {ROOT / 'src'}; run the "
              "benchmark from a checkout of the repository", file=sys.stderr)
        return 2

    RUNS.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(
        prefix=f"{args.workload}-seed{args.seed}-trace{args.trace}-",
        dir=RUNS))
    kinds = ("untraced", "traced") if args.trace else ("untraced",)
    # The end-to-end medians need several repetitions; per-layer metrics and
    # the reduced self-test do not.
    min_reps = 1 if args.trace or args.reduced else MIN_REPS
    reps, failures = [], {}
    attempted = failed = 0
    digests = []
    start = time.perf_counter()
    try:
        while True:
            pair = {}
            for kind in kinds:
                out = run_dir / f"rep{len(reps)}-{kind}"
                res = run_child(args.workload, out, kind == "traced",
                                args.reduced)
                ops = check_outputs(args.workload, out, args.reduced,
                                    res["errors"])
                attempted += len(ops)
                bad = {" ".join(map(str, op)): why for op, why in ops.items()
                       if why}
                failed += len(bad)
                failures.update(bad)
                digests.append(output_digest(out, args.workload))
                res.update(kind=kind, failed_ops=sorted(bad))
                pair[kind] = res
            reps.append(pair)
            elapsed = time.perf_counter() - start
            if len(reps) >= min_reps and \
                    elapsed * (len(reps) + 1) / len(reps) > args.seconds:
                break
    finally:
        for path in run_dir.glob("rep*/*"):
            if path.is_dir():
                shutil.rmtree(path)

    # Every repetition, traced or not, must write the same bytes.
    deterministic = all(d == digests[0] for d in digests)
    if not deterministic:
        failures["outputs"] = "outputs differ between repetitions" + (
            " (tracing changed a result)" if args.trace else "")

    untraced = [p["untraced"] for p in reps]
    if args.trace:
        traced = [p["traced"] for p in reps]
        metrics = {name: median([r["layers"] for r in traced], name)
                   for name in traced[0]["layers"]}
        metrics["trace.wall_s"] = median(traced, "wall_s")
        metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                       - median(untraced, "wall_s"))
        units = {name: tracing.unit(name) for name in metrics}
    else:
        metrics = {name: median(untraced, name) for name in END_TO_END_UNITS}
        units = END_TO_END_UNITS

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "reduced": args.reduced, "seconds": args.seconds,
        "commit": git_commit(), "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
        "versions": untraced[0]["versions"],
        "commands": commands(args.workload, args.reduced),
        "attempted": attempted, "failed": failed, "failures": failures,
        "deterministic": deterministic, "metrics": metrics,
        "repetitions": [{k: {f: v for f, v in r.items() if f != "versions"}
                         for k, r in p.items()} for p in reps]}
    (run_dir / "record.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}: seed {args.seed}, {len(reps)} "
          f"repetitions, BLAS threads {BLAS_THREADS}, record "
          f"{run_dir.relative_to(ROOT)}/record.json")
    for why in list(failures.items())[:10]:
        print("FAILED", *why, file=sys.stderr)
    print(f"ops_failed_ratio {failed / attempted:.6g} "
          f"({failed} of {attempted} operations failed)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    correct = failed == 0 and deterministic
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
