"""Self-test of the benchmark: a reduced-size run of every workload, untraced
and traced, prints every metric that BENCHMARK.json names with its unit, and
fails no operation."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--reduced"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_reduced_run(workload, trace, kind):
    lines = run(workload, trace)
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert any(line.startswith("ops_failed_ratio 0 (0 of ")
               for line in lines), lines
    names = [m["name"] for m in SPEC[kind]]
    assert sorted(result["metrics"]) == sorted(names)
    for m in SPEC[kind]:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float))
        assert any(line.startswith(f"{m['name']} ") and
                   line.endswith(f" {m['unit']}") for line in lines[:-1])
