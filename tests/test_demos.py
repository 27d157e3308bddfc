"""Smoke test: every script in demos/ and the README's library sketch run to
completion."""

import math
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args, cwd):
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    run_python([str(demo)], tmp_path)


def test_readme_library_sketch_prints_a_finite_error(tmp_path):
    readme = (ROOT / "README.md").read_text()
    sketch = re.search(r"## Library sketch\n+```python\n(.*?)```", readme,
                       re.S).group(1)
    out = run_python(["-c", sketch], tmp_path)
    value = re.fullmatch(r"scaled modeling error: (\S+)\n", out).group(1)
    assert math.isfinite(float(value))
