"""The demos run to completion against the current API.

The curve_* demos write to a relative out/, so they run in a scratch
directory, and the curves they write must match the committed out/*/curve.csv.
"""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_demo(demo, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def read_curve(path):
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    return ([(r["xi"], r["converged"]) for r in rows], [float(r["mu"]) for r in rows])


@pytest.mark.parametrize("demo", ["asymptotics_and_oracle.py", "cubic_and_resonant_shapes.py"])
def test_demo_runs(demo):
    run_demo(demo, ROOT)


@pytest.mark.parametrize("demo, name", [
    ("curve_oscillatory.py", "oscillatory-p512"),
    ("curve_resonance_k7.py", "resonance-k7"),
    ("curve_global_minimum.py", "amann-hess-type"),
])
def test_curve_demo_reproduces_committed_curve(tmp_path, demo, name):
    run_demo(demo, tmp_path)
    nodes, mu = read_curve(tmp_path / "out" / name / "curve.csv")
    nodes0, mu0 = read_curve(ROOT / "out" / name / "curve.csv")
    assert nodes == nodes0
    assert max(abs(a - b) for a, b in zip(mu, mu0)) <= 1e-10
