"""Demos that write nothing run to completion against the current API.

The curve_* demos are left out: they rewrite the committed out/*/curve.csv.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["asymptotics_and_oracle.py", "cubic_and_resonant_shapes.py"])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
