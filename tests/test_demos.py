"""The demos run to completion against the current API.

They print their narrative and write no files; the committed out/ curves
come from hc run and are pinned by tests/test_cli.py::TestGoldenCurves.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(tmp_path, demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert list(tmp_path.iterdir()) == []
