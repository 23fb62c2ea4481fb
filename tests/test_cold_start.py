"""hc run loads none of scipy.optimize, scipy.integrate and scipy.special.

The check runs in a fresh interpreter: pytest itself imports scipy.integrate
at start-up, for the IntegrationWarning filter in pyproject.toml.
"""

import cmath
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
import harmcont, harmcont.cli
from harmcont import catalog, checks, cli, oracle, stationary_phase

def lazy():
    return sorted(m for m in ("scipy.optimize", "scipy.integrate", "scipy.special")
                  if m in sys.modules)

code = cli.main(["run", "amann-hess-type", "--xi-min", "-2", "--xi-max", "2",
                 "--out", sys.argv[1]])
after_run = lazy()
sp = stationary_phase(lambda x: 1.0, lambda x: x * x, 100.0, -1.0, 1.0)
shot = oracle.shoot(catalog("amann-hess-type"), 1.0)
errs = checks.fresnel_errors()
print(json.dumps({"code": code, "after_run": after_run, "after_calls": lazy(),
                  "sp": [sp.real, sp.imag], "fresnel": list(errs.items()),
                  "shoot_converged": bool(shot.converged)}))
"""


def test_run_skips_optimize_and_integrate(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path / "out")],
                          env=env, cwd=tmp_path, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout.splitlines()[-1])
    assert got["code"] == 0
    assert got["after_run"] == []
    # the first calls import them, and work
    assert got["after_calls"] == ["scipy.integrate", "scipy.optimize", "scipy.special"]
    # the Fresnel integral at lam = 100: e^{i pi/4} sqrt(pi/lam), remainder O(1/lam)
    sp = complex(*got["sp"])
    assert abs(sp - cmath.exp(1j * math.pi / 4) * math.sqrt(math.pi / 100.0)) < 1e-9
    assert [lam for lam, _ in got["fresnel"]] == [100.0, 200.0, 400.0]
    assert all(0.0 < err < 5.0 / lam for lam, err in got["fresnel"])
    assert got["shoot_converged"]
