"""Time one cold set-up of a workload in a fresh interpreter.

    python3 bench/setup_probe.py <workload> <seed> <scratch dir>

Run from the repository root.  Prints the seconds from this module's first
line to the end of the workload's warm-up: importing harmcont, loading each
problem of the workload's first round (catalog lookup or config parsing) and
solving one point of each.
"""

import time

_T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path[:0] = [str(Path.cwd() / "src"), str(Path(__file__).resolve().parent)]

import workloads  # noqa: E402

workloads.make(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])).warm_up()
print(time.perf_counter() - _T0)
