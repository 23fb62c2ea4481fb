"""Record the config-batch reference curves at the current commit.

    python3 bench/record_reference.py

Run from the repository root.  Runs every config of the first ROUNDS rounds
of the default seed through `hc run`, one at a time, and writes
bench/reference/config_batch.json: per config text (keyed by its SHA-256),
the node xi values and mu at converged nodes (null at gaps).  The
well-behaved configs are the same for every seed, so their curves check every
seed; the retry configs are checked on the default seed.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(Path.cwd() / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402

ROUNDS = 8


def main():
    seed = run.parse_args(["--workload", "config-batch"]).seed
    reference = {}
    with tempfile.TemporaryDirectory(dir=run.work_root(Path.cwd())) as tmp:
        wl = workloads.ConfigBatch(seed, Path(tmp))
        for r in range(ROUNDS):
            out = Path(tmp) / "out"
            for cfg in wl.configs(r):
                code = workloads.run_cli(["run", str(cfg), "--out", str(out / cfg.stem)])
                if code not in (0, 3):
                    sys.exit(f"{cfg}: hc run exited {code}")
                rows = workloads.read_curve_csv(out / cfg.stem / "curve.csv")
                text = cfg.read_text()
                reference[hashlib.sha256(text.encode()).hexdigest()] = {
                    "config": text,
                    "xi": [row.xi for row in rows],
                    "mu": [row.mu if row.converged else None for row in rows],
                }
    path = BENCH / "reference" / "config_batch.json"
    # one curve per line
    path.write_text("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                                        for k, v in reference.items()) + "\n}\n")
    print(f"wrote {len(reference)} curves to {path}")


if __name__ == "__main__":
    main()
