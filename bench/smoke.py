"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Run from the repository root; it takes about three minutes on 2 cores.  It
makes one short untraced and one short traced run of every workload (the
ones BENCHMARK.json gates and `oracle`, which is run by hand) and
asserts that each run passes its checks and prints every metric that
BENCHMARK.json names, with its unit, both in the summary and in the JSON
result line.  It asserts the shape of the traces, and that an output with one
mu shifted by 1e-6 fails the correctness check of every workload and makes a
whole run fail.
"""

import contextlib
import dataclasses
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SHIFT = 1e-6


def short_run(workload: str, trace: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n" \
                                 f"{proc.stdout}\n{proc.stderr}"
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(workload: str, trace: int) -> dict:
    stdout, result = short_run(workload, trace)
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1, result
    spec = SPEC["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in spec}, (workload, trace, set(metrics))
    summary = stdout.splitlines()[:-1]
    for m in spec:
        assert metrics[m["name"]]["unit"] == m["unit"], (workload, m)
        assert isinstance(metrics[m["name"]]["value"], (int, float)), (workload, m)
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line.split()
                   for line in summary), f"{workload}: {m['name']} not in the summary"
    return {k: v["value"] for k, v in metrics.items()}


def check_trace_shape(workload: str, m: dict):
    if workload == "config-batch":
        assert m["expressions.eval_calls"] > 0, m
        assert m["continuation.bridge_solves"] > 0, m
        assert m["trace.serial_in_process"] == 1, m
    else:
        assert m["expressions.eval_calls"] == 0, m
        assert m["continuation.bridge_solves"] == 0, m
    if workload == "oracle":
        assert m["oracle.rk4_steps"] > 0, m
        assert m["checks.shoot_s"] > 0.5 * m["trace.traced_wall_s"], m
        assert m["checks.shoot_s"] > m["checks.spectral_s"], m
    if workload == "figures":
        assert m["continuation.useful_ratio"] == 1.0, m
        assert m["oracle.shoots"] > 0 and m["oracle.rk4_steps"] > 0, m  # the cross-checks


def shift_one_mu(path: Path):
    """Shift mu of the first converged node of a curve.csv by SHIFT."""
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines[1:], 1):
        cells = line.split(",")
        if cells[-1] == "true":
            cells[1] = repr(float(cells[1]) + SHIFT)
            lines[i] = ",".join(cells)
            break
    path.write_text("\n".join(lines) + "\n")


def check_perturbations(work: Path):
    wl = workloads.Figures(1, work)
    op = wl.ops(0)[0]
    code = op.call()
    assert not op.check(code).errors
    shift_one_mu(work / op.label / "curve.csv")
    assert op.check(code).errors, "figures: shifted mu passed"

    wl = workloads.Oracle(1, work)
    op = next(o for o in wl.ops(1) if o.label.startswith("resonant-bounded"))
    (pt, shot, dmu, sup), fallback = op.call()
    assert not op.check(((pt, shot, dmu, sup), fallback)).errors
    moved = dataclasses.replace(pt, mu=pt.mu + SHIFT)
    assert op.check(((moved, shot, dmu, sup), fallback)).errors, "oracle: shifted mu passed"

    wl = workloads.ConfigBatch(1, work)
    op = next(o for o in wl.ops(0) if o.label == "b_readme")
    code = op.call()
    assert not op.check(code).errors
    shift_one_mu(work / "out" / "r0" / "b_readme" / "curve.csv")
    assert op.check(code).errors, "config-batch: shifted mu passed"


def check_failing_run():
    """A whole run whose outputs read back with one mu shifted exits 1."""
    read = workloads.read_curve_csv

    def shifted(path):
        rows = read(path)
        if workloads.REFERENCE in Path(path).resolve().parents:
            return rows
        return [dataclasses.replace(rows[0], mu=rows[0].mu + SHIFT), *rows[1:]]

    workloads.read_curve_csv = shifted
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "figures", "--seed", "1", "--seconds", "0"])
    finally:
        workloads.read_curve_csv = read
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert code == 1 and result["correct"] is False and result["failed"] > 0, result


def main():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        check_metrics(name, 0)
        check_trace_shape(name, check_metrics(name, 1))
        print(f"ok: {name} prints every metric; trace shape as expected")
    with tempfile.TemporaryDirectory(dir=run.work_root(ROOT)) as tmp:
        check_perturbations(Path(tmp))
    print("ok: a mu shifted by 1e-6 fails each workload's check")
    check_failing_run()
    print("ok: a run with a shifted output exits 1 with correct = false")


if __name__ == "__main__":
    main()
