"""harmcont benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 bench/run.py --workload figures|oracle|config-batch \
        --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the program from ./src and
writes scratch output under ./.bench_work.  Every workload is a closed loop
with one caller: the next operation starts when the previous one returns.
Rounds of the workload's inputs are repeated, in whole cycles, until S
seconds have passed.  The gated times are means over the whole run: the
shared host's speed drifts from one stretch of seconds to the next, and only
a long run averages that out.

--trace 0 measures the end-to-end metrics with no instrumentation (the oracle
workload counts fallback shots with one call wrapper per shot).  --trace 1
runs each round untraced and then again with the tracer installed, and
reports per-layer metrics and the tracing overhead.  BENCHMARK.json lists the
workloads the benchmark gates; `oracle` can be run by hand.
Every operation's outputs are checked; a failed check makes the run exit 1.
The last line of stdout is the JSON result.  See bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 9
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "GOTO_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["figures", "oracle", "config-batch"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def import_program(root: Path):
    """Import harmcont from root/src; exit 2 when it is not there."""
    src = root / "src"
    if not (src / "harmcont" / "__init__.py").is_file():
        sys.exit(f"error: {src}/harmcont not found; run from the repository root")
    sys.path[:0] = [str(src), str(BENCH)]
    import harmcont
    if Path(harmcont.__file__).resolve().parent != (src / "harmcont").resolve():
        sys.exit(f"error: imported harmcont from {harmcont.__file__}, not from {src}")


def work_root(root: Path) -> Path:
    """Scratch directory for program outputs and span files, inside root."""
    path = root / ".bench_work"
    path.mkdir(exist_ok=True)
    return path


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root: Path, args) -> dict:
    """What the numbers depend on, recorded as found; nothing is changed."""
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclass
class Pass:
    op_s: list[float] = field(default_factory=list)
    op_points: list[int] = field(default_factory=list)
    round_s: list[float] = field(default_factory=list)
    attempted: int = 0
    solved: int = 0
    ops_failed: int = 0
    cpu_s: float = 0.0
    errors: list[str] = field(default_factory=list)

    @property
    def busy_s(self) -> float:
        return sum(self.op_s)


def run_round(wl, r: int, acc: Pass, tracer=None, **mode):
    """Run round r of the workload's operations, adding to acc."""
    from workloads import Outcome
    round_s = 0.0
    for op in wl.ops(r, **mode):
        if tracer is not None:
            tracer.op_id += 1
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            raw = op.call()
        except Exception as exc:  # a crash in the program is a failed operation
            raw, crash = None, f"{op.label}: raised {exc!r}"
        else:
            crash = None
        dt = time.perf_counter() - t0
        acc.cpu_s += _cpu_s() - cpu0
        out = Outcome(0, 0, 0, [crash]) if crash else op.check(raw)
        acc.op_s.append(dt)
        acc.op_points.append(out.points)
        round_s += dt
        acc.attempted += out.attempted
        acc.solved += out.solved
        acc.ops_failed += bool(out.errors)
        acc.errors += out.errors
    acc.round_s.append(round_s)


def rounds_for(seconds: float, cycle: int):
    """Round indices 0, 1, ... in whole cycles until `seconds` have passed."""
    start = time.perf_counter()
    r = 0
    while r == 0 or r % cycle or time.perf_counter() - start < seconds:
        yield r
        r += 1


def peak_rss_mb() -> float:
    """Own peak plus the largest peak of the children waited for so far."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def measure_setup(root: Path, args, work: Path) -> list[float]:
    """Cold set-up times, each in a fresh interpreter run one after another."""
    samples = []
    for i in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), args.workload, str(args.seed),
             str(work / f"setup{i}")],
            cwd=root, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def tail(values: list[float]):
    """Highest nearest-rank percentile with at least 10 samples above it."""
    n = len(values)
    if n < 11:
        return None
    return sorted(values)[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(wl, res: Pass, peak_mb: float, setup: list[float]) -> tuple[dict, list[str]]:
    """The metrics BENCHMARK.json gates, and the summary lines.

    The run covers whole cycles of rounds, so its mean round time weighs
    every input stratum equally.
    """
    fail_frac = 1.0 - res.solved / res.attempted if res.attempted else 1.0
    metrics = {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} cold starts"),
        "wall_s": (statistics.fmean(res.round_s), "s",
                   f"mean of {len(res.round_s)} rounds"),
        "points_per_s": (sum(res.op_points) / res.busy_s, "1/s",
                         f"{sum(res.op_points)} {wl.POINTS} in {res.busy_s:.2f} s"),
        "peak_rss_mb": (peak_mb, "MB", "own peak + largest child peak"),
        "solved_frac": (1.0 - fail_frac, "ratio",
                        f"{res.solved} of {res.attempted}; fail_frac = {fail_frac:.4f}"),
    }
    lines = [f"  {k:<14} {v:<12.6g} {u:<6} ({note})" for k, (v, u, note) in metrics.items()]
    lines.append(f"  {'op_p50_s':<14} {statistics.median(res.op_s):<12.6g} s      "
                 f"(median of {len(res.op_s)} operations; not gated)")
    t = tail(res.op_s)
    lines.append(f"  {'op_tail_s':<14} " + (
        f"{t[0]:<12.6g} s      (p{t[1]:.0f} of {t[2]} operations)" if t else
        f"omitted: {len(res.op_s)} operations, fewer than 11"))
    if wl.name == "oracle":
        lines.append(f"  {'checks_per_s':<14} {metrics['points_per_s'][0]:<12.6g} 1/s    "
                     "(= points_per_s on this workload)")
    lines.append(f"  {'cpu_s':<14} {res.cpu_s:<12.6g} s      "
                 f"(process + children; {res.cpu_s / res.busy_s:.3f} per wall second)")
    return {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}, lines


def per_layer(wl, work: Path, args) -> tuple[dict, list[str], list[Pass]]:
    """Per-layer metrics from traced rounds, and the tracing overhead.

    Each round runs untraced and then traced; the overhead is traced minus
    untraced time over the same rounds.  A workload whose pool rounds differ
    from its serial ones (config-batch, POOL_JOBS workers) runs its first
    round a third time, untraced with the pool, for the cli.* metrics; one
    such round can take 40 s.  Rounds need not come in whole cycles here:
    per-layer numbers are not compared across runs.
    """
    from tracing import Tracer
    plain, traced = Pass(), Pass()
    base = Pass() if wl.serial_differs else plain
    tracer = Tracer()
    for r in rounds_for(args.seconds, 1):
        if r == 0 or not wl.serial_differs:
            run_round(wl, r, plain, jobs=wl.POOL_JOBS, per_layer=True)
        if wl.serial_differs:
            run_round(wl, r, base, per_layer=True)
        tracer.install()
        try:
            run_round(wl, r, traced, tracer=tracer, per_layer=True)
        finally:
            tracer.uninstall()
    passes = [plain, base, traced] if wl.serial_differs else [plain, traced]
    spans_path = work.parent / f"spans-{args.workload}-s{args.seed}.jsonl"
    tracer.write_spans(spans_path)
    overhead = traced.busy_s - base.busy_s
    metrics = tracer.metrics()
    metrics.update({
        "cli.cpu_s": (plain.cpu_s, "s"),
        "cli.cpu_per_wall": (plain.cpu_s / plain.busy_s, "ratio"),
        "cli.pool_wall_s": (statistics.median(plain.round_s), "s"),
        "trace.untraced_wall_s": (base.busy_s, "s"),
        "trace.traced_wall_s": (traced.busy_s, "s"),
        "trace.overhead_s": (overhead, "s"),
        "trace.overhead_frac": (overhead / base.busy_s, "ratio"),
        "trace.serial_in_process": (int(wl.serial_differs), "count"),
    })
    lines = [f"  {k:<34} {v:<14.6g} {u}" for k, (v, u) in metrics.items()]
    lines.append(f"  {len(traced.round_s)} rounds; spans in .bench_work/{spans_path.name}; "
                 "cli.cpu_* from the untraced "
                 + ("pool round" if wl.serial_differs else "rounds")
                 + ("; traced rounds ran each config serially in-process"
                    if wl.serial_differs else ""))
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines, passes


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    root = Path.cwd()
    import_program(root)
    import workloads

    env = environment(root, args)
    print("env " + json.dumps(env, sort_keys=True))
    work = work_root(root) / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        wl = workloads.make(args.workload, args.seed, work)
        wl.warm_up()
        if args.trace:
            metrics, lines, passes = per_layer(wl, work, args)
        else:
            res = Pass()
            for r in rounds_for(args.seconds, wl.CYCLE):
                run_round(wl, r, res)
            peak_mb = peak_rss_mb()  # before the set-up probes add children
            metrics, lines = end_to_end(wl, res, peak_mb, measure_setup(root, args, work))
            passes = [res]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = sum(len(p.op_s) for p in passes)
    failed = sum(p.ops_failed for p in passes)
    errors = [e for p in passes for e in p.errors]
    print(f"workload {args.workload}, seed {args.seed}: {ops} operations, "
          f"{failed} with failed checks")
    print("\n".join(lines))
    for err in errors[:20]:
        print(f"CHECK FAILED: {err}")
    print(json.dumps({"correct": not errors, "attempted": ops, "failed": failed,
                      "metrics": metrics}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
