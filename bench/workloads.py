"""The benchmark's three workloads: operations on harmcont and their output checks.

An operation is one call into a public entry point of the program: one
`hc run` through `harmcont.cli.main` (figures, config-batch) or one
`harmcont.checks.oracle_pair` cross-check (oracle).  Entry points are looked
up at call time, so the tracer's wrappers apply when it is installed.  A round
is one pass over a workload's inputs; the runner repeats whole cycles of
CYCLE rounds, so that every run covers each input stratum equally.

`ops(round, jobs=None, per_layer=False)` gives a round's operations: `jobs`
is the process-pool size of the per-layer run's untraced rounds (POOL_JOBS,
None when the workload has no pool), and `per_layer` marks rounds of the
per-layer run.  Each workload class also names what `points_per_s` counts
(POINTS) and whether its pool rounds run differently from its serial ones
(serial_differs).
"""

from __future__ import annotations

import configparser
import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
from harmcont import checks, cli, oracle, problems, solver

REFERENCE = Path(__file__).resolve().parent / "reference"
MU_TOL = 1e-8        # |dmu| against reference curves
ASYMPTOTE_TOL = 1e-12  # relative, against the reference asymptote.csv
ORACLE_DMU_TOL = 1e-8  # the oracle suite's bounds (checks.oracle_suite)
ORACLE_SUP_TOL = 1e-6


@dataclass
class Outcome:
    attempted: int  # curve nodes requested, or oracle points
    solved: int     # converged nodes, or points checked without the fallback
    points: int     # what points_per_s counts: converged nodes, or points checked
    errors: list[str] = field(default_factory=list)


@dataclass
class Op:
    label: str
    call: Callable[[], object]          # the timed program call
    check: Callable[[object], Outcome]  # verifies its outputs, untimed


@dataclass(frozen=True)
class Row:
    xi: float
    mu: float
    residual_norm: float
    converged: bool


def read_curve_csv(path: Path) -> list[Row]:
    rows = []
    for line in Path(path).read_text().splitlines()[1:]:
        xi, mu, res, _, _, conv = line.split(",")
        rows.append(Row(float(xi), float(mu), float(res), conv == "true"))
    return rows


def run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def compare_curves(label: str, rows: list[Row], ref: list[Row], same_flags: bool) -> list[str]:
    """Errors where rows and ref differ on a node both converged on.

    With same_flags the node sets and converged flags must also agree;
    otherwise nodes converged only here are allowed.
    """
    if [r.xi for r in rows] != [r.xi for r in ref]:
        return [f"{label}: node set differs from the reference"]
    errors = []
    for r, q in zip(rows, ref):
        if same_flags and r.converged != q.converged:
            errors.append(f"{label}: xi={r.xi!r} converged={r.converged}, reference {q.converged}")
        elif r.converged and q.converged and not abs(r.mu - q.mu) <= MU_TOL:
            errors.append(f"{label}: xi={r.xi!r} mu={r.mu!r}, reference {q.mu!r}")
    return errors[:5]


class Figures:
    """The three README figure curves, run as users make them.

    Rounds of the per-layer run end with one `checks.oracle_pair` cross-check
    of one of the figure problems (problem r % 3 in round r, at the oracle
    workload's seeded xi), so the oracle and checks layers are traced on this
    workload too.  Timed rounds do not run it.
    """

    name = "figures"
    POINTS = "converged nodes"
    CYCLE = 1
    POOL_JOBS = None
    serial_differs = False
    # name -> (README flags, first node, modes)
    CURVES = {
        "oscillatory-p512": (["--xi-min", "5", "--xi-max", "60", "--step", "0.1"], 5.0, 64),
        "resonance-k7": (["--xi-min", "10", "--xi-max", "60", "--step", "0.1",
                          "--modes", "128"], 10.0, 128),
        "amann-hess-type": (["--xi-min", "-40", "--xi-max", "40", "--step", "0.1",
                             "--mu-star", "0"], -40.0, 64),
    }

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.oracle = None  # made by the first per-layer round

    def warm_up(self):
        for name, (_, xi0, modes) in self.CURVES.items():
            solver.solve_at_signature(problems.catalog(name), xi0, n_modes=modes)

    def ops(self, round_index: int, jobs: int | None = None, per_layer: bool = False) -> list[Op]:
        order = np.random.default_rng([self.seed, 2, round_index]).permutation(list(self.CURVES))
        ops = [self._op(str(name)) for name in order]
        if per_layer:
            ops.append(self._cross_check(round_index))
        return ops

    def _op(self, name: str) -> Op:
        out = self.work / name
        argv = ["run", name, *self.CURVES[name][0], "--out", str(out)]
        return Op(name, lambda: run_cli(argv), lambda code: self._check(name, out, code))

    def _cross_check(self, round_index: int) -> Op:
        if self.oracle is None:
            self.oracle = Oracle(self.seed, self.work)
        name = list(self.CURVES)[round_index % len(self.CURVES)]
        xi = dict(inputs.oracle_points(self.seed, self.oracle.names, round_index))[name]
        return self.oracle.op(name, problems.catalog(name), xi)

    def _check(self, name: str, out: Path, code) -> Outcome:
        ref = read_curve_csv(REFERENCE / "figures" / name / "curve.csv")
        rows = read_curve_csv(out / "curve.csv")
        solved = sum(r.converged for r in rows)
        errors = [] if code == 0 else [f"{name}: hc run exited {code}"]
        errors += compare_curves(name, rows, ref, same_flags=True)
        ref_asym = REFERENCE / "figures" / name / "asymptote.csv"
        if ref_asym.exists():
            errors += _compare_asymptote(name, out / "asymptote.csv", ref_asym)
        return Outcome(len(ref), solved, solved, errors)


def _compare_asymptote(name: str, path: Path, ref_path: Path) -> list[str]:
    def load(p):
        return np.loadtxt(p, delimiter=",", skiprows=1, ndmin=2)

    got, ref = load(path), load(ref_path)
    if got.shape != ref.shape or not np.array_equal(got[:, 0], ref[:, 0]):
        return [f"{name}: asymptote.csv nodes differ from the reference"]
    bad = np.abs(got[:, 1] - ref[:, 1]) > ASYMPTOTE_TOL * np.maximum(1.0, np.abs(ref[:, 1]))
    return [f"{name}: asymptote.csv differs at {int(bad.sum())} nodes"] if bad.any() else []


class Oracle:
    """`hc verify oracle`'s cross-check at seeded xi over the whole catalog."""

    name = "oracle"
    POINTS = "oracle points checked"
    CYCLE = inputs.ORACLE_CYCLE
    POOL_JOBS = None
    serial_differs = False

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.names = list(checks.ORACLE_MODES)
        # Counts shots re-seeded from the spectral answer: oracle_pair passes
        # s0 only on that fallback, and does not report it in its result.
        self.fallbacks = 0
        shoot = oracle.shoot

        def counting_shoot(*args, **kwargs):
            if kwargs.get("s0") is not None:
                self.fallbacks += 1
            return shoot(*args, **kwargs)

        oracle.shoot = counting_shoot

    def warm_up(self):
        for name in self.names:
            solver.solve_at_signature(problems.catalog(name), 0.0,
                                      n_modes=checks.ORACLE_MODES[name])

    @staticmethod
    def n_steps(name: str, p) -> int:
        # the step counts checks.oracle_suite uses
        return 10_000 if (p.k > 1 or name.startswith("cubic")) else 6_000

    def ops(self, round_index: int, jobs: int | None = None, per_layer: bool = False) -> list[Op]:
        # problems are built per round, so a round under the tracer gets
        # the traced g functions
        return [self.op(name, problems.catalog(name), xi)
                for name, xi in inputs.oracle_points(self.seed, self.names, round_index)]

    def op(self, name: str, p, xi: float) -> Op:
        n_modes, n_steps = checks.ORACLE_MODES[name], self.n_steps(name, p)
        label = f"{name} xi={xi!r}"

        def call():
            before = self.fallbacks
            result = checks.oracle_pair(p, xi, n_modes, n_steps)
            return result, self.fallbacks > before

        return Op(label, call, lambda raw: self.check(label, *raw))

    @staticmethod
    def check(label: str, result, fallback: bool) -> Outcome:
        pt, shot, _, sup = result
        dmu = abs(pt.mu - shot.mu)  # from the returned answers, not the reported gap
        errors = []
        if not (pt.converged and shot.converged):
            errors.append(f"{label}: not converged (spectral {pt.converged}, "
                          f"shooting {shot.converged})")
        if not dmu < ORACLE_DMU_TOL:
            errors.append(f"{label}: |dmu| = {dmu:.3e}")
        if not sup < ORACLE_SUP_TOL:
            errors.append(f"{label}: sup error = {sup:.3e}")
        return Outcome(1, int(not errors and not fallback), 1, errors)


class ConfigBatch:
    """A seeded directory of .cfg problems, each run by `hc run <cfg>`.

    Timed rounds run the configs one at a time in-process, one operation
    each.  `hc run <dir> --jobs 2` (2 = nproc) took 10 to 41 s a round over
    five seeds, too unsteady to gate on; the per-layer run's untraced rounds
    run it (J = POOL_JOBS), so its cli.cpu_* and cli.pool_wall_s show that
    pool.  Its traced rounds run serially, since the pool's workers are other
    processes whose spans the tracer cannot see.
    """

    name = "config-batch"
    POINTS = "converged nodes"
    CYCLE = 1
    POOL_JOBS = 2
    serial_differs = True

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.reference = json.loads((REFERENCE / "config_batch.json").read_text())

    def configs(self, round_index: int) -> list[Path]:
        return inputs.write_configs(self.seed, round_index,
                                    self.work / "configs" / f"r{round_index}")

    def warm_up(self):
        for path in self.configs(0):
            spec, settings = problems.load_config(path)
            solver.solve_at_signature(spec, settings.xi_min, n_modes=settings.modes)

    def ops(self, round_index: int, jobs: int | None = None, per_layer: bool = False) -> list[Op]:
        cfgs = self.configs(round_index)
        out = self.work / "out" / f"r{round_index}"
        if jobs is None:
            return [Op(c.stem,
                       lambda c=c: run_cli(["run", str(c), "--out", str(out / c.stem)]),
                       lambda code, c=c: self._check([c], out, code))
                    for c in cfgs]
        argv = ["run", str(cfgs[0].parent), "--jobs", str(jobs), "--out", str(out)]
        return [Op(f"round {round_index}", lambda: run_cli(argv),
                   lambda code: self._check(cfgs, out, code))]

    def _check(self, cfgs: list[Path], out: Path, code) -> Outcome:
        total = solved = 0
        errors = []
        expected_code = cli.EXIT_OK
        for cfg in cfgs:
            rows = read_curve_csv(out / cfg.stem / "curve.csv")
            text = cfg.read_text()
            tol = _newton_tol(text)
            label = f"{cfg.parent.name}/{cfg.name}"
            errors += [f"{label}: xi={r.xi!r} residual {r.residual_norm:.3e} >= {tol:g}"
                       for r in rows if r.converged and not r.residual_norm < tol][:5]
            ref = self.reference.get(hashlib.sha256(text.encode()).hexdigest())
            if ref is not None:
                ref_rows = [Row(x, np.nan if m is None else m, 0.0, m is not None)
                            for x, m in zip(ref["xi"], ref["mu"])]
                errors += compare_curves(label, rows, ref_rows, same_flags=False)
            gaps = sum(not r.converged for r in rows)
            if gaps > cli.GAP_FRACTION_LIMIT * len(rows):
                expected_code = cli.EXIT_GAPS
            total += len(rows)
            solved += len(rows) - gaps
        if code != expected_code:
            errors.append(f"hc run exited {code}, expected {expected_code}")
        return Outcome(total, solved, solved, errors)


def _newton_tol(text: str) -> float:
    cp = configparser.ConfigParser()
    cp.read_string(text)
    return float(cp.get("run", "newton_tol", fallback="1e-10"))


WORKLOADS = {w.name: w for w in (Figures, Oracle, ConfigBatch)}


def make(name: str, seed: int, work: Path):
    return WORKLOADS[name](seed, work)
