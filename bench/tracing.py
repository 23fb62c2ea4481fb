"""Per-layer tracing of harmcont from outside the package.

`Tracer.install()` replaces the module attributes through which one harmcont
module calls into another (for example `harmcont.solver.to_grid`, which the
solver resolves at call time) with timing wrappers; `uninstall()` restores the
originals.  Nothing under src/ is modified.

Two kinds of wrapper:

* span: records (id, name, start, end, parent id, operation id) in memory;
  used for calls that may contain other traced calls.
* leaf: a call that contains no traced call and happens too often to keep
  one record per call (g inside the RK4 loop runs 40k times per shot).  Its
  count and time are summed per (name, enclosing span name) instead, and its
  time is charged to the enclosing span as child time.

A span's self time is its duration minus the time covered by its child
spans and leaves.  The layer of a span or leaf is the part of its name
before the first dot.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from types import SimpleNamespace

LAYERS = ("cli", "problems", "expressions", "continuation", "solver", "spectral",
          "asymptotics", "checks", "oracle")

_perf = time.perf_counter


class _Frame:
    __slots__ = ("sid", "name", "start", "child")

    def __init__(self, sid, name, start):
        self.sid, self.name, self.start, self.child = sid, name, start, 0.0


class Tracer:
    def __init__(self):
        self.spans = []  # (sid, name, start, end, parent sid, op id)
        self.stack: list[_Frame] = []
        self.op_id = 0
        self.span_calls = defaultdict(int)        # (name, parent name) -> calls
        self.span_total = defaultdict(float)      # (name, parent name) -> inclusive s
        self.span_self = defaultdict(float)       # name -> self s
        self.leaf = defaultdict(lambda: [0, 0.0])  # (name, parent name) -> [calls, s]
        self.counts = defaultdict(float)           # counters read from results
        self._saved = []
        self._next_sid = 0

    # --- wrappers ---------------------------------------------------------

    def span(self, name, fn, on_result=None):
        tr = self

        def wrapper(*args, **kwargs):
            parent = tr.stack[-1] if tr.stack else None
            frame = _Frame(tr._next_sid, name, _perf())
            tr._next_sid += 1
            tr.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _perf()
                tr.stack.pop()
                dur = end - frame.start
                pname = parent.name if parent else ""
                tr.spans.append((frame.sid, name, frame.start, end,
                                 parent.sid if parent else None, tr.op_id))
                tr.span_calls[name, pname] += 1
                tr.span_total[name, pname] += dur
                tr.span_self[name] += dur - frame.child
                if parent:
                    parent.child += dur
            if on_result is not None:
                on_result(tr.counts, result, args, kwargs)
            return result

        return wrapper

    def leaf_wrapper(self, name, fn):
        stack, leaf = self.stack, self.leaf

        def wrapper(*args, **kwargs):
            t0 = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _perf() - t0
                parent = stack[-1] if stack else None
                rec = leaf[name, parent.name if parent else ""]
                rec[0] += 1
                rec[1] += dt
                if parent:
                    parent.child += dt

        return wrapper

    # --- installation -----------------------------------------------------

    def _patch(self, module, attr, wrapper):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self):
        from harmcont import checks, cli, continuation, expressions, oracle, problems, solver

        span, leaf = self.span, self.leaf_wrapper
        # operation entry points, looked up by the workloads at call time
        self._patch(cli, "main", span("cli.main", cli.main))
        self._patch(checks, "oracle_pair", span("checks.oracle_pair", checks.oracle_pair))
        # cli -> problems, continuation, asymptotics; cli's own writers
        self._patch(cli, "run_one", span("cli.run_one", cli.run_one))
        self._patch(cli, "load_config", span("problems.load_config", cli.load_config))
        self._patch(cli, "catalog", span("problems.catalog", cli.catalog))
        self._patch(cli, "follow_curve", span("continuation.follow", cli.follow_curve,
                                              _count_curve))
        for attr in ("analyze", "count_solutions"):
            self._patch(cli, attr, span("continuation.analyze", getattr(cli, attr)))
        self._patch(cli, "mu_asymptotic", leaf("asymptotics.mu", cli.mu_asymptotic))
        for attr in ("write_curve_csv", "write_analysis_txt", "write_asymptote_csv",
                     "write_svg"):
            self._patch(cli, attr, span("cli.write", getattr(cli, attr)))
        # continuation and checks -> solver (checks calls solver.solve_at_signature)
        solve = span("solver.solve", solver.solve_at_signature, _count_solve)
        self._patch(continuation, "solve_at_signature", solve)
        self._patch(solver, "solve_at_signature", solve)
        # solver -> spectral, scipy LU + condition estimate
        self._patch(solver, "to_grid", leaf("spectral.to_grid", solver.to_grid))
        self._patch(solver, "from_grid", leaf("spectral.from_grid", solver.from_grid))
        self._patch(solver, "multiplication_matrix",
                    leaf("spectral.mulmat", solver.multiplication_matrix))
        self._patch(solver, "lu_factor", leaf("solver.lu_factor", solver.lu_factor))
        lapack = solver.lapack
        self._patch(solver, "lapack", SimpleNamespace(
            dgecon=leaf("solver.dgecon", lapack.dgecon)))
        # checks -> oracle
        self._patch(oracle, "shoot", span("oracle.shoot", oracle.shoot, _count_shot))
        # solver/oracle -> problems: catalog nonlinearities, resolved by catalog()
        # when a problem is built, so problems must be built after install()
        for attr in [a for a in vars(problems) if a.startswith(("_g_", "_gp_"))]:
            self._patch(problems, attr, leaf("problems.g", getattr(problems, attr)))
        # solver -> expressions: g and g' compiled from config text
        compile_expression = expressions.compile_expression

        def traced_compile(text):
            g, gp = compile_expression(text)
            return leaf("expressions.eval", g), leaf("expressions.eval", gp)

        self._patch(expressions, "compile_expression", traced_compile)

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # --- results ----------------------------------------------------------

    def _leaf(self, name, parent=None):
        recs = [v for (n, p), v in self.leaf.items()
                if n == name and (parent is None or p == parent)]
        return sum(r[0] for r in recs), sum(r[1] for r in recs)

    def _span(self, name, parent=None):
        keys = [k for k in self.span_calls if k[0] == name and (parent is None or k[1] == parent)]
        return (sum(self.span_calls[k] for k in keys),
                sum(self.span_total[k] for k in keys))

    def layer_self_times(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, s in self.span_self.items():
            out[name.split(".")[0]] += s
        for (name, _), (_, s) in self.leaf.items():
            out[name.split(".")[0]] += s
        return out

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        c = self.counts
        to_grid = self._leaf("spectral.to_grid")
        from_grid = self._leaf("spectral.from_grid")
        mulmat = self._leaf("spectral.mulmat")
        g = self._leaf("problems.g")
        ev = self._leaf("expressions.eval")
        solves, solve_s = self._span("solver.solve")
        residuals, _ = self._leaf("spectral.to_grid", "solver.solve")
        lu = self._leaf("solver.lu_factor")
        gecon = self._leaf("solver.dgecon")
        _, follow_s = self._span("continuation.follow")
        follow_solves, _ = self._span("solver.solve", "continuation.follow")
        _, analyze_s = self._span("continuation.analyze")
        asym = self._leaf("asymptotics.mu")
        shoots, shoot_s = self._span("oracle.shoot")
        g_in_shoot = self._leaf("problems.g", "oracle.shoot")[0] + \
            self._leaf("expressions.eval", "oracle.shoot")[0]
        _, spectral_s = self._span("solver.solve", "checks.oracle_pair")
        _, pair_shoot_s = self._span("oracle.shoot", "checks.oracle_pair")
        _, write_s = self._span("cli.write")
        nodes = c["continuation.nodes"]
        m = {
            "spectral.transform_calls": (to_grid[0] + from_grid[0], "count"),
            "spectral.transform_s": (to_grid[1] + from_grid[1], "s"),
            "spectral.mulmat_calls": (mulmat[0], "count"),
            "spectral.mulmat_s": (mulmat[1], "s"),
            "problems.g_calls": (g[0], "count"),
            "problems.g_s": (g[1], "s"),
            "expressions.eval_calls": (ev[0], "count"),
            "expressions.eval_s": (ev[1], "s"),
            "solver.solves": (solves, "count"),
            "solver.solve_s": (solve_s, "s"),
            "solver.newton_iters": (c["solver.newton_iters"], "count"),
            "solver.residual_evals": (residuals, "count"),
            # every solve evaluates one residual up front and one per accepted
            # or final Newton step; the rest are line-search halvings
            "solver.linesearch_halvings": (
                residuals - solves - c["solver.newton_iters"], "count"),
            "solver.lu_calls": (lu[0], "count"),
            "solver.lu_s": (lu[1] + gecon[1], "s"),
            "solver.fail.max_iter": (c["solver.fail.max_iter"], "count"),
            "solver.fail.singular_jacobian": (c["solver.fail.singular_jacobian"], "count"),
            "solver.fail.line_search_stalled": (c["solver.fail.line_search_stalled"], "count"),
            "continuation.nodes": (nodes, "count"),
            "continuation.bridge_solves": (follow_solves - nodes, "count"),
            "continuation.gaps": (c["continuation.gaps"], "count"),
            "continuation.follow_s": (follow_s, "s"),
            "continuation.analyze_s": (analyze_s, "s"),
            # 0 when no curve was followed (the oracle workload)
            "continuation.useful_ratio": (
                (nodes - c["continuation.gaps"]) / follow_solves if follow_solves else 0.0,
                "ratio"),
            "asymptotics.calls": (asym[0], "count"),
            "asymptotics.s": (asym[1], "s"),
            "oracle.shoots": (shoots, "count"),
            "oracle.shoot_s": (shoot_s, "s"),
            "oracle.rk4_steps": (g_in_shoot / 4.0, "count"),
            "oracle.shoot_newton_iters": (c["oracle.shoot_newton_iters"], "count"),
            "oracle.fallbacks": (c["oracle.fallbacks"], "count"),
            "checks.spectral_s": (spectral_s, "s"),
            "checks.shoot_s": (pair_shoot_s, "s"),
            "cli.write_s": (write_s, "s"),
        }
        for layer, s in self.layer_self_times().items():
            m[f"{layer}.self_s"] = (s, "s")
        m["trace.spans"] = (len(self.spans), "count")
        return m

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def _count_solve(counts, pt, args, kwargs):
    counts["solver.newton_iters"] += pt.newton_iters
    if pt.failure is not None:
        counts[f"solver.fail.{pt.failure}"] += 1


def _count_curve(counts, curve, args, kwargs):
    counts["continuation.nodes"] += len(curve.points) + len(curve.gaps)
    counts["continuation.gaps"] += len(curve.gaps)


def _count_shot(counts, shot, args, kwargs):
    counts["oracle.shoot_newton_iters"] += shot.newton_iters
    # oracle_pair passes s0 only when it re-seeds shooting from the spectral answer
    if kwargs.get("s0") is not None:
        counts["oracle.fallbacks"] += 1
