"""Command line interface: run curve following and emit artifacts, or verify.

hc run <catalog-name | config-file | config-dir> [flags]
    writes curve.csv, analysis.txt, curve.svg and (for problems with a known
    asymptotic formula) asymptote.csv into the output directory.  Each run
    flag's dest is the RunSettings field it overrides (--step is xi_step,
    --tol newton_tol), the name a config's [run] key has too.  With the flags
    applied, each setting is checked before anything is written.

hc verify <linear | oracle | asymptotics | invariants | all>
    runs the named check suite and prints a PASS/FAIL table.

Exit codes: 0 success, 1 verification failure, 2 config parse error,
3 solver gaps above 10% of the nodes, 4 internal error.
"""

from __future__ import annotations

import argparse
import html
import itertools
import os
import re
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import checks
from .asymptotics import for_catalog, mu_asymptotic
from .continuation import Curve, analyze, count_solutions, follow_curve, xi_nodes
from .problems import (CATALOG_NAMES, ConfigError, ProblemSpec, RunSettings, catalog,
                       load_config)
from .solver import SolverSettings, _Workspace

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_GAPS = 3
EXIT_INTERNAL = 4

GAP_FRACTION_LIMIT = 0.10
N_TICKS = 6  # ticks an SVG axis aims for


def _fmt(x: float) -> str:
    """Shortest decimal that round-trips the IEEE double."""
    return repr(float(x))


def write_curve_csv(path: Path, curve: Curve) -> None:
    lines = ["xi,mu,residual_norm,U_norm,newton_iters,converged"]
    for pt in curve.rows:
        lines.append(",".join([
            _fmt(pt.xi), _fmt(pt.mu), _fmt(pt.residual_norm),
            _fmt(pt.U.l2_norm()), str(pt.newton_iters),
            "true" if pt.converged else "false",
        ]))
    path.write_text("\n".join(lines) + "\n")


def write_asymptote_csv(path: Path, asym_xy) -> None:
    """The (xi, mu_asymptotic) pairs as CSV rows."""
    lines = ["xi,mu_asymptotic"]
    lines += [f"{_fmt(xi)},{_fmt(mu)}" for xi, mu in asym_xy]
    path.write_text("\n".join(lines) + "\n")


def write_analysis_txt(path: Path, curve: Curve, mu_stars) -> None:
    lines = [f"problem: {curve.problem.nonlinearity.descriptor}",
             f"k: {curve.problem.k}",
             f"nodes: {len(curve.rows)} "
             f"(converged {len(curve.points)}, gaps {len(curve.gaps)})"]
    if len(curve.points) >= 3:
        an = analyze(curve)
        lines.append("extrema:")
        for x, m, kind in an.extrema:
            lines.append(f"  {kind} at xi = {_fmt(x)}, mu = {_fmt(m)}")
        if not an.extrema:
            lines.append("  none in the sampled range")
        lines.append(f"global minimum: mu0 = {_fmt(an.global_min[1])} "
                     f"at xi0 = {_fmt(an.global_min[0])}")
        lines.append("zero crossings of mu:")
        for z in an.sign_changes:
            lines.append(f"  xi = {_fmt(z)}")
        if not an.sign_changes:
            lines.append("  none")
        for mu_star in mu_stars:
            n = count_solutions(curve, mu_star)
            lines.append(f"solutions at mu* = {_fmt(mu_star)}: {n}")
    else:
        lines.append("too few converged points for analysis")
    path.write_text("\n".join(lines) + "\n")


def _ticks(lo: float, hi: float):
    span = hi - lo
    raw = span / (N_TICKS - 1)
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = np.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return ticks


def write_svg(path: Path, curve: Curve, asym_xy=None, title: str = "") -> None:
    """Self-contained line plot of mu vs xi; asymptote dashed if supplied."""
    W, H = 840, 525
    ml, mr, mt, mb = 72, 24, 42, 52
    pts = curve.points
    xs = [pt.xi for pt in pts]
    ys = [pt.mu for pt in pts]
    if asym_xy:
        xs = xs + [x for x, _ in asym_xy]
        ys = ys + [y for _, y in asym_xy]
    if not xs:
        path.write_text('<?xml version="1.0" encoding="UTF-8"?>\n'
                        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}">'
                        '<text x="20" y="40">empty curve (no converged points)</text></svg>\n')
        return
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 - x0 < 1e-12:  # a single node
        x0, x1 = x0 - 1.0, x1 + 1.0
    if y1 - y0 < 1e-12:
        y0, y1 = y0 - 1.0, y1 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def X(x):
        return ml + (x - x0) / (x1 - x0) * (W - ml - mr)

    def Y(y):
        return H - mb - (y - y0) / (y1 - y0) * (H - mt - mb)

    def poly(points_xy, style):
        coords = " ".join(f"{X(x):.2f},{Y(y):.2f}" for x, y in points_xy)
        return f'<polyline fill="none" {style} points="{coords}"/>'

    parts = ['<?xml version="1.0" encoding="UTF-8"?>',
             f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
             f'viewBox="0 0 {W} {H}">',
             f'<rect x="0" y="0" width="{W}" height="{H}" fill="white"/>',
             f'<rect x="{ml}" y="{mt}" width="{W - ml - mr}" height="{H - mt - mb}" '
             'fill="none" stroke="black" stroke-width="1"/>']
    if title:
        # what xml.sax.saxutils.escape does, without the urllib.request and
        # http.client it imports (7 MB of resident memory)
        parts.append(f'<text x="{W / 2:.0f}" y="26" text-anchor="middle" '
                     'font-family="sans-serif" font-size="15">'
                     f'{html.escape(title, quote=False)}</text>')
    for t in _ticks(x0, x1):
        parts.append(f'<line x1="{X(t):.2f}" y1="{H - mb}" x2="{X(t):.2f}" '
                     f'y2="{H - mb + 5}" stroke="black"/>')
        parts.append(f'<text x="{X(t):.2f}" y="{H - mb + 20}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="12">{t:g}</text>')
    for t in _ticks(y0, y1):
        parts.append(f'<line x1="{ml - 5}" y1="{Y(t):.2f}" x2="{ml}" '
                     f'y2="{Y(t):.2f}" stroke="black"/>')
        parts.append(f'<text x="{ml - 9}" y="{Y(t):.2f}" text-anchor="end" '
                     f'dominant-baseline="middle" font-family="sans-serif" '
                     f'font-size="12">{t:g}</text>')
    if y0 < 0 < y1:
        parts.append(f'<line x1="{ml}" y1="{Y(0):.2f}" x2="{W - mr}" y2="{Y(0):.2f}" '
                     'stroke="#bbbbbb" stroke-width="0.7"/>')
    parts.append(f'<text x="{(ml + W - mr) / 2:.0f}" y="{H - 12}" text-anchor="middle" '
                 'font-family="sans-serif" font-size="13">xi</text>')
    parts.append(f'<text x="18" y="{(mt + H - mb) / 2:.0f}" text-anchor="middle" '
                 'font-family="sans-serif" font-size="13" '
                 f'transform="rotate(-90 18 {(mt + H - mb) / 2:.0f})">mu</text>')

    if asym_xy:
        parts.append(poly(asym_xy, 'stroke="#777777" stroke-width="1.2" '
                                   'stroke-dasharray="6,4"'))
    # the computed curve, split at gaps
    for converged, run in itertools.groupby(curve.rows, key=lambda pt: pt.converged):
        seg = [(pt.xi, pt.mu) for pt in run]
        if converged and len(seg) > 1:
            parts.append(poly(seg, 'stroke="#1f4e9c" stroke-width="1.6"'))
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


def _out_root() -> Path:
    return Path(os.environ.get("HC_OUT_DIR", "."))


def _checked(target: str, spec: ProblemSpec, settings: RunSettings) -> SolverSettings:
    """The SolverSettings of a run; ConfigError naming target unless it can run.

    Each rule is checked by the code that uses the setting: xi_nodes checks
    the xi range and step, the solver's workspace the mode count, and
    SolverSettings the tolerance and iteration count.  Only the rule that
    every mu_star is finite is this function's own.
    """
    try:
        xi_nodes(settings.xi_min, settings.xi_max, settings.xi_step)
        if not np.all(np.isfinite(settings.mu_star)):
            raise ValueError(f"mu_star must be finite, got {settings.mu_star}")
        _Workspace(spec, settings.modes)
        return SolverSettings(newton_tol=settings.newton_tol, max_iter=settings.max_iter)
    except ValueError as exc:
        raise ConfigError(f"{target}: {exc}") from exc


def run_one(target: str, overrides: dict, out_dir: str | None) -> int:
    """Run a single catalog problem or config file; returns an exit code."""
    path = Path(target)
    asym = None
    if path.is_file():
        spec, settings = load_config(path)
        name = path.stem
    else:
        target = target.strip()
        spec = catalog(target)  # KeyError for unknown names
        name = target.replace("(", "_").replace(")", "").replace("*", "x")
        name = re.sub(r"[^A-Za-z0-9._-]", "_", name)  # one path component
        settings = RunSettings()
        asym = for_catalog(target)
    settings = replace(settings, **overrides)
    solver_settings = _checked(target, spec, settings)

    out = Path(out_dir) if out_dir else (_out_root() / name)
    out.mkdir(parents=True, exist_ok=True)

    curve = follow_curve(spec, settings.xi_min, settings.xi_max, settings.xi_step,
                         solver_settings, n_modes=settings.modes)
    write_curve_csv(out / "curve.csv", curve)
    write_analysis_txt(out / "analysis.txt", curve, settings.mu_star)
    asym_xy = None
    if asym is not None:
        asym_xy = [(pt.xi, float(mu_asymptotic(asym, pt.xi)))
                   for pt in curve.rows if pt.xi != 0.0]
        write_asymptote_csv(out / "asymptote.csv", asym_xy)
    write_svg(out / "curve.svg", curve, asym_xy, title=name)

    total, gaps = len(curve.rows), len(curve.gaps)
    print(f"{name}: {total - gaps}/{total} nodes converged -> {out}")
    if total and gaps > GAP_FRACTION_LIMIT * total:
        print(f"{name}: {gaps} gaps exceed {GAP_FRACTION_LIMIT:.0%} "
              "of nodes", file=sys.stderr)
        return EXIT_GAPS
    return EXIT_OK


def _run_one_job(target: str, overrides: dict, out_dir: str | None) -> int:
    """run_one with its exceptions mapped to exit codes.

    The process-pool entry as well as the single-target path; arguments are
    plain picklable values.  A KeyError is an unknown catalog name.
    """
    try:
        return run_one(target, overrides, out_dir)
    except (ConfigError, KeyError) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def cmd_run(args) -> int:
    if args.jobs < 1:
        print(f"error: --jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return EXIT_CONFIG
    target = args.target
    path = Path(target)
    # each flag's dest is its RunSettings field; None is a flag not given
    overrides = {f.name: type(f.default)(value) for f in fields(RunSettings)
                 if (value := getattr(args, f.name)) is not None}
    if path.is_dir():
        configs = sorted(p for p in path.iterdir()
                         if p.suffix.lower() in (".cfg", ".ini", ".conf"))
        if not configs:
            print(f"error: no config files (*.cfg, *.ini, *.conf) in {path}",
                  file=sys.stderr)
            return EXIT_CONFIG
        stems = Counter(c.stem for c in configs)
        clashes = [c.name for c in configs if stems[c.stem] > 1]
        if clashes:
            print(f"error: config files would share an output directory: "
                  f"{', '.join(clashes)}", file=sys.stderr)
            return EXIT_CONFIG
        root = Path(args.out) if args.out else _out_root()
        outs = [str(root / c.stem) for c in configs]
        # a fork pool starts all its workers at the first submit, so no more
        # than there are configs
        jobs = min(args.jobs, len(configs))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            codes = list(pool.map(_run_one_job, [str(c) for c in configs],
                                  [overrides] * len(configs), outs))
        return max(codes)
    return _run_one_job(target, overrides, args.out)


def cmd_verify(args) -> int:
    rows = checks.run_suite(args.suite)
    labels = [f"{r.suite}/{r.name}" for r in rows]
    width = max(map(len, labels))
    failed = 0
    for r, label in zip(rows, labels):
        status = "PASS" if r.passed else "FAIL"
        failed += not r.passed
        print(f"{status}\t{label:<{width}}\t{r.detail}")
    print(f"{'PASS' if failed == 0 else 'FAIL'}\ttotal\t"
          f"{len(rows) - failed}/{len(rows)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hc",
        description="Solution curves of u'' + g(u) = mu_k sin(k pi x/L) + e(x) "
                    "by continuation in the k-th harmonic of u.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="follow a solution curve and write artifacts")
    run.add_argument("target",
                     help="catalog name (%s), config file, or directory of configs"
                          % ", ".join(CATALOG_NAMES))
    run.add_argument("--xi-min", type=float, default=None)
    run.add_argument("--xi-max", type=float, default=None)
    run.add_argument("--step", type=float, default=None, dest="xi_step", metavar="STEP")
    run.add_argument("--modes", type=int, default=None)
    run.add_argument("--tol", type=float, default=None, dest="newton_tol", metavar="TOL")
    run.add_argument("--max-iter", type=int, default=None)
    run.add_argument("--mu-star", type=float, action="append", default=None,
                     help="report solution count at this mu level (repeatable)")
    run.add_argument("--out", default=None,
                     help="output directory (default $HC_OUT_DIR/<name>)")
    run.add_argument("--jobs", type=int, default=1,
                     help="parallel workers when target is a directory")

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("suite", choices=["linear", "oracle", "asymptotics",
                                       "invariants", "all"])
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        return cmd_verify(args)
    except Exception as exc:  # noqa: BLE001
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
