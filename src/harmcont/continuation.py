"""March the harmonic parameter over a range and analyze the resulting curve.

The k-th harmonic xi is a global graph parameter for the curve, so plain
fixed-step marching suffices.  Each node makes one direct attempt, from the
secant predictor, the line through the last two converged remainders
extended to the node (Allgower & Georg, Numerical Continuation Methods,
ch. 2), unless that step is long, and from the plain warm start otherwise;
a node whose direct attempt fails is bridged with halved sub-steps before
being recorded as a gap.  Only the branch reachable by warm-started
marching is followed; when the g' sandwich fails, other branches may exist
and are not searched for.  A long predictor step could land on one of
them, which is why it is not taken.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import ProblemSpec, RunSettings
from .solver import SolutionPoint, SolverSettings, _Workspace, solve_at_signature
from .spectral import SineSeries

MAX_HALVINGS = 6  # deepest bridge sub-step is 1/2^MAX_HALVINGS of a node step
# Longest secant step, relative to the coefficient norm of u at the last point.
# The figure curves take steps below 0.003.  On 4 pi^2 u + A sin u over
# [-10, 10] the steps that jumped to another remainder were above 0.08; with
# this bound no node leaves the plain branch for A in {1.5, 2, 2.5, 2.6836, 3}.
MAX_PREDICTOR_STEP = 0.02


def xi_nodes(xi_min: float, xi_max: float, step: float) -> np.ndarray:
    """Marching nodes xi_min, xi_min + step, ... (last node <= xi_max + tiny).

    ValueError naming the setting for a non-finite input, xi_min >= xi_max
    or step <= 0.
    """
    for name, value in (("xi_min", xi_min), ("xi_max", xi_max), ("xi_step", step)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not xi_min < xi_max:
        raise ValueError(f"xi_min must be below xi_max, got [{xi_min}, {xi_max}]")
    if step <= 0:
        raise ValueError(f"xi_step must be positive, got {step}")
    n = int(np.floor((xi_max - xi_min) / step + 1e-9))
    return xi_min + step * np.arange(n + 1)


@dataclass(frozen=True)
class Curve:
    """One row per marching node, in node order: converged points and gaps."""

    problem: ProblemSpec
    rows: list[SolutionPoint]

    @property
    def points(self) -> list[SolutionPoint]:
        return [pt for pt in self.rows if pt.converged]

    @property
    def gaps(self) -> list[SolutionPoint]:
        return [pt for pt in self.rows if not pt.converged]

    def xi(self) -> np.ndarray:
        return np.array([pt.xi for pt in self.points])

    def mu(self) -> np.ndarray:
        return np.array([pt.mu for pt in self.points])


def follow_curve(p: ProblemSpec, xi_min: float, xi_max: float, step: float,
                 settings: SolverSettings | None = None,
                 n_modes: int = RunSettings.modes) -> Curve:
    """Assemble the solution curve on a uniform xi grid.

    Each node gets one direct attempt.  It starts from the secant predictor
    U + (target - xi) (U - U_prev) / (xi - xi_prev) through the last two
    converged points (xi_prev, U_prev) and (xi, U), when there are two and the
    step is at most MAX_PREDICTOR_STEP of the last point's size; otherwise
    from U itself (the zero series at the first node).  If the direct attempt
    fails, the node is bridged from the last converged point, with plain warm
    starts, through the dyadic sub-steps xi + (target - xi) j / 2^depth: a
    converged sub-step is kept and the march goes on from it, a failed
    sub-step (depth, j) is retried at (depth + 1, 2j - 1).  If depth
    MAX_HALVINGS fails, the direct attempt is recorded as the node's gap row
    and marching moves on.  An entirely unsolvable range yields a curve of
    gap rows only.  All solves of the curve, direct and bridging, share one
    workspace, which carries a kept LU from each solve to the next.
    """
    settings = settings or SolverSettings()
    ws = _Workspace(p, n_modes)
    rows: list[SolutionPoint] = []
    warm = SineSeries.zero(p.L, n_modes)
    prev = last = None  # the last two converged points

    for target in xi_nodes(xi_min, xi_max, step):
        start = warm
        if prev is not None:
            move = (target - last.xi) / (last.xi - prev.xi) * (warm.coeffs - prev.U.coeffs)
            size = np.hypot(last.xi, np.linalg.norm(warm.coeffs))  # of u's coefficients
            if np.linalg.norm(move) <= MAX_PREDICTOR_STEP * size:
                start = SineSeries(p.L, warm.coeffs + move)
        pt = solve_at_signature(p, target, start, settings, n_modes=n_modes, workspace=ws)
        if not pt.converged and last is not None:
            depth, j, bridge = 1, 1, warm
            while depth <= MAX_HALVINGS:
                sub = 2 ** depth
                # last sub-step lands on the node exactly, not within an ulp
                xi_j = target if j == sub else last.xi + (target - last.xi) * j / sub
                bp = solve_at_signature(p, xi_j, bridge, settings, n_modes=n_modes, workspace=ws)
                if not bp.converged:
                    depth, j = depth + 1, 2 * j - 1
                elif j == sub:
                    pt = bp
                    break
                else:
                    bridge, j = bp.U, j + 1
        rows.append(pt)
        if pt.converged:
            prev, last, warm = last, pt, pt.U
    return Curve(problem=p, rows=rows)


@dataclass(frozen=True)
class CurveAnalysis:
    extrema: list[tuple[float, float, str]]
    global_min: tuple[float, float]
    sign_changes: list[float]


def _crossings(xi: np.ndarray, v: np.ndarray) -> list[float]:
    """Where the sampled v(xi) meets zero, in sample order.

    A sign change between two nonzero samples is placed by linear
    interpolation; the signs are compared, not multiplied, so values near
    the underflow threshold still count.  A run of exact zeros counts once,
    at its first node, whether the sign changes across it or not.
    """
    s = np.sign(v)
    out = []
    for i in range(len(v)):
        if s[i] == 0:
            if i == 0 or s[i - 1] != 0:
                out.append(float(xi[i]))
        elif i > 0 and s[i - 1] == -s[i]:
            t = v[i - 1] / (v[i - 1] - v[i])
            out.append(float(xi[i - 1] + t * (xi[i] - xi[i - 1])))
    return out


def _parabolic_vertex(x, y):
    """Vertex of the parabola through three samples; falls back to the middle."""
    x0, x1, x2 = x
    y0, y1, y2 = y
    denom = (x0 - x1) * (x0 - x2) * (x1 - x2)
    if denom == 0:
        return x1, y1
    a = (x2 * (y1 - y0) + x1 * (y0 - y2) + x0 * (y2 - y1)) / denom
    b = (x2 * x2 * (y0 - y1) + x1 * x1 * (y2 - y0) + x0 * x0 * (y1 - y2)) / denom
    if a == 0:
        return x1, y1
    xv = -b / (2 * a)
    if not min(x0, x2) <= xv <= max(x0, x2):
        return x1, y1
    c = y1 - a * x1 * x1 - b * x1
    return xv, a * xv * xv + b * xv + c


def analyze(c: Curve) -> CurveAnalysis:
    """Locate interior extrema, the sampled global minimum, and zero crossings.

    Extrema come from sign changes of centered-difference slopes (signs
    compared, not multiplied, as in _crossings), refined by the parabola
    through the three nearest samples; zero crossings from sign changes of
    mu with linear interpolation.
    """
    if len(c.points) < 3:
        raise ValueError("analysis needs at least 3 converged points")
    xi = c.xi()
    mu = c.mu()

    slopes = (mu[2:] - mu[:-2]) / (xi[2:] - xi[:-2])  # slope at node i+1
    extrema = []
    for i in range(len(slopes) - 1):
        s0, s1 = slopes[i], slopes[i + 1]
        if s0 != 0 and np.sign(s0) != np.sign(s1):
            node = i + 1 if abs(s0) <= abs(s1) else i + 2
            xv, yv = _parabolic_vertex(xi[node - 1:node + 2], mu[node - 1:node + 2])
            kind = "min" if s0 < s1 else "max"
            if not extrema or abs(extrema[-1][0] - xv) > 1e-12:
                extrema.append((float(xv), float(yv), kind))

    idx = int(np.argmin(mu))
    if 0 < idx < len(mu) - 1:
        gx, gy = _parabolic_vertex(xi[idx - 1:idx + 2], mu[idx - 1:idx + 2])
    else:
        gx, gy = xi[idx], mu[idx]
    global_min = (float(gx), float(gy))

    # interpolation at denormal scale can put a crossing out of sample order
    return CurveAnalysis(extrema=extrema, global_min=global_min,
                         sign_changes=sorted(_crossings(xi, mu)))


def count_solutions(c: Curve, mu_star: float) -> int:
    """Number of crossings of mu(xi) = mu_star on the sampled range.

    Sign changes between consecutive converged samples; exact hits at nodes
    (tangencies included) are counted once per contact.
    """
    if len(c.points) < 3:
        raise ValueError("counting needs at least 3 converged points")
    return len(_crossings(c.xi(), c.mu() - mu_star))
