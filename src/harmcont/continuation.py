"""March the harmonic parameter over a range and analyze the resulting curve.

The k-th harmonic xi is a global graph parameter for the curve, so plain
fixed-step marching suffices.  Each node makes one direct attempt from a
predicted start (Allgower & Georg, Numerical Continuation Methods, ch. 2):
the parabola through the last three rows, when all three converged,
extended to the node; otherwise, or when that step is long, the line
through the last two converged remainders; and the plain warm start when
that step is long too.  A node whose direct attempt fails is bridged by
one half step from the last converged point before being recorded as a
gap, unless the node before it is a gap: a bridge from that point has
failed already, so a gap band costs one failed bridge plus one direct
attempt per node.  A node that still fails sits where xi stops being a
global parameter, at a fold, and no shorter xi step crosses a fold: on
39,335 nodes of the config-batch, figure, retry and k = 2 curves the only
node a bridge rescued took one half step, and bridging down to 1/64 of a
node step left every row the same.  Tracing folds needs pseudo-arclength
continuation (ROADMAP item 2).  Only the branch reachable by warm-started
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

# Longest predictor step, three-point or secant, relative to the coefficient
# norm of u at the last point.  The figure curves take steps below 0.003.  On
# 4 pi^2 u + A sin u over [-10, 10] the secant steps that jumped to another
# remainder were above 0.08; with this bound no node leaves the plain branch
# for A in {1.5, 2, 2.5, 2.6836, 3}, with either predictor.
MAX_PREDICTOR_STEP = 0.02


def xi_nodes(xi_min: float, xi_max: float, step: float) -> np.ndarray:
    """Marching nodes xi_min, xi_min + step, ... (last node <= xi_max + tiny).

    ValueError naming the setting for a non-finite input, xi_min >= xi_max,
    step <= 0 or a node count (xi_max - xi_min) / step that is not finite.
    """
    for name, value in (("xi_min", xi_min), ("xi_max", xi_max), ("xi_step", step)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not xi_min < xi_max:
        raise ValueError(f"xi_min must be below xi_max, got [{xi_min}, {xi_max}]")
    if step <= 0:
        raise ValueError(f"xi_step must be positive, got {step}")
    count = (xi_max - xi_min) / step
    if not np.isfinite(count):
        raise ValueError(f"(xi_max - xi_min) / xi_step must be finite, got "
                         f"({xi_max} - {xi_min}) / {step}")
    n = int(np.floor(count + 1e-9))
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

    Each node gets one direct attempt.  When the last three rows converged,
    at (xi_0, U_0), (xi_1, U_1) and (xi, U), it starts from the quadratic
    Lagrange extrapolation through them,
    U + (target - xi) [U_1, U] + (target - xi) (target - xi_1) [U_0, U_1, U]
    in divided differences, if that step is at most MAX_PREDICTOR_STEP of
    the last point's size.  Otherwise it starts from the secant predictor
    U + (target - xi) (U - U_prev) / (xi - xi_prev) through the last two
    converged points (xi_prev, U_prev) and (xi, U), when there are two and
    its step is within the same bound, and from U itself otherwise (the zero
    series at the first node).  If the direct attempt fails and the node
    before converged, the node is bridged from that point with plain warm
    starts: one solve at the half step xi + (target - xi) / 2 from U and, if
    it converges, one at target from the half step's remainder.  A converged
    landing is the node's row; otherwise the direct attempt is recorded as
    the node's gap row and marching moves on.  A node after a gap row makes
    its direct attempt only: a later bridge would start from the same point
    with the same plain warm start and no kept LU (a failed solve drops
    it), and its half step would lie farther from the start than the
    failed bridge's.  An entirely unsolvable range
    yields a curve of gap rows only.  All solves of the curve, direct and
    bridging, share one workspace, which carries a kept LU from each solve
    to the next.
    """
    settings = settings or SolverSettings()
    ws = _Workspace(p, n_modes)
    rows: list[SolutionPoint] = []
    warm = SineSeries.zero(p.L, n_modes)
    prev = last = None  # the last two converged points

    for target in xi_nodes(xi_min, xi_max, step):
        start = warm
        if prev is not None:
            secant = (target - last.xi) / (last.xi - prev.xi) * (warm.coeffs - prev.U.coeffs)
            moves = [secant]
            if len(rows) >= 3 and all(pt.converged for pt in rows[-3:]):
                # Newton form of the parabola through rows[-3:], the last of
                # which are prev and last: the secant plus a second difference
                first = rows[-3]
                second = ((warm.coeffs - prev.U.coeffs) / (last.xi - prev.xi)
                          - (prev.U.coeffs - first.U.coeffs) / (prev.xi - first.xi)
                          ) / (last.xi - first.xi)
                moves = [secant + (target - last.xi) * (target - prev.xi) * second, secant]
            size = np.hypot(last.xi, np.sqrt(warm.coeffs @ warm.coeffs))  # of u's coefficients
            for move in moves:
                if np.sqrt(move @ move) <= MAX_PREDICTOR_STEP * size:
                    start = SineSeries(p.L, warm.coeffs + move)
                    break
        pt = solve_at_signature(p, target, start, settings, n_modes=n_modes, workspace=ws)
        # after a gap row, the bridge from the last converged point has failed
        if not pt.converged and rows and rows[-1].converged:
            half = solve_at_signature(p, last.xi + (target - last.xi) / 2, warm, settings,
                                      n_modes=n_modes, workspace=ws)
            if half.converged:
                landing = solve_at_signature(p, target, half.U, settings,
                                             n_modes=n_modes, workspace=ws)
                if landing.converged:
                    pt = landing
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
