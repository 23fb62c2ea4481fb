"""March the harmonic parameter over a range and analyze the resulting curve.

The k-th harmonic xi is a global graph parameter for the curve, so plain
fixed-step marching suffices.  Each node starts from an Euler predictor, the
last converged remainder moved along its curve tangent (Allgower & Georg,
Numerical Continuation Methods, ch. 2), unless that step is long; a node
whose predicted start fails is retried from the plain warm start, then with
halved sub-steps, before being recorded as a gap.  Only the branch reachable
by warm-started marching is followed; when the g' sandwich fails, other
branches may exist and are not searched for.  A long Euler step could land
on one of them, which is why it is not taken.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .problems import ProblemSpec
from .solver import SolutionPoint, SolverSettings, solve_at_signature
from .spectral import SineSeries

MAX_HALVINGS = 6  # deepest bridge sub-step is 1/2^MAX_HALVINGS of a node step
# Longest Euler step, relative to the coefficient norm of u at the last point.
# The figure curves take steps below 0.003; on 4 pi^2 u + A sin u the steps
# that jumped to another remainder were above 0.1.
MAX_PREDICTOR_STEP = 0.02


def xi_nodes(xi_min: float, xi_max: float, step: float) -> np.ndarray:
    """Marching nodes xi_min, xi_min + step, ... (last node <= xi_max + tiny)."""
    if not xi_min < xi_max:
        raise ValueError(f"empty range [{xi_min}, {xi_max}]")
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    n = int(np.floor((xi_max - xi_min) / step + 1e-9))
    return xi_min + step * np.arange(n + 1)


@dataclass(frozen=True)
class Curve:
    """Ordered solution points over a xi-range, plus gap annotations."""

    problem: ProblemSpec
    points: list[SolutionPoint]
    gaps: list[SolutionPoint] = field(default_factory=list)

    def xi(self) -> np.ndarray:
        return np.array([pt.xi for pt in self.points])

    def mu(self) -> np.ndarray:
        return np.array([pt.mu for pt in self.points])

    def all_rows(self) -> list[SolutionPoint]:
        """Converged points and gap records merged in xi order (for output)."""
        return sorted([*self.points, *self.gaps], key=lambda pt: pt.xi)


def follow_curve(p: ProblemSpec, xi_min: float, xi_max: float, step: float,
                 settings: SolverSettings | None = None,
                 n_modes: int = 64) -> Curve:
    """Assemble the solution curve on a uniform xi grid.

    Each node is first solved from the Euler predictor U + (target - xi) dU/dxi
    at the last converged point (xi, U), when that point has a tangent and the
    step is at most MAX_PREDICTOR_STEP of the point's size; if that fails, or
    is not tried, from U itself (the zero series at the first node).  A node
    that still fails is bridged from the last converged
    point, with plain warm starts, through the dyadic sub-steps
    warm_xi + (target - warm_xi) j / 2^depth: a converged sub-step is kept and
    the march goes on from it, a failed sub-step (depth, j) is retried at
    (depth + 1, 2j - 1).  If depth MAX_HALVINGS fails, the node is recorded as
    a gap and marching moves on.  An entirely unsolvable range yields an empty
    curve with diagnostics.
    """
    settings = settings or SolverSettings()
    nodes = xi_nodes(xi_min, xi_max, step)
    points: list[SolutionPoint] = []
    gaps: list[SolutionPoint] = []
    warm = SineSeries.zero(p.L, n_modes)
    warm_xi = tangent = None

    for target in nodes:
        pt = None
        if tangent is not None:
            move = (target - warm_xi) * tangent
            size = np.hypot(warm_xi, np.linalg.norm(warm.coeffs))  # of u's coefficients
            if np.linalg.norm(move) <= MAX_PREDICTOR_STEP * size:
                pt = solve_at_signature(p, target, SineSeries(p.L, warm.coeffs + move),
                                        settings)
        if pt is None or not pt.converged:
            pt = solve_at_signature(p, target, warm, settings)
        if not pt.converged and warm_xi is not None:
            depth, j, bridge = 1, 1, warm
            while depth <= MAX_HALVINGS:
                sub = 2 ** depth
                # last sub-step lands on the node exactly, not within an ulp
                xi_j = target if j == sub else warm_xi + (target - warm_xi) * j / sub
                bp = solve_at_signature(p, xi_j, bridge, settings)
                if not bp.converged:
                    depth, j = depth + 1, 2 * j - 1
                elif j == sub:
                    pt = bp
                    break
                else:
                    bridge, j = bp.U, j + 1
        if pt.converged:
            points.append(pt)
            warm, warm_xi, tangent = pt.U, pt.xi, pt.tangent
        else:
            gaps.append(pt)
    return Curve(problem=p, points=points, gaps=gaps)


@dataclass(frozen=True)
class CurveAnalysis:
    extrema: list[tuple[float, float, str]]
    global_min: tuple[float, float] | None
    sign_changes: list[float]


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

    Extrema come from sign changes of centered-difference slopes, refined by
    the parabola through the three nearest samples; zero crossings from sign
    changes of mu with linear interpolation.
    """
    if len(c.points) < 3:
        raise ValueError("analysis needs at least 3 converged points")
    xi = c.xi()
    mu = c.mu()

    slopes = (mu[2:] - mu[:-2]) / (xi[2:] - xi[:-2])  # slope at node i+1
    extrema = []
    for i in range(len(slopes) - 1):
        s0, s1 = slopes[i], slopes[i + 1]
        if s0 == 0 and s1 == 0:
            continue
        if s0 * s1 < 0 or (s0 != 0 and s1 == 0):
            node = i + 1 if abs(s0) <= abs(s1) else i + 2
            node = min(max(node, 1), len(xi) - 2)
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

    sign_changes = []
    for i in range(len(mu) - 1):
        if mu[i] == 0.0:
            if i == 0 or mu[i - 1] != 0.0:
                sign_changes.append(float(xi[i]))
        elif mu[i] * mu[i + 1] < 0:
            t = mu[i] / (mu[i] - mu[i + 1])
            sign_changes.append(float(xi[i] + t * (xi[i + 1] - xi[i])))
    if len(mu) and mu[-1] == 0.0 and (len(mu) == 1 or mu[-2] != 0.0):
        sign_changes.append(float(xi[-1]))

    return CurveAnalysis(extrema=extrema, global_min=global_min,
                         sign_changes=sorted(sign_changes))


def count_solutions(c: Curve, mu_star: float) -> int:
    """Number of crossings of mu(xi) = mu_star on the sampled range.

    Sign changes between consecutive converged samples; exact hits at nodes
    (tangencies included) are counted once per contact.
    """
    if len(c.points) < 3:
        raise ValueError("counting needs at least 3 converged points")
    v = c.mu() - mu_star
    count = 0
    prev = 0.0  # sign of the last nonzero sample, 0 before any
    prev_was_zero = False
    for value in v:
        if value == 0.0:
            if not prev_was_zero:
                count += 1
            prev_was_zero = True
            prev = 0.0
            continue
        s = 1.0 if value > 0 else -1.0
        if prev != 0.0 and s != prev:
            count += 1
        prev = s
        prev_was_zero = False
    return count
