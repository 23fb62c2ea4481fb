"""Solution curves of 1-D semilinear Dirichlet problems by harmonic continuation.

For u'' + g(u) = mu_k sin(k pi x/L) + e(x) on (0, L) with u(0) = u(L) = 0 and
e orthogonal to the driven harmonic, the k-th sine coefficient xi of u is a
global curve parameter: prescribing it determines (u, mu_k).  This package
marches xi to trace the curve mu_k(xi), analyzes its shape and solution
multiplicity, evaluates closed-form large-xi asymptotics, and cross-validates
everything against an independent collocation solver.
"""

from .asymptotics import (AsymptoticCurve, envelope, for_catalog, mu_asymptotic,
                          stationary_phase, universal_profile)
from .continuation import (Curve, CurveAnalysis, analyze, count_solutions,
                           follow_curve, xi_nodes)
from .oracle import OracleResult, shoot
from .problems import (CATALOG_NAMES, ConfigError, Nonlinearity, ProblemSpec,
                       RunSettings, catalog, load_config, validate_conditions)
from .solver import (SolutionPoint, SolverSettings, solution_series,
                     solve_at_signature)
from .spectral import SineSeries, eigenvalue, from_grid, to_grid

__version__ = "0.1.0"

__all__ = [
    "AsymptoticCurve", "CATALOG_NAMES", "ConfigError", "Curve", "CurveAnalysis",
    "Nonlinearity", "OracleResult", "ProblemSpec", "RunSettings",
    "SineSeries", "SolutionPoint", "SolverSettings", "analyze", "catalog",
    "count_solutions", "eigenvalue", "envelope", "follow_curve",
    "for_catalog", "from_grid", "load_config", "mu_asymptotic", "shoot",
    "solution_series", "solve_at_signature", "stationary_phase", "to_grid",
    "universal_profile", "validate_conditions", "xi_nodes",
]
