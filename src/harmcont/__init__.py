"""Solution curves of 1-D semilinear Dirichlet problems by harmonic continuation.

For u'' + g(u) = mu_k sin(k pi x/L) + e(x) on (0, L) with u(0) = u(L) = 0 and
e orthogonal to the driven harmonic, the k-th sine coefficient xi of u is a
global curve parameter: prescribing it determines (u, mu_k).  This package
marches xi to trace the curve mu_k(xi), analyzes its shape and solution
multiplicity, evaluates closed-form large-xi asymptotics, and cross-validates
everything against an independent shooting method.
"""

from .asymptotics import (AsymptoticCurve, envelope, for_catalog, mu_asymptotic,
                          stationary_phase, universal_profile)
from .continuation import (Curve, CurveAnalysis, analyze, count_solutions,
                           follow_curve, shape_check, xi_nodes)
from .oracle import ShootingResult, oscillatory_quadrature, shoot
from .problems import (CATALOG_NAMES, ConfigError, Nonlinearity, ProblemSpec,
                       RunSettings, catalog, load_config, validate_conditions)
from .solver import (SolutionPoint, SolverSettings, jacobian_check, residual,
                     solution_series, solve_at_signature)
from .spectral import (Grid, SineSeries, eigenvalue, from_grid,
                       modal_linear_solve, project_out, to_grid)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticCurve", "CATALOG_NAMES", "ConfigError", "Curve", "CurveAnalysis",
    "Grid", "Nonlinearity", "ProblemSpec", "RunSettings", "ShootingResult",
    "SineSeries", "SolutionPoint", "SolverSettings", "analyze", "catalog",
    "count_solutions", "eigenvalue", "envelope", "follow_curve",
    "for_catalog", "from_grid", "jacobian_check", "load_config",
    "modal_linear_solve", "mu_asymptotic", "oscillatory_quadrature",
    "project_out", "residual", "shape_check", "shoot", "solution_series",
    "solve_at_signature", "stationary_phase", "to_grid", "universal_profile",
    "validate_conditions", "xi_nodes",
]
