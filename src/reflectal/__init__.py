"""reflectal: a numerical laboratory for reflected small-noise diffusions on
convex domains, the generalized backward equations driven by their boundary
local time, and the Freidlin-Wentzell action functionals governing their
rare events."""

__version__ = "0.1.0"

from .geometry import DomainSpec, make_domain, project, verify_convexity
from .coefficients import (CoefficientSet, AssumptionAudit, audit_assumptions,
                           preset, PRESET_NAMES)
from .forward import (TimeGrid, ReflectedTrajectory, FreePath,
                      SkorokhodDecomposition, integrate_reflected_sde,
                      integrate_skeleton_ode, skorokhod_map,
                      reflection_budget_identity, simulate_reflected_batch,
                      trajectory_rng)
from .backward import (BsdePath, ValueField, make_lattice, solve_limit_bsde,
                       solve_bsde_grid, limit_value_field, apply_pi)
from .action import (ActionResult, OptimizerOptions, evaluate_action,
                     minimize_action_endpoint, contracted_rate)
from .harness import (ConvergenceReport, TailReport, convergence_study,
                      tail_study, fit_loglog, TARGETS)

__all__ = [
    "DomainSpec", "make_domain", "project", "verify_convexity",
    "CoefficientSet", "AssumptionAudit", "audit_assumptions", "preset",
    "PRESET_NAMES",
    "TimeGrid", "ReflectedTrajectory", "FreePath", "SkorokhodDecomposition",
    "integrate_reflected_sde", "integrate_skeleton_ode",
    "skorokhod_map", "reflection_budget_identity", "simulate_reflected_batch",
    "trajectory_rng",
    "BsdePath", "ValueField", "make_lattice", "solve_limit_bsde",
    "solve_bsde_grid", "limit_value_field", "apply_pi",
    "ActionResult", "OptimizerOptions", "evaluate_action",
    "minimize_action_endpoint", "contracted_rate",
    "ConvergenceReport", "TailReport", "convergence_study", "tail_study",
    "fit_loglog", "TARGETS",
]
