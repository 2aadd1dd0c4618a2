"""Fair allocation of multiple divisible resources under entitlements.

Each user either receives everything they asked for or receives at least
their entitlement on some saturated (bottleneck) resource. Such an
allocation is the limit of a barrier-function trajectory, which is the
central path of the Eisenberg-Gale program; the solver computes that
program's optimum with an interior point on its column prices, the
equilibrium prices of a Leontief Fisher market, and keeps the trajectory as
a reference path. Independent brute-force oracles and a verifier keep it
honest, and a weighted dominant-resource-fairness comparator is included for
side-by-side reports.
"""
from .drf import DrfResult, solve_drf
from .model import (
    LiftedInstance,
    ProblemInstance,
    ToleranceConfig,
    Violation,
    usages,
    utility,
    validate_instance,
)
from .oracle import (
    SolutionFamily,
    enumerate_solutions,
    grid_search_n2,
    random_instance,
)
from .solver import (
    InvalidInstanceError,
    SolveResult,
    TrajectoryPoint,
    gradient,
    integrate_trajectory,
    level_value,
    solve,
    trajectory_derivative,
)
from .verifier import VerificationReport, verify

__version__ = "0.1.0"

__all__ = [
    "DrfResult",
    "InvalidInstanceError",
    "LiftedInstance",
    "ProblemInstance",
    "SolutionFamily",
    "SolveResult",
    "ToleranceConfig",
    "TrajectoryPoint",
    "VerificationReport",
    "Violation",
    "enumerate_solutions",
    "gradient",
    "grid_search_n2",
    "integrate_trajectory",
    "level_value",
    "random_instance",
    "solve",
    "solve_drf",
    "trajectory_derivative",
    "usages",
    "utility",
    "validate_instance",
    "verify",
]
