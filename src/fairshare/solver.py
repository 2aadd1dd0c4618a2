"""Solver for entitlement-proportional fair allocation.

``solve`` computes the allocation as the optimum of the Eisenberg-Gale
program (``fairshare.eg``) on the instance as given, through its m column
prices, with x_i = min(1, e_i / (R p)_i), so no reduction runs first and no
column is added per user. ``solve_eg`` runs the stages that ``fairshare.eg``
describes, and nearly always its answer carries the program's certificate.
What users entitled to nothing get is decided by ``solve_eg`` alone, in its
last tier. The answer is then verified once, and the report decides what is
saturated and who is justified. That report is the answer: it holds the
allocation, usages, bottlenecks and justifications, and computes its
per-user statuses and report-only checks (Pareto pinning, envy, sharing
incentive) on first access.

The paper's constructive method is kept here as the reference path, used
by ``fairshare trace`` and by the tests, on the instance lifted by one unit
column per user for x_i <= 1. The feasible region
D = {x >= 0 : sum_i x_i r_ij <= 1 for all j} carries the barrier value
f(x) = -sum_j log(1 - sum_i x_i r_ij), which is 0 at the origin and diverges
on the boundary. Raising the level t sweeps a family of smooth shells
f(x) = t that fill D from inside. On each shell there is a point whose
outward normal nu satisfies x_i * nu_i proportional to e_i; stitching those
points together over t defines a curve x(t) from the origin toward the
boundary. Its limit saturates at least one resource and gives every user at
least their entitlement on some saturated resource, i.e. a fair allocation;
the curve is the central path of the Eisenberg-Gale program, so its limit
is the optimum ``solve`` computes directly.

Differentiating the two defining relations in t yields a linear system for
dx/dt (see ``trajectory_derivative``). ``integrate_trajectory`` follows the
curve by predictor-corrector continuation (Allgower & Georg, Introduction to
Numerical Continuation Methods, SIAM Classics 2003, ch. 2-3): one Euler step
along dx/dt predicts the next sample, and a Newton projection corrects it
onto the exact defining system, so level and normal-alignment residuals stay
at round-off instead of accumulating.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import eg
from .model import (
    DEFAULT_TOLERANCES,
    LiftedInstance,
    ProblemInstance,
    ToleranceConfig,
    Violation,
    readonly_array,
    validate_instance,
)
# bench/tracing.py wraps ``preprocess`` and ``lift_solution`` in this module,
# so both stay importable from here although ``solve`` calls neither.
from .reductions import lift_solution, preprocess  # noqa: F401
from .verifier import VerificationReport, verify

__all__ = [
    "DomainBoundaryError",
    "InvalidInstanceError",
    "NumericalDegeneracyError",
    "SolveResult",
    "TrajectoryPoint",
    "gradient",
    "integrate_trajectory",
    "level_value",
    "solve",
    "trajectory_derivative",
]


class DomainBoundaryError(ValueError):
    """Evaluation at a point on or outside the feasible region's boundary."""


class NumericalDegeneracyError(RuntimeError):
    """A trajectory step cannot be taken at this point: a linear system is
    singular or too ill-conditioned, the level derivative is not positive
    (never silently flipped), or the Newton projection stalls."""


class InvalidInstanceError(ValueError):
    """Raised by solve() when the instance fails validation."""

    def __init__(self, violations: list[Violation]):
        super().__init__("; ".join(str(v) for v in violations))
        self.violations = violations


@dataclass(frozen=True, eq=False)
class TrajectoryPoint:
    """One accepted sample of the trajectory, strictly inside the region.

    ``f_value`` is the barrier value at ``x``, equal to the level ``t`` up
    to the projection's residual; ``normal`` is the unit outward normal of
    the level shell at ``x``, with x_i * normal_i proportional to e_i; and
    ``slacks`` holds 1 - sum_i x_i r_ij per column. The arrays are read-only.
    """

    t: float
    x: np.ndarray
    f_value: float
    normal: np.ndarray
    slacks: np.ndarray


@dataclass(frozen=True, eq=False)
class SolveResult:
    report: VerificationReport
    # "converged" when the answer verifies and ``eg.solve_eg`` returned
    # "optimal"; otherwise ``solve_eg``'s own flag: "optimal",
    # "iteration_limit" or "singular".
    termination: str
    # Whether ``solve_eg`` returned "optimal": every program it solved ended
    # on a pair (x(p), p) that carries a face's KKT certificate (printed as
    # "polished" by the CLI).
    polish_applied: bool

    @property
    def solution(self) -> VerificationReport:
        # Only for bench/run.py, which reads ``.solution.allocation``; ROADMAP
        # item 1 moves that reader to ``report`` and retires this alias.
        return self.report


def _slacks_or_raise(inst: LiftedInstance, x: np.ndarray) -> np.ndarray:
    s = 1.0 - x @ inst.requirements
    if not np.min(s) > 0.0:  # written so that NaN fails too
        j = int(np.argmin(s))
        raise DomainBoundaryError(
            f"allocation is not strictly interior: column {inst.column_label(j)} "
            f"has slack {s[j]:.3g}"
        )
    return s


def level_value(inst: LiftedInstance, x: np.ndarray) -> float:
    """Barrier value -sum_j log(slack_j); zero at the origin, +inf on the boundary."""
    x = np.asarray(x, dtype=float)
    s = _slacks_or_raise(inst, x)
    return float(-np.log(s).sum())


def gradient(inst: LiftedInstance, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Raw barrier gradient (sum_j r_ij / slack_j per user) and its unit vector."""
    x = np.asarray(x, dtype=float)
    s = _slacks_or_raise(inst, x)
    g = (inst.requirements / s).sum(axis=1)
    norm = float(np.linalg.norm(g))
    if norm <= 0.0:
        raise NumericalDegeneracyError("zero barrier gradient")
    return g, g / norm


def _system_matrix(r: np.ndarray, x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Matrix of the linearized defining system: diag(g) + diag(x) B B^T."""
    b = r / s
    g = b.sum(axis=1)
    return np.diag(g) + x[:, None] * (b @ b.T)


def trajectory_derivative(inst: LiftedInstance, x: np.ndarray) -> np.ndarray:
    """Direction dx/dt of the trajectory through ``x``.

    With b_ij = r_ij / slack_j, solve
        sum_k v_k (delta_ik * sum_j b_ij + x_i * sum_j b_ij b_kj) = e_i
    as a general dense system (the matrix is not manifestly symmetric), then
    rescale v by the level derivative rho = sum_j (sum_k v_k r_kj) / slack_j
    so the barrier value grows at unit rate along the returned direction.

    The point is not required to lie exactly on the trajectory, so the
    operation can probe arbitrary interior points.
    """
    x = np.asarray(x, dtype=float)
    e = inst.entitlements
    r = inst.requirements
    s = _slacks_or_raise(inst, x)
    m = _system_matrix(r, x, s)
    try:
        v = np.linalg.solve(m, e)
    except np.linalg.LinAlgError as exc:
        raise NumericalDegeneracyError(f"trajectory system is singular: {exc}") from exc
    if not np.all(np.isfinite(v)):
        raise NumericalDegeneracyError("trajectory system produced non-finite values")
    residual = float(np.linalg.norm(m @ v - e))
    if residual > 1e-6 * max(1.0, float(np.linalg.norm(e))):
        raise NumericalDegeneracyError(
            f"trajectory system residual {residual:.3g} exceeds threshold"
        )
    rho = float(((v @ r) / s).sum())
    if rho <= 0.0:
        raise NumericalDegeneracyError(
            f"level derivative {rho:.3g} is not positive at this point"
        )
    return v / rho


# Step controls of the reference integrator: the level budget for the
# columns that do not saturate, the first, smallest and largest step in t,
# and the slack at which it has reached the boundary.
_T_MAX = 34.0
_STEP_INITIAL = 1e-3
_STEP_MIN = 1e-10
_STEP_MAX = 2.0
_SLACK_FLOOR = 1e-8


def _project(
    inst: LiftedInstance, e: np.ndarray, x0: np.ndarray, t: float
) -> np.ndarray:
    """Newton-correct x onto the defining system {x_i g_i = c e_i, f(x) = t}.

    The common ratio c is one more unknown. The Jacobian block for the
    alignment equations is the trajectory system's matrix; one extra
    row/column handles the level constraint and c. Newton steps are taken
    in full, x clipped at 0; one that leaves the region raises
    ``DomainBoundaryError``, on which ``integrate_trajectory`` halves h.
    """
    n = x0.shape[0]
    r = inst.requirements
    x = x0.copy()
    s = _slacks_or_raise(inst, x)
    g = (r / s).sum(axis=1)
    c = float(x @ g)
    best = None
    prev_err = np.inf
    for _ in range(10):
        f_res = x * g - c * e
        level_res = float(-np.log(s).sum() - t)
        scale = max(1.0, abs(c))
        # The level residual is held near-absolutely (<= 2e-7 at acceptance):
        # the barrier value itself is only computable to ~eps/min_slack.
        err = max(float(np.max(np.abs(f_res))) / scale, abs(level_res) / 4.0)
        if best is None or err < best[0]:
            best = (err, x.copy())
        if err <= 1e-13 or err > 0.5 * prev_err:
            break  # converged, or conditioning stops further progress
        prev_err = err
        jac = np.zeros((n + 1, n + 1))
        jac[:n, :n] = _system_matrix(r, x, s)
        jac[:n, n] = -e
        jac[n, :n] = g
        rhs = np.empty(n + 1)
        rhs[:n] = -f_res
        rhs[n] = -level_res
        try:
            delta = np.linalg.solve(jac, rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericalDegeneracyError(str(exc)) from exc
        x = np.clip(x + delta[:n], 0.0, None)
        c += delta[n]
        s = _slacks_or_raise(inst, x)
        g = (r / s).sum(axis=1)
    err, x = best
    # Deep in the boundary layer the Newton system's conditioning caps the
    # attainable residual; 5e-8 still leaves a wide margin under the 1e-6
    # on-trajectory guarantees.
    if err > 5e-8:
        raise NumericalDegeneracyError(f"projection stalled at residual {err:.3g}")
    return x


def _make_point(inst: LiftedInstance, t: float, x: np.ndarray) -> TrajectoryPoint:
    s = 1.0 - x @ inst.requirements
    g = (inst.requirements / s).sum(axis=1)
    return TrajectoryPoint(
        t=t,
        x=readonly_array(x),
        f_value=float(-np.log(s).sum()),
        normal=readonly_array(g / np.linalg.norm(g)),
        slacks=readonly_array(s),
    )


def integrate_trajectory(inst: LiftedInstance) -> tuple[list[TrajectoryPoint], str]:
    """Integrate the trajectory from the origin toward the boundary.

    Expects a lifted instance, such as ``add_dummy_resources(inst)``, whose
    unit columns bound every x_i by 1. For every user with e_i > 0 the
    limit is the allocation ``solve`` computes; a user entitled to nothing
    stays at 0, where ``eg.solve_eg``'s last tier gives such users who
    request no bottleneck what is left of the other columns.

    Each sample at level t is the unique maximiser of sum_i e_i log x_i
    over {f(x) <= t}: the objective is strictly concave, the set is convex,
    and the KKT condition there is x_i g_i = c e_i with f(x) = t, the
    defining system. A step from level t to t + h therefore needs no error
    control of its own: one Euler step along ``trajectory_derivative``
    predicts the sample, and ``_project`` solves for it by Newton. The step
    h doubles after every accepted sample, up to ``_STEP_MAX``, and halves
    wherever the derivative or the projection fails, on a point outside the
    region or on a system it cannot solve.

    Returns the accepted samples and a termination flag. The run stops one
    way: "converged" means the last sample is the first whose smallest
    slack fell below ``_SLACK_FLOOR``, where the barrier value is no longer
    accurately computable and the iterate can move at most by about the
    floor itself. Otherwise the run was cut short, and the samples so far
    are still returned: "t_max_reached" when the level budget runs out, or
    "step_underflow" when no acceptable step exists above the minimum size.
    An instance without users has nothing to integrate and returns no
    samples, "converged".

    The level budget is sized for the slack floor, where the iterate
    settles. Along the trajectory f = t, and the |J| columns that saturate
    together share that level, so their slacks fall like exp(-t/|J|) and
    reach the floor at t ~ |J| log(1/_SLACK_FLOOR) ~ 18.4 |J|. |J| can be
    every column of the lifted instance (two users on three real columns
    can saturate all five), so the budget grants that much per column, plus
    log(1/e) per column for the slow approach of users entitled to little,
    and ``_T_MAX`` for the offset -log(slack) of the columns that do not
    saturate. A smaller grant per column, such as 3 + log(1/e), leaves an
    instance that saturates every column short of the floor.
    """
    e = inst.entitlements
    n = inst.n_users
    if n == 0:
        return [], "converged"
    min_e = float(np.min(e[e > 0.0])) if np.any(e > 0.0) else 1.0
    t_budget = _T_MAX + inst.m * (
        np.log(1.0 / _SLACK_FLOOR) + max(0.0, np.log(1.0 / max(min_e, 1e-12)))
    )

    t = 0.0
    x = np.zeros(n)
    h = _STEP_INITIAL
    points = [_make_point(inst, t, x)]

    while t < t_budget - 1e-12:
        h = min(h, t_budget - t)
        try:
            x_new = _project(inst, e, x + h * trajectory_derivative(inst, x), t + h)
        except (DomainBoundaryError, NumericalDegeneracyError):
            h *= 0.5
            if h < _STEP_MIN:
                return points, "step_underflow"
            continue
        t, x = t + h, x_new
        points.append(_make_point(inst, t, x))
        if float(np.min(points[-1].slacks)) < _SLACK_FLOOR:
            return points, "converged"
        h = min(_STEP_MAX, 2.0 * h)
    return points, "t_max_reached"


def solve(inst: ProblemInstance, tol: ToleranceConfig | None = None) -> SolveResult:
    """Compute a verified fair allocation for ``inst``.

    Pipeline: validate, solve the Eisenberg-Gale program on the instance
    as given with one ``eg.solve_eg`` call, and verify its answer once; the
    verifier's report is the answer. A verification failure is reported in
    the result (with full residuals), never masked as success.
    """
    tol = tol or DEFAULT_TOLERANCES
    violations = validate_instance(inst, tol)
    if violations:
        raise InvalidInstanceError(violations)
    x, _, status = eg.solve_eg(inst.entitlements, inst.requirements, tol.eps_bottleneck)
    report = verify(inst, x, tol)
    return SolveResult(
        report=report,
        termination="converged" if report.passed and status == "optimal" else status,
        polish_applied=status == "optimal",
    )
