"""Solver for entitlement-proportional fair allocation.

``solve`` computes the allocation as the optimum of the Eisenberg-Gale
program (``fairshare.eg``) on the instance as given, lifted only by one unit
column per user for x_i <= 1. The optimum grants in full every user who
requests less than their entitlement everywhere, so no reduction runs first,
and ``solve_eg`` ends, nearly always, on a face Newton point that carries
the program's KKT certificate. Users who request nothing get x_i = 1. Where no resource
saturates and users entitled to nothing still request something, they share
the leftover capacity in one more program with equal entitlements.
Verification computes what decides the verdict, and its report packages
the ``Solution`` (usages, bottlenecks, justifications); the
per-user statuses and the report-only checks (Pareto pinning, envy, sharing
incentive) are computed on first access.

The paper's constructive method is kept here as the reference path, used
by ``fairshare trace`` and by the tests, on the same lifted instance as
``solve``. The feasible region
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
dx/dt (see ``trajectory_derivative``), which an embedded RK4(5) pair
integrates adaptively (``integrate_trajectory``). After every accepted step
a Newton projection pulls the iterate back onto the exact defining system,
so level and normal-alignment residuals stay at round-off instead of
accumulating.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import eg
from .model import (
    DEFAULT_TOLERANCES,
    LiftedInstance,
    ProblemInstance,
    Solution,
    ToleranceConfig,
    Violation,
    add_dummy_resources,
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
    "TrajectoryDirectionError",
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
    """The trajectory linear system is singular or too ill-conditioned."""


class TrajectoryDirectionError(RuntimeError):
    """The level derivative came out non-positive; never silently flipped."""


class InvalidInstanceError(ValueError):
    """Raised by solve() when the instance fails validation."""

    def __init__(self, violations: list[Violation]):
        super().__init__("; ".join(str(v) for v in violations))
        self.violations = violations


@dataclass(frozen=True, eq=False)
class TrajectoryPoint:
    """One accepted sample of the trajectory, strictly inside the region.

    ``normal`` is the unit outward normal of the level shell at ``x`` and
    ``normalization`` the common ratio kappa with x_i * normal_i = kappa * e_i.
    """

    t: float
    x: np.ndarray
    f_value: float
    normal: np.ndarray
    normalization: float
    slacks: np.ndarray


@dataclass(frozen=True, eq=False)
class SolveResult:
    solution: Solution
    report: VerificationReport
    # "converged" when the answer verifies; otherwise "step_underflow" when
    # the interior point met a singular Newton system, else "t_max_reached".
    termination: str
    # Whether every program solved ended on a face Newton point that carries
    # the KKT certificate (printed as "polished" by the CLI).
    polish_applied: bool

    @property
    def ok(self) -> bool:
        return self.report.passed


def _slacks_or_raise(inst: LiftedInstance, x: np.ndarray) -> np.ndarray:
    s = 1.0 - x @ inst.requirements
    if np.min(s) <= 0.0:
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


def trajectory_derivative(
    inst: LiftedInstance,
    x: np.ndarray,
    entitlements: np.ndarray | None = None,
) -> np.ndarray:
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
    e = inst.entitlements if entitlements is None else np.asarray(entitlements, float)
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
        raise TrajectoryDirectionError(
            f"level derivative {rho:.3g} is not positive at this point"
        )
    return v / rho


# Step controls of the reference integrator: the level budget for the decay
# of the saturating slacks, the first, smallest and largest step in t, the
# RK error tolerances, the movement below which the iterate has converged,
# the slack at which it has reached the boundary, and the largest acceptable
# condition estimate of the trajectory system.
_T_MAX = 34.0
_STEP_INITIAL = 1e-3
_STEP_MIN = 1e-10
_STEP_MAX = 2.0
_RK_RTOL = 1e-8
_RK_ATOL = 1e-10
_CONVERGENCE_TOL = 1e-9
_SLACK_FLOOR = 1e-8
_MAX_CONDITION = 1e30

# Embedded Runge-Kutta-Fehlberg 4(5) pair; the 5th-order solution is
# propagated and the 4th-order one supplies the error estimate.
_RK_A = (
    np.array([]),
    np.array([1 / 4]),
    np.array([3 / 32, 9 / 32]),
    np.array([1932 / 2197, -7200 / 2197, 7296 / 2197]),
    np.array([439 / 216, -8.0, 3680 / 513, -845 / 4104]),
    np.array([-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40]),
)
_RK_B5 = np.array([16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55])
_RK_B4 = np.array([25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0])


class _ProjectionError(RuntimeError):
    pass


def _project(
    inst: LiftedInstance,
    e: np.ndarray,
    x0: np.ndarray,
    t: float,
) -> tuple[np.ndarray, float]:
    """Newton-correct x onto the defining system {x_i g_i = c e_i, f(x) = t}.

    Returns the corrected point and the raw normalization scalar c. The
    Jacobian block for the alignment equations is the same matrix used for
    the trajectory derivative; one extra row/column handles the level
    constraint and the unknown c.
    """
    n = x0.shape[0]
    r = inst.requirements
    x = x0.copy()
    s = _slacks_or_raise(inst, x)
    b = r / s
    g = b.sum(axis=1)
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
            best = (err, x.copy(), c)
        if err <= 1e-13 or err > 0.5 * prev_err:
            break  # converged, or conditioning stops further progress
        prev_err = err
        jac = np.zeros((n + 1, n + 1))
        jac[:n, :n] = np.diag(g) + x[:, None] * (b @ b.T)
        jac[:n, n] = -e
        jac[n, :n] = g
        rhs = np.empty(n + 1)
        rhs[:n] = -f_res
        rhs[n] = -level_res
        try:
            delta = np.linalg.solve(jac, rhs)
        except np.linalg.LinAlgError as exc:
            raise _ProjectionError(str(exc)) from exc
        step = 1.0
        for _ in range(60):
            x_new = x + step * delta[:n]
            s_new = 1.0 - x_new @ r
            if np.min(s_new) > 0.0 and np.min(x_new) > -1e-15:
                break
            step *= 0.5
        else:
            raise _ProjectionError("projection step cannot stay interior")
        x = np.clip(x_new, 0.0, None)
        c += step * delta[n]
        s = 1.0 - x @ r
        b = r / s
        g = b.sum(axis=1)
    err, x, c = best
    # Deep in the boundary layer the Newton system's conditioning caps the
    # attainable residual; 5e-8 still leaves a wide margin under the 1e-6
    # on-trajectory guarantees.
    if err > 5e-8:
        raise _ProjectionError(f"projection stalled at residual {err:.3g}")
    return x, c


def _make_point(
    inst: LiftedInstance, t: float, x: np.ndarray, c: float
) -> TrajectoryPoint:
    s = 1.0 - x @ inst.requirements
    g = (inst.requirements / s).sum(axis=1)
    norm = float(np.linalg.norm(g))
    x_ro = x.copy()
    x_ro.setflags(write=False)
    s_ro = s.copy()
    s_ro.setflags(write=False)
    nu = g / norm
    nu.setflags(write=False)
    return TrajectoryPoint(
        t=t,
        x=x_ro,
        f_value=float(-np.log(s).sum()),
        normal=nu,
        normalization=c / norm,
        slacks=s_ro,
    )


def integrate_trajectory(inst: LiftedInstance) -> tuple[list[TrajectoryPoint], str]:
    """Integrate the trajectory from the origin toward the level ``_T_MAX``.

    Expects a lifted instance, such as ``add_dummy_resources(inst)``, whose
    unit columns bound every x_i by 1. For every user with e_i > 0 the
    limit is the allocation ``solve`` computes; a user entitled to nothing
    stays at 0, where ``solve`` gives such users the leftover capacity.

    Returns the accepted samples and a termination flag: "converged" when
    the iterate stops moving between level doublings (checked at t = 1, 2,
    4, ...) or when it contacts the boundary, "t_max_reached" when the level
    budget runs out, or "step_underflow" when no acceptable step exists
    above the minimum size (the partial trajectory is still returned).

    ``_T_MAX`` budgets the decay of the saturating slacks; the effective
    budget adds headroom that grows with the column count (each column
    contributes a constant barrier offset -log(final slack)) and with the
    smallest positive entitlement (a saturating column's slack behaves like
    exp(-t/|J|) / e_i, so users entitled to very little approach their limit
    very slowly). Termination almost always comes from the convergence tests
    well before the budget runs out.
    """
    e = inst.entitlements
    n = inst.n_users
    if n == 0:
        return [], "converged"
    min_e = float(np.min(e[e > 0.0])) if np.any(e > 0.0) else 1.0
    t_budget = _T_MAX + inst.m * (3.0 + max(0.0, np.log(1.0 / max(min_e, 1e-12))))

    t = 0.0
    x = np.zeros(n)
    c = 0.0
    h = _STEP_INITIAL
    points = [_make_point(inst, t, x, c)]
    next_checkpoint = 1.0
    checkpoint_x: np.ndarray | None = None
    termination = "t_max_reached"

    while t < t_budget - 1e-12:
        h = min(h, t_budget - t)
        if next_checkpoint > t:
            h = min(h, next_checkpoint - t)
        try:
            k = np.empty((6, n))
            k[0] = trajectory_derivative(inst, x)
            # The speed along the trajectory only decays as the boundary
            # nears, so once even moving at the current speed for the whole
            # remaining budget could not shift x measurably, the iterate has
            # converged for all practical purposes.
            if t > 0.0 and float(np.max(np.abs(k[0]))) * (t_budget - t) < _CONVERGENCE_TOL:
                termination = "converged"
                break
            for stage in range(1, 6):
                xs = x + h * (_RK_A[stage] @ k[:stage])
                k[stage] = trajectory_derivative(inst, xs)
            x5 = x + h * (_RK_B5 @ k)
            err_vec = h * ((_RK_B5 - _RK_B4) @ k)
            scale = _RK_ATOL + _RK_RTOL * np.maximum(np.abs(x), np.abs(x5))
            err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
            if err <= 1.0:
                t_new = t + h
                x_new, c_new = _project(inst, e, x5, t_new)
                cond = float(np.linalg.cond(_system_matrix(
                    inst.requirements, x_new, 1.0 - x_new @ inst.requirements)))
                if not np.isfinite(cond) or cond > _MAX_CONDITION:
                    raise NumericalDegeneracyError(
                        f"condition estimate {cond:.3g} above threshold"
                    )
                t, x, c = t_new, x_new, c_new
                points.append(_make_point(inst, t, x, c))
                # Below the slack floor the barrier value is no longer
                # accurately computable and the iterate can move at most by
                # about the floor itself; treat boundary contact as settled.
                if float(np.min(points[-1].slacks)) < _SLACK_FLOOR:
                    termination = "converged"
                    break
                if err > 0.0:
                    h = min(_STEP_MAX, h * min(5.0, max(0.2, 0.9 * err ** -0.2)))
                else:
                    h = min(_STEP_MAX, h * 5.0)
                if abs(t - next_checkpoint) <= 1e-9:
                    if checkpoint_x is not None and (
                        float(np.max(np.abs(x - checkpoint_x))) < _CONVERGENCE_TOL
                    ):
                        termination = "converged"
                        break
                    checkpoint_x = x.copy()
                    next_checkpoint *= 2.0
                continue
            h *= max(0.2, 0.9 * err ** -0.2)
        except (
            DomainBoundaryError,
            NumericalDegeneracyError,
            TrajectoryDirectionError,
            _ProjectionError,
        ):
            h *= 0.5
        if h < _STEP_MIN:
            termination = "step_underflow"
            break
    return points, termination


def solve(inst: ProblemInstance, tol: ToleranceConfig | None = None) -> SolveResult:
    """Compute a verified fair allocation for ``inst``.

    Pipeline: validate, solve the Eisenberg-Gale program on the instance
    with one unit column per user, grant users who request nothing in full,
    verify, and package the solution from the verifier's report. A
    verification failure is reported in the result (with full residuals),
    never masked as success.
    """
    tol = tol or DEFAULT_TOLERANCES
    violations = validate_instance(inst, tol)
    if violations:
        raise InvalidInstanceError(violations)

    r = inst.requirements
    x, _, status, on_face = eg.solve_eg(add_dummy_resources(inst))
    requests = r.any(axis=1)
    unentitled = requests & (inst.entitlements == 0.0)
    usage = x @ r
    if unentitled.any() and not (usage >= 1.0 - tol.eps_bottleneck).any():
        # Nothing saturates, so everyone entitled to something is granted in
        # full, and a user entitled to nothing who gets nothing would
        # complain. Those users share what is left with equal entitlements,
        # as the reduction's elimination renormalises them. At this optimum
        # every user short of 1 has a saturated resource, so one program is
        # enough.
        k = int(unentitled.sum())
        rest = ProblemInstance(
            entitlements=np.full(k, 1.0 / k), requirements=r[unentitled] / (1.0 - usage)
        )
        x_rest, _, rest_status, rest_on_face = eg.solve_eg(add_dummy_resources(rest))
        x[unentitled] = x_rest
        on_face = on_face and rest_on_face
        if status == "optimal":
            status = rest_status
    # Users who request nothing are fully satisfied by definition.
    x[~requests] = 1.0

    report = verify(inst, x, tol)
    if report.passed:
        termination = "converged"
    else:
        termination = "step_underflow" if status == "singular" else "t_max_reached"
    return SolveResult(
        solution=report.to_solution(),
        report=report,
        termination=termination,
        polish_applied=on_face,
    )
