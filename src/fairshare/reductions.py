"""The paper's reductions, which its ODE existence proof needs.

Pipeline: append one unit-demand artificial column per user, drop columns
that can never saturate (total demand below capacity), repeatedly grant and
remove users who request less than their entitlement everywhere (rescaling
the remaining entitlements and per-column capacities). Every step is
recorded in a ReductionTrace so the reduced solution can be lifted back.

No path of the program runs them: ``solve`` and ``fairshare trace`` both
work on ``model.add_dummy_resources(inst)``, the instance as given. They
stay for the tests, which compare reduced and unreduced answers, and for
the benchmark's tracer, which wraps ``preprocess``, ``lift_solution`` and
``remove_dominated_constraints`` by name.

Columns implied by the others are not removed by the pipeline: such a
column can never saturate, so it is never a bottleneck and leaves the
answer unchanged. ``remove_dominated_constraints`` finds them on request.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp
from .model import (
    DEFAULT_TOLERANCES,
    ColumnKey,
    LiftedInstance,
    ProblemInstance,
    ToleranceConfig,
    add_dummy_resources,
)
from .verifier import VerificationReport, verify

__all__ = [
    "Elimination",
    "InfeasibleEliminationError",
    "LiftConsistencyError",
    "ReductionTrace",
    "drop_slack_resources",
    "eliminate_satisfied_users",
    "lift_solution",
    "preprocess",
    "remove_dominated_constraints",
]


class InfeasibleEliminationError(ValueError):
    """A granted user exhausted a column that remaining users still need."""


class LiftConsistencyError(RuntimeError):
    """A lifted solution failed verification on the original instance."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class Elimination:
    """One granted-user removal with the rescaling factors it applied."""

    user: int  # original user index
    entitlement_divisor: float  # 1 - e_i at elimination time
    column_divisors: tuple[tuple[ColumnKey, float], ...]


@dataclass(frozen=True, eq=False)
class ReductionTrace:
    original: ProblemInstance
    dropped_slack: tuple[ColumnKey, ...]
    eliminations: tuple[Elimination, ...]
    removed_dominated: tuple[ColumnKey, ...]  # always (); preprocess keeps them
    final: LiftedInstance


@dataclass
class _Work:
    """Mutable reduction state; columns are addressed by stable keys."""

    base: ProblemInstance
    e: np.ndarray
    r: np.ndarray
    users: list[int]
    cols: list[ColumnKey]

    def to_lifted(self) -> LiftedInstance:
        return LiftedInstance(
            base=self.base,
            entitlements=self.e,
            requirements=self.r,
            column_origin=tuple(self.cols),
            user_origin=tuple(self.users),
        )

    def drop_columns(self, keys: list[ColumnKey]) -> None:
        keep = [k for k, key in enumerate(self.cols) if key not in keys]
        self.r = self.r[:, keep]
        self.cols = [self.cols[k] for k in keep]


def _work_from_lifted(inst: LiftedInstance) -> _Work:
    return _Work(
        base=inst.base,
        e=np.array(inst.entitlements),
        r=np.array(inst.requirements),
        users=list(inst.user_origin),
        cols=list(inst.column_origin),
    )


def _slack_columns(work: _Work, tol: ToleranceConfig) -> list[ColumnKey]:
    sums = work.r.sum(axis=0)
    return [
        key
        for k, key in enumerate(work.cols)
        if key[0] == "real" and sums[k] < 1.0 - tol.eps_input
    ]


def drop_slack_resources(
    inst: LiftedInstance, tol: ToleranceConfig | None = None
) -> tuple[LiftedInstance, tuple[ColumnKey, ...]]:
    """Remove real columns whose total demand cannot reach capacity.

    Such a column stays strictly under capacity for every allocation, so any
    solution of the reduced system remains a solution with it added back.
    Artificial columns always have total demand exactly 1 and are kept.
    """
    tol = tol or DEFAULT_TOLERANCES
    work = _work_from_lifted(inst)
    dropped = _slack_columns(work, tol)
    work.drop_columns(dropped)
    return work.to_lifted(), tuple(dropped)


def _eliminable_user(work: _Work, tol: ToleranceConfig) -> int | None:
    """Lowest row index whose every real request is below their entitlement."""
    real = [k for k, key in enumerate(work.cols) if key[0] == "real"]
    for row in range(len(work.users)):
        if all(work.r[row, k] < work.e[row] for k in real):
            return row
    return None


def _apply_elimination(work: _Work, row: int, tol: ToleranceConfig) -> Elimination:
    """Grant user ``row`` everything and rescale what remains.

    Entitlements of the survivors are divided by (1 - e_i); each column's
    requests are divided by (1 - r_ij), the capacity fraction that survives
    the grant.
    """
    user = work.users[row]
    e_i = float(work.e[row])
    req_row = work.r[row].copy()

    keep_users = [k for k in range(len(work.users)) if k != row]
    own_dummy = ("dummy", user)
    keep_cols = [k for k, key in enumerate(work.cols) if key != own_dummy]

    col_keys = [work.cols[k] for k in keep_cols]
    ent_div = 1.0 - e_i
    col_divs = [1.0 - float(req_row[k]) for k in keep_cols]

    e = work.e[keep_users]
    r = work.r[np.ix_(keep_users, keep_cols)].copy()
    if ent_div > tol.eps_input:
        e = e / ent_div
    elif len(keep_users):
        # Granted user held the entire entitlement; the rest all have e = 0
        # and are vacuously satisfiable, so renormalize uniformly.
        e = np.full(len(keep_users), 1.0 / len(keep_users))
    for k, div in enumerate(col_divs):
        if div > tol.eps_input:
            r[:, k] = r[:, k] / div
        else:
            # Column capacity fully consumed by the granted user.
            if np.any(r[:, k] > tol.eps_input):
                key = col_keys[k]
                raise InfeasibleEliminationError(
                    f"column {key} is exhausted by granting user {user + 1} "
                    "but other users still request it"
                )
            r[:, k] = 0.0

    work.e = e
    work.r = r
    work.users = [work.users[k] for k in keep_users]
    work.cols = col_keys

    # Columns whose demand fell below capacity are dropped again.
    work.drop_columns(_slack_columns(work, tol))
    return Elimination(
        user=user,
        entitlement_divisor=ent_div,
        column_divisors=tuple(zip(col_keys, col_divs)),
    )


def eliminate_satisfied_users(
    inst: LiftedInstance, tol: ToleranceConfig | None = None
) -> tuple[LiftedInstance, tuple[Elimination, ...]]:
    """Repeatedly grant-and-remove users below their entitlement everywhere.

    Scans users in ascending index order and restarts after each removal;
    terminates because the user count strictly decreases. Requires slack
    columns to have been dropped first (otherwise a user may look
    unsatisfiable on a column that can never saturate).
    """
    tol = tol or DEFAULT_TOLERANCES
    work = _work_from_lifted(inst)
    steps: list[Elimination] = []
    while True:
        row = _eliminable_user(work, tol)
        if row is None:
            break
        steps.append(_apply_elimination(work, row, tol))
    return work.to_lifted(), tuple(steps)


def remove_dominated_constraints(
    inst: LiftedInstance,
    tol: ToleranceConfig | None = None,
) -> tuple[LiftedInstance, tuple[ColumnKey, ...]]:
    """Drop capacity rows strictly implied by the remaining ones.

    Column j is dominated when maximizing its usage subject to every other
    remaining column (over x >= 0; the artificial columns supply the x_i <= 1
    caps) stays strictly below capacity. Exact ties are kept: a column whose
    probe reaches exactly 1 can still saturate at a solution, and removing it
    would discard a potential bottleneck. Columns are scanned in ascending
    index order and the scan restarts after each removal, so the outcome is
    deterministic even though a different order could yield a different
    (equally valid) system. Artificial columns participate.
    """
    tol = tol or DEFAULT_TOLERANCES
    work = _work_from_lifted(inst)
    removed: list[ColumnKey] = []
    upper = [None] * len(work.users)
    changed = True
    while changed:
        changed = False
        for k in range(len(work.cols)):
            others = [
                (work.r[:, kk], 1.0, "<=") for kk in range(len(work.cols)) if kk != k
            ]
            result = lp.maximize(work.r[:, k], others, upper)
            if result.status == "unbounded":
                continue
            if result.status != "optimal":
                raise RuntimeError(
                    f"domination probe for column {work.cols[k]} returned "
                    f"{result.status}"
                )
            if result.value <= 1.0 - tol.eps_feasible:
                removed.append(work.cols[k])
                work.drop_columns([work.cols[k]])
                changed = True
                break
    return work.to_lifted(), tuple(removed)


def preprocess(
    inst: ProblemInstance,
    tol: ToleranceConfig | None = None,
) -> tuple[LiftedInstance, ReductionTrace]:
    """Full reduction pipeline; the trace makes every step auditable."""
    tol = tol or DEFAULT_TOLERANCES
    lifted = add_dummy_resources(inst)
    lifted, dropped = drop_slack_resources(lifted, tol)
    lifted, eliminations = eliminate_satisfied_users(lifted, tol)
    trace = ReductionTrace(
        original=inst,
        dropped_slack=dropped,
        eliminations=eliminations,
        removed_dominated=(),
        final=lifted,
    )
    return lifted, trace


def lift_solution(
    trace: ReductionTrace,
    x_reduced: np.ndarray,
    tol: ToleranceConfig | None = None,
) -> VerificationReport:
    """Map a reduced-system allocation back onto the original instance.

    Granted (eliminated) users receive x_i = 1; survivors keep their scale
    factor unchanged, because the entitlement and capacity rescalings cancel.
    The lifted allocation is verified on the original instance, and that
    report is returned; raises ``LiftConsistencyError``, carrying the
    report, when it fails.
    """
    tol = tol or DEFAULT_TOLERANCES
    inst = trace.original
    reduced = trace.final
    x_red = np.asarray(x_reduced, dtype=float)
    if x_red.shape != (reduced.n_users,):
        raise ValueError(
            f"reduced allocation has shape {x_red.shape}, expected ({reduced.n_users},)"
        )
    x = np.ones(inst.n_users)
    for row, user in enumerate(reduced.user_origin):
        x[user] = x_red[row]
    report = verify(inst, x, tol)
    if not report.passed:
        raise LiftConsistencyError(
            "lifted solution failed verification on the original instance "
            "(tolerance mismatch or internal bug):\n" + report.render(),
            report=report,
        )
    return report
