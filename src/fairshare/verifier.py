"""Checks that an allocation is fair: the [0, 1] bound on every x_i,
capacity, entitlement-on-a-bottleneck (the no-justified-complaints
condition), Pareto pinning, envy, and the sharing-incentive baseline.

Only the bound, capacity and the complaint check gate overall pass/fail;
``verify`` decides them with whole-array operations: usages, the bottleneck
mask and, per user, the best bottleneck share against the entitlement and
the full-allocation test. Everything else is reported for inspection only:
a report builds its per-user statuses and computes Pareto pinning, envy and
the sharing incentive on first access, and caches them.
Bottlenecks and justifications are decided here alone:
``VerificationReport.to_solution`` packages a ``Solution`` from a report.
The verifier works directly on original (unlifted) instances: a fully
allocated user (x_i = 1) is accepted without needing an artificial resource
to saturate.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .model import (
    DEFAULT_TOLERANCES,
    ProblemInstance,
    Solution,
    ToleranceConfig,
    best_bottlenecks,
    readonly_array,
    usages,
)

__all__ = [
    "CapacityResult",
    "EnvyResult",
    "SharingResult",
    "UserStatus",
    "VerificationReport",
    "check_capacity",
    "check_envy_free",
    "check_njc",
    "check_pareto",
    "check_sharing_incentive",
    "verify",
]

JUSTIFIED = "justified"
FULLY_ALLOCATED = "fully-allocated"
COMPLAINT = "complaint"


@dataclass(frozen=True, eq=False)
class CapacityResult:
    ok: bool
    usages: np.ndarray
    worst_resource: int | None  # 0-based, set when violated
    worst_excess: float


@dataclass(frozen=True)
class UserStatus:
    """Outcome of the complaint check for one user.

    ``margin`` is x_i * r_ij - e_i on the justifying resource (or x_i - 1 for
    a fully allocated user); for complaints it is the best achievable margin
    over the saturated resources. ``non_bottleneck_supports`` lists resources
    where the user does receive their entitlement but which are not
    saturated, i.e. the grounds on which the complaint is justified.
    """

    user: int
    status: str
    resource: int | None
    margin: float
    best_bottleneck: int | None
    non_bottleneck_supports: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return self.status != COMPLAINT


@dataclass(frozen=True, eq=False)
class EnvyResult:
    ok: bool
    worst_pair: tuple[int, int] | None  # (envious user, envied user)
    worst_margin: float
    margins: np.ndarray  # margins[i, j] = x_i - utility(i, bundle_j)


@dataclass(frozen=True, eq=False)
class SharingResult:
    ok: bool
    margins: np.ndarray  # x_i minus what e_i of every resource would yield


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Residual-level account of every fairness condition for one allocation.

    ``out_of_range`` lists the users whose x_i lies outside
    [-eps_feasible, 1 + eps_feasible]. ``justification[i]`` is the resource
    that justifies user i, their best bottleneck, or None when the user is
    fully allocated or complains; it equals ``users[i].resource``.
    ``users``, ``pareto_ok``, ``envy`` and ``sharing`` gate nothing: each
    is computed on first access from the report's own read-only copy of the
    allocation, then cached, so the report stays a pure function of
    (instance, allocation, tolerances).
    """

    passed: bool
    capacity: CapacityResult
    bottlenecks: tuple[int, ...]
    justification: tuple[int | None, ...]
    njc_ok: bool
    out_of_range: tuple[int, ...]
    tolerances: ToleranceConfig
    instance: ProblemInstance = field(repr=False)
    allocation: np.ndarray = field(repr=False)

    @cached_property
    def users(self) -> tuple[UserStatus, ...]:
        return _statuses(self.instance, self.allocation, self.capacity.usages, self.tolerances)

    @cached_property
    def pareto_ok(self) -> bool:
        return check_pareto(self.instance, self.allocation, self.tolerances)

    @cached_property
    def envy(self) -> EnvyResult:
        return check_envy_free(self.instance, self.allocation, self.tolerances)

    @cached_property
    def sharing(self) -> SharingResult:
        return check_sharing_incentive(self.instance, self.allocation, self.tolerances)

    def to_solution(self) -> Solution:
        """The allocation packaged with the bottlenecks and justifications
        this report decided, and the leftover capacity of every resource."""
        return Solution(
            allocation=self.allocation,
            bottlenecks=self.bottlenecks,
            justification=self.justification,
            residuals=1.0 - self.capacity.usages,
        )

    def render(self) -> str:
        inst = self.instance

        def rlabel(j: int | None) -> str:
            return "-" if j is None else inst.resource_label(j)

        ulabel = inst.user_label
        lines = [
            f"allocation: user {ulabel(i)} OUTSIDE [0, 1] "
            f"(x = {self.allocation[i]:.10g})"
            for i in self.out_of_range
        ]
        if self.capacity.ok:
            lines.append("capacity: OK")
        else:
            lines.append(
                f"capacity: VIOLATED at resource {rlabel(self.capacity.worst_resource)} "
                f"(excess {self.capacity.worst_excess:.10g})"
            )
        lines.append(
            "bottlenecks: {%s}" % ", ".join(rlabel(j) for j in self.bottlenecks)
        )
        for st in self.users:
            if st.status == FULLY_ALLOCATED:
                lines.append(f"user {ulabel(st.user)}: fully allocated")
            elif st.status == JUSTIFIED:
                lines.append(
                    f"user {ulabel(st.user)}: justified via resource "
                    f"{rlabel(st.resource)} (margin {st.margin:.10g})"
                )
            else:
                msg = (
                    f"user {ulabel(st.user)}: COMPLAINT, best bottleneck share "
                    f"misses entitlement by {-st.margin:.10g}"
                )
                if st.best_bottleneck is not None:
                    msg += f" (closest on resource {rlabel(st.best_bottleneck)})"
                if st.non_bottleneck_supports:
                    msg += ", entitlement met only on non-bottleneck resource(s) " + (
                        "{%s}" % ", ".join(rlabel(j) for j in st.non_bottleneck_supports)
                    )
                lines.append(msg)
        lines.append(f"pareto: {'OK' if self.pareto_ok else 'FAIL'}")
        if self.envy.worst_pair is not None:
            i, j = self.envy.worst_pair
            lines.append(
                f"envy: {'OK' if self.envy.ok else 'FAIL'} "
                f"(worst margin {self.envy.worst_margin:.10g}, "
                f"user {ulabel(i)} vs user {ulabel(j)})"
            )
        else:
            lines.append("envy: OK (single user)")
        lines.append(
            f"sharing incentive: {'OK' if self.sharing.ok else 'FAIL'} "
            f"(min margin {float(np.min(self.sharing.margins)):.10g})"
        )
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-ready mirror of the report; indices are 1-based.

        The ``out_of_range`` key appears only when some x_i is out of range.
        """
        doc = {
            "passed": self.passed,
            "capacity_ok": self.capacity.ok,
            "usages": [float(u) for u in self.capacity.usages],
            "worst_capacity": None
            if self.capacity.worst_resource is None
            else {
                "resource": self.capacity.worst_resource + 1,
                "excess": self.capacity.worst_excess,
            },
            "bottlenecks": [j + 1 for j in self.bottlenecks],
            "users": [
                {
                    "user": st.user + 1,
                    "status": st.status,
                    "resource": None if st.resource is None else st.resource + 1,
                    "margin": st.margin,
                    "non_bottleneck_supports": [
                        j + 1 for j in st.non_bottleneck_supports
                    ],
                }
                for st in self.users
            ],
            "njc_ok": self.njc_ok,
            "pareto_ok": self.pareto_ok,
            "envy_ok": self.envy.ok,
            "worst_envy": None
            if self.envy.worst_pair is None
            else {
                "user": self.envy.worst_pair[0] + 1,
                "other": self.envy.worst_pair[1] + 1,
                "margin": self.envy.worst_margin,
            },
            "sharing_ok": self.sharing.ok,
            "sharing_margins": [float(v) for v in self.sharing.margins],
        }
        if self.out_of_range:
            doc["out_of_range"] = [
                {"user": i + 1, "x": float(self.allocation[i])} for i in self.out_of_range
            ]
        return doc


def check_capacity(
    inst: ProblemInstance, x: np.ndarray, tol: ToleranceConfig | None = None
) -> CapacityResult:
    """Pass iff every resource's usage stays within 1 + eps_feasible."""
    return _capacity(usages(inst, x), tol or DEFAULT_TOLERANCES)


def _capacity(u: np.ndarray, tol: ToleranceConfig) -> CapacityResult:
    worst = int(np.argmax(u)) if u.size else None
    excess = float(u[worst] - 1.0) if worst is not None else 0.0
    ok = bool(u.size == 0 or u[worst] <= 1.0 + tol.eps_feasible)
    return CapacityResult(
        ok=ok,
        usages=u,
        worst_resource=None if ok else worst,
        worst_excess=0.0 if ok else excess,
    )


def check_njc(
    inst: ProblemInstance, x: np.ndarray, tol: ToleranceConfig | None = None
) -> tuple[UserStatus, ...]:
    """Per-user complaint check: full allocation or entitlement on a bottleneck.

    A user's best bottleneck is the lowest-indexed resource among the
    bottlenecks that give them their largest share (``best_bottlenecks``).
    """
    x = np.asarray(x, dtype=float)
    return _statuses(inst, x, usages(inst, x), tol or DEFAULT_TOLERANCES)


def _statuses(
    inst: ProblemInstance, x: np.ndarray, u: np.ndarray, tol: ToleranceConfig
) -> tuple[UserStatus, ...]:
    # ``entitled`` marks the shares x_i r_ij that meet the entitlement; the
    # bottleneck columns are cleared from it once each user's best one is
    # read, so what is left are a complaining user's non-bottleneck supports.
    e = inst.entitlements
    cols = np.flatnonzero(u >= 1.0 - tol.eps_bottleneck)
    entitled = x[:, None] * inst.requirements >= (e - tol.eps_njc)[:, None]
    full = x >= 1.0 - tol.eps_njc
    if cols.size == 0:
        justified = np.zeros(inst.n_users, dtype=bool)
        margins = -e
        best_list = [None] * inst.n_users
    else:
        best, share = best_bottlenecks(x, inst.requirements, cols)
        justified = share >= e - tol.eps_njc
        entitled[:, cols] = False
        margins = share - e
        best_list = best.tolist()
    margins = np.where(full, x - 1.0, margins)
    statuses: list[UserStatus] = []
    for i, (is_full, ok, j, margin) in enumerate(
        zip(full.tolist(), justified.tolist(), best_list, margins.tolist())
    ):
        if is_full:
            statuses.append(UserStatus(i, FULLY_ALLOCATED, None, margin, None, ()))
        elif ok:
            statuses.append(UserStatus(i, JUSTIFIED, j, margin, j, ()))
        else:
            supports = tuple(np.flatnonzero(entitled[i]).tolist())
            statuses.append(UserStatus(i, COMPLAINT, None, margin, j, supports))
    return tuple(statuses)


def check_pareto(
    inst: ProblemInstance, x: np.ndarray, tol: ToleranceConfig | None = None
) -> bool:
    """Every partially served user must be pinned by a saturated resource it uses."""
    tol = tol or DEFAULT_TOLERANCES
    x = np.asarray(x, dtype=float)
    saturated = usages(inst, x) >= 1.0 - tol.eps_bottleneck
    pinned = (inst.requirements[:, saturated] > 0.0).any(axis=1)
    return bool((pinned | (x >= 1.0 - tol.eps_njc)).all())


def check_envy_free(
    inst: ProblemInstance, x: np.ndarray, tol: ToleranceConfig | None = None
) -> EnvyResult:
    """margins[i, j] = x_i - (what user i could run from user j's bundle).

    Row i equals ``x_i - utility(inst, i, x_j * r_j)`` for every j, computed
    for all bundles at once.
    """
    tol = tol or DEFAULT_TOLERANCES
    x = np.asarray(x, dtype=float)
    n = inst.n_users
    r = inst.requirements
    bundles = x[:, None] * r
    margins = np.zeros((n, n))
    for i in range(n):
        mask = r[i] > 0.0
        if mask.any():
            runs = np.minimum(1.0, (bundles[:, mask] / r[i, mask]).min(axis=1))
        else:
            runs = 1.0  # a user who requests nothing runs fully on any bundle
        margins[i] = x[i] - runs
        margins[i, i] = 0.0
    worst: tuple[int, int] | None = None
    worst_margin = 0.0
    if n > 1:
        # The first smallest off-diagonal entry in row-major order.
        off_diagonal = margins.copy()
        np.fill_diagonal(off_diagonal, np.inf)
        k = int(np.argmin(off_diagonal))
        worst = (k // n, k % n)
        worst_margin = float(off_diagonal.flat[k])
    margins.setflags(write=False)
    return EnvyResult(
        ok=bool(worst is None or worst_margin >= -tol.eps_njc),
        worst_pair=worst,
        worst_margin=worst_margin,
        margins=margins,
    )


def check_sharing_incentive(
    inst: ProblemInstance, x: np.ndarray, tol: ToleranceConfig | None = None
) -> SharingResult:
    """Each user must do at least as well as owning e_i of every resource.

    Owning the e_i slice lets user i execute min over requested resources of
    min(1, e_i / r_ij); a user requesting nothing gets baseline 1.
    """
    tol = tol or DEFAULT_TOLERANCES
    x = np.asarray(x, dtype=float)
    r = inst.requirements
    # Resources a user does not request contribute 1, which leaves the
    # minimum of the requested ones, or 1 when there are none, unchanged.
    ratios = np.divide(inst.entitlements[:, None], r, out=np.ones_like(r), where=r > 0.0)
    margins = x - np.minimum(1.0, ratios).min(axis=1, initial=1.0)
    ok = bool(np.all(margins >= -tol.eps_njc))
    margins.setflags(write=False)
    return SharingResult(ok=ok, margins=margins)


def verify(
    inst: ProblemInstance, x: np.ndarray, tol: ToleranceConfig | None = None
) -> VerificationReport:
    """Check the bound on every x_i, capacity and complaints, which decide
    the verdict; the report builds its per-user statuses and computes its
    report-only checks on first access.

    Deterministic and side-effect free: the report is a pure function of
    (instance, allocation, tolerances), and later changes to ``x`` do not
    reach it.
    """
    tol = tol or DEFAULT_TOLERANCES
    x = readonly_array(x)
    u = usages(inst, x)
    capacity = _capacity(u, tol)
    cols = np.flatnonzero(u >= 1.0 - tol.eps_bottleneck)
    full = x >= 1.0 - tol.eps_njc
    if cols.size:
        best, share = best_bottlenecks(x, inst.requirements, cols)
        justified = (share >= inst.entitlements - tol.eps_njc) & ~full
        njc_ok = bool((justified | full).all())
        justification = tuple(
            [j if ok else None for j, ok in zip(best.tolist(), justified.tolist())]
        )
    else:
        njc_ok = bool(full.all())
        justification = (None,) * inst.n_users
    # Written so that NaN is out of range too.
    in_range = (x >= -tol.eps_feasible) & (x <= 1.0 + tol.eps_feasible)
    out_of_range = tuple(np.flatnonzero(~in_range).tolist())
    return VerificationReport(
        passed=bool(capacity.ok and njc_ok and not out_of_range),
        capacity=capacity,
        bottlenecks=tuple(cols.tolist()),
        justification=justification,
        njc_ok=njc_ok,
        out_of_range=out_of_range,
        tolerances=tol,
        instance=inst,
        allocation=x,
    )
