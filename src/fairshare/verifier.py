"""Checks that an allocation is fair: the [0, 1] bound on every x_i,
capacity, entitlement-on-a-bottleneck (the no-justified-complaints
condition), Pareto pinning, envy, and the sharing-incentive baseline.

``verify`` decides, once and with whole-array operations, which resources
are saturated, who is fully allocated, each user's best bottleneck and who
is justified; only the bound, capacity and the complaint check gate overall
pass/fail. The report keeps that verdict, and everything else reads it: the
per-user statuses and Pareto pinning are built from it on first access, as
are envy and the sharing incentive. The report is the one record of an
answer: ``solve`` returns it as it is, and the leftover capacity of resource
j is ``1 - report.capacity.usages[j]``. The verifier works directly on
original (unlifted) instances: a fully allocated user (x_i = 1) is accepted
without needing an artificial resource to saturate.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .model import (
    DEFAULT_TOLERANCES,
    ProblemInstance,
    ToleranceConfig,
    readonly_array,
    usages,
)

__all__ = [
    "CapacityResult",
    "EnvyResult",
    "SharingResult",
    "UserStatus",
    "VerificationReport",
    "check_envy_free",
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

    ``bottlenecks`` lists the saturated resources in ascending order.
    ``out_of_range`` lists the users whose x_i lies outside
    [-eps_feasible, 1 + eps_feasible]. ``justification[i]`` is the resource
    that justifies user i, their best bottleneck, or None when the user is
    fully allocated or complains; it equals ``users[i].resource``.
    ``users``, ``pareto_ok``, ``envy`` and ``sharing`` gate nothing: each
    is computed on first access from the report's verdict and its own
    read-only copy of the allocation, then cached, so the report stays a
    pure function of (instance, allocation, tolerances).
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
    # The rest of the verdict, per user: fully allocated or not, the best
    # bottleneck (None when nothing saturates) and the share on it.
    _full: np.ndarray = field(repr=False)
    _best: tuple[int | None, ...] = field(repr=False)
    _share: np.ndarray | None = field(repr=False)

    @cached_property
    def users(self) -> tuple[UserStatus, ...]:
        inst, x, e = self.instance, self.allocation, self.instance.entitlements
        margins = -e if self._share is None else self._share - e
        margins = np.where(self._full, x - 1.0, margins)
        # A complaining user's non-bottleneck supports: the resources on
        # which the share x_i r_ij meets the entitlement. None of them is
        # saturated, or the user would be justified.
        entitled = x[:, None] * inst.requirements >= (e - self.tolerances.eps_njc)[:, None]
        statuses: list[UserStatus] = []
        for i, (full, j, best, margin) in enumerate(
            zip(self._full.tolist(), self.justification, self._best, margins.tolist())
        ):
            if full:
                statuses.append(UserStatus(i, FULLY_ALLOCATED, None, margin, None, ()))
            elif j is not None:
                statuses.append(UserStatus(i, JUSTIFIED, j, margin, j, ()))
            else:
                supports = tuple(np.flatnonzero(entitled[i]).tolist())
                statuses.append(UserStatus(i, COMPLAINT, None, margin, best, supports))
        return tuple(statuses)

    @cached_property
    def pareto_ok(self) -> bool:
        """Every partially served user is pinned by a saturated resource it uses."""
        r = self.instance.requirements[:, list(self.bottlenecks)]
        return bool(((r > 0.0).any(axis=1) | self._full).all())

    @cached_property
    def envy(self) -> EnvyResult:
        return check_envy_free(self.instance, self.allocation, self.tolerances)

    @cached_property
    def sharing(self) -> SharingResult:
        return check_sharing_incentive(self.instance, self.allocation, self.tolerances)

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
        # The first smallest off-diagonal entry in row-major order, found
        # with the diagonal masked in place rather than in an N x N copy.
        np.fill_diagonal(margins, np.inf)
        k = int(margins.argmin())
        worst = (k // n, k % n)
        worst_margin = float(margins.flat[k])
        np.fill_diagonal(margins, 0.0)
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
    worst = int(u.argmax()) if u.size else None
    capacity_ok = worst is None or bool(u[worst] <= 1.0 + tol.eps_feasible)
    cols = (u >= 1.0 - tol.eps_bottleneck).nonzero()[0]
    full = x >= 1.0 - tol.eps_njc
    if cols.size:
        # A user's best bottleneck is the lowest-indexed one among those
        # that give them their largest share.
        shares = x[:, None] * inst.requirements.take(cols, axis=1)
        pick = shares.argmax(axis=1)
        share = shares[np.arange(inst.n_users), pick]
        best = tuple(cols[pick].tolist())
        justified = (share >= inst.entitlements - tol.eps_njc) & ~full
        njc_ok = bool((justified | full).all())
        justification = tuple(
            [j if ok else None for j, ok in zip(best, justified.tolist())]
        )
    else:
        share = None
        best = justification = (None,) * inst.n_users
        njc_ok = bool(full.all())
    # Written so that NaN is out of range too.
    in_range = (x >= -tol.eps_feasible) & (x <= 1.0 + tol.eps_feasible)
    out_of_range = tuple((~in_range).nonzero()[0].tolist())
    return VerificationReport(
        passed=bool(capacity_ok and njc_ok and not out_of_range),
        capacity=CapacityResult(
            ok=capacity_ok,
            usages=u,
            worst_resource=None if capacity_ok else worst,
            worst_excess=0.0 if capacity_ok else float(u[worst] - 1.0),
        ),
        bottlenecks=tuple(cols.tolist()),
        justification=justification,
        njc_ok=njc_ok,
        out_of_range=out_of_range,
        tolerances=tol,
        instance=inst,
        allocation=x,
        _full=full,
        _best=best,
        _share=share,
    )
