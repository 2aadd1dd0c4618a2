"""Domain model for entitlement-based sharing of divisible resources.

An instance has N users and m' resources. User i is entitled to a fraction
e_i of the system (entitlements sum to 1) and would consume a fraction r_ij
of resource j if fully granted. An allocation is one scale factor x_i in
[0, 1] per user, applied uniformly to all of that user's requests, so the
total load on resource j is sum_i x_i * r_ij.

All types are immutable after construction and all operations are pure, so
instances and allocations can be shared freely across threads. The model
states no fairness rule: which resources saturate, who is fully allocated
and who is justified is decided by ``fairshare.verifier``'s report alone.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "LiftedInstance",
    "ProblemInstance",
    "ToleranceConfig",
    "Violation",
    "add_dummy_resources",
    "usages",
    "utility",
    "validate_instance",
]

ColumnKey = tuple[str, int]


def readonly_array(values, dtype=float) -> np.ndarray:
    """Copy ``values`` into a read-only numpy array."""
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ToleranceConfig:
    """Numeric tolerances used across the library.

    ``eps_input`` is the slack allowed on the entitlement sum (and the
    reductions' threshold for a column or entitlement that is used up),
    ``eps_feasible`` bounds acceptable capacity overshoot and the [0, 1]
    bound on every x_i, ``eps_bottleneck`` decides when a resource counts
    as saturated, and ``eps_njc`` is the slack allowed when testing whether
    a user received their entitlement or everything. The reference
    trajectory (``solver.integrate_trajectory``) reads none of them: its
    level budget and step controls are constants of the solver.
    """

    eps_input: float = 1e-9
    eps_feasible: float = 1e-9
    eps_bottleneck: float = 1e-6
    eps_njc: float = 1e-6

    def __post_init__(self) -> None:
        for f in fields(self):
            # Written so that NaN fails too.
            if not getattr(self, f.name) > 0.0:
                raise ValueError(f"tolerance {f.name!r} must be strictly positive")
        if self.eps_feasible > self.eps_bottleneck:
            raise ValueError("eps_feasible must not exceed eps_bottleneck")


DEFAULT_TOLERANCES = ToleranceConfig()


@dataclass(frozen=True)
class Violation:
    """One failed instance invariant: which field, where, and by how much."""

    field: str
    index: int | None
    residual: float
    message: str

    def __str__(self) -> str:
        return self.message


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """N users with entitlements sharing m' resources with fixed request profiles."""

    entitlements: np.ndarray
    requirements: np.ndarray
    user_names: tuple[str, ...] | None = None
    resource_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        e = readonly_array(self.entitlements)
        r = readonly_array(self.requirements)
        if e.ndim != 1:
            raise ValueError("entitlements must be a vector")
        if r.ndim != 2:
            raise ValueError("requirements must be a 2-D matrix (users x resources)")
        if r.shape[0] != e.shape[0]:
            raise ValueError(
                f"requirements has {r.shape[0]} rows but there are {e.shape[0]} entitlements"
            )
        if self.user_names is not None and len(self.user_names) != e.shape[0]:
            raise ValueError("user_names length does not match the number of users")
        if self.resource_names is not None and len(self.resource_names) != r.shape[1]:
            raise ValueError("resource_names length does not match the number of resources")
        object.__setattr__(self, "entitlements", e)
        object.__setattr__(self, "requirements", r)
        if self.user_names is not None:
            object.__setattr__(self, "user_names", tuple(self.user_names))
        if self.resource_names is not None:
            object.__setattr__(self, "resource_names", tuple(self.resource_names))

    @property
    def n_users(self) -> int:
        return self.entitlements.shape[0]

    @property
    def n_real_resources(self) -> int:
        return self.requirements.shape[1]

    def user_label(self, i: int) -> str:
        if self.user_names is not None:
            return self.user_names[i]
        return str(i + 1)

    def resource_label(self, j: int) -> str:
        if self.resource_names is not None:
            return self.resource_names[j]
        return str(j + 1)


@dataclass(frozen=True, eq=False)
class LiftedInstance:
    """An instance extended with one unit-demand artificial resource per user.

    The artificial column of user i saturates exactly when x_i = 1, which
    turns "user got everything they asked for" into an ordinary saturated
    -resource condition. Reductions (user elimination, column removal) act on
    lifted instances; ``column_origin`` and ``user_origin`` record how the
    retained rows and columns map back to the base instance.
    """

    base: ProblemInstance
    entitlements: np.ndarray
    requirements: np.ndarray
    column_origin: tuple[ColumnKey, ...]
    user_origin: tuple[int, ...]

    def __post_init__(self) -> None:
        e = readonly_array(self.entitlements)
        r = readonly_array(self.requirements)
        if r.shape != (e.shape[0], len(self.column_origin)):
            raise ValueError("lifted requirements shape does not match origins")
        if e.shape[0] != len(self.user_origin):
            raise ValueError("user_origin length does not match the number of rows")
        object.__setattr__(self, "entitlements", e)
        object.__setattr__(self, "requirements", r)
        object.__setattr__(self, "column_origin", tuple(self.column_origin))
        object.__setattr__(self, "user_origin", tuple(self.user_origin))

    @property
    def n_users(self) -> int:
        return self.entitlements.shape[0]

    @property
    def m(self) -> int:
        return self.requirements.shape[1]

    def column_label(self, k: int) -> str:
        kind, idx = self.column_origin[k]
        if kind == "real":
            return self.base.resource_label(idx)
        return f"dummy({self.base.user_label(idx)})"


def add_dummy_resources(inst: ProblemInstance) -> LiftedInstance:
    """Append an identity block: one unit-demand artificial column per user."""
    n, m = inst.n_users, inst.n_real_resources
    r = np.hstack([inst.requirements, np.eye(n)])
    cols = [("real", j) for j in range(m)] + [("dummy", i) for i in range(n)]
    return LiftedInstance(
        base=inst,
        entitlements=inst.entitlements,
        requirements=r,
        column_origin=tuple(cols),
        user_origin=tuple(range(n)),
    )


def validate_instance(
    inst: ProblemInstance, tol: ToleranceConfig | None = None
) -> list[Violation]:
    """Check instance invariants; an empty list means the instance is valid.

    Violations are data, not exceptions: each names the offending field, the
    1-based index when applicable, and the residual by which it misses.
    """
    tol = tol or DEFAULT_TOLERANCES
    e = inst.entitlements
    r = inst.requirements
    # The whole instance in one test, written so that NaN and inf fail it
    # (argmin and argmax pick the first NaN); only an instance that fails it
    # is examined element by element.
    if (
        r.size
        and abs(float(np.add.reduce(e)) - 1.0) <= tol.eps_input
        and e[e.argmin()] >= 0.0
        and r.flat[r.argmin()] >= 0.0
        and r.flat[r.argmax()] <= 1.0
    ):
        return []

    found: list[Violation] = []
    if inst.n_users < 1:
        found.append(Violation("entitlements", None, 0.0, "instance has no users"))
    if inst.n_real_resources < 1:
        found.append(Violation("requirements", None, 0.0, "instance has no resources"))

    total = float(e.sum()) if e.size else 0.0
    if abs(total - 1.0) > tol.eps_input:
        found.append(
            Violation(
                "entitlements",
                None,
                total - 1.0,
                f"entitlements sum {total:.10g} != 1 (residual {total - 1.0:.3g})",
            )
        )
    # NaN passes every comparison above and below, so non-finite values are
    # flagged on their own.
    for i in np.flatnonzero(~np.isfinite(e) | (e < 0.0)):
        problem = "negative" if np.isfinite(e[i]) else "not finite"
        found.append(
            Violation(
                "entitlements",
                int(i) + 1,
                float(e[i]),
                f"entitlement of user {inst.user_label(int(i))} is {problem} ({e[i]:.10g})",
            )
        )
    bad = np.argwhere(~np.isfinite(r) | (r < 0.0) | (r > 1.0))
    for i, j in bad:
        problem = "outside [0, 1]" if np.isfinite(r[i, j]) else "not finite"
        found.append(
            Violation(
                "requirements",
                int(i) + 1,
                float(r[i, j]) - (1.0 if r[i, j] > 1.0 else 0.0),
                f"request of user {inst.user_label(int(i))} on resource "
                f"{inst.resource_label(int(j))} is {r[i, j]:.10g}, {problem}",
            )
        )
    return found


def usages(inst: ProblemInstance | LiftedInstance, x: np.ndarray) -> np.ndarray:
    """Total load per resource: sum_i x_i * r_ij for every column j."""
    x = np.asarray(x, dtype=float)
    r = inst.requirements
    if x.shape != (r.shape[0],):
        raise ValueError(f"allocation has shape {x.shape}, expected ({r.shape[0]},)")
    return x.dot(r)


def utility(inst: ProblemInstance, i: int, amounts: np.ndarray) -> float:
    """Fraction of user i's profile executable from the bundle ``amounts``.

    The bundle is a per-resource amount vector; the user can run
    min_j amounts_j / r_ij over their positive requests, capped at 1. A user
    who requests nothing is fully served by any bundle (returns 1). A NaN in
    a requested column reads as NaN.
    """
    amounts = np.asarray(amounts, dtype=float)
    row = inst.requirements[i]
    mask = row > 0.0
    if not mask.any():
        return 1.0
    return float(np.minimum(1.0, (amounts[mask] / row[mask]).min()))

