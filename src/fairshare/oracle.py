"""Independent ground-truth generators used to validate the solver.

``enumerate_solutions`` discharges the existential in the fairness condition
by brute force: for every candidate saturated subset and every way of
assigning each user a justifying resource, it asks a small LP whether a
consistent allocation exists. Phase one of each such LP minimises, over the
same polytope {0 <= x <= 1, xR <= 1}, a sum of artificials: 1 - (xR)_j per
subset column, and per user max(0, e_i - r_{i,a_i} x_i) for an entitlement
row, 1 - x_i for x_i = 1, nothing when e_i is 0. The LP's face is where the
sum is 0. A user row implies another when its artificial is no smaller at
every x_i in [0, 1]: an entitlement row with a request no larger, x_i = 1
against an entitlement row with r_{i,a_i} >= e_i, x_i = 1 against x_i = 1,
and any row against none. A query on a superset of an earlier LP's subset,
whose every user row implies that LP's, has a sum no smaller at every point,
so its face lies inside that LP's face. If that face was empty (phase one
ended above ten times ``lp.PHASE_ONE_TOL``, far beyond rounding), the
query's LP is infeasible too; if it was a single point (every probe within
1e-7 of the first vertex), its LP could only return a point within the 1e-7
dedup grain of a witness already found, or nothing. Either way the query is
skipped. Before that test, a query is rejected when a lower bound on its
sum, which depends on the assignment alone, exceeds ten times the threshold
(``FeasibilityQuery.provably_infeasible``, one numpy pass per instance), and
skipped when an earlier query built the same rows: the LPs are byte-equal
and the simplex is deterministic. So the witnesses are as if every LP ran,
up to points inside a point face's dedup grain. Each LP is one
``lp.maximize_each`` call on the query's rows and upper bounds, which prices
all its probes at once; ``SolutionFamily.stats`` counts what each rule did.
``grid_search_n2`` walks the feasible boundary curve for two users. Both
are deliberately independent of the trajectory construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import lp
from .model import (
    DEFAULT_TOLERANCES,
    ProblemInstance,
    ToleranceConfig,
    usages,
)

__all__ = [
    "EnumerationStats",
    "FeasibilityQuery",
    "GridSearchResult",
    "OracleWitness",
    "SizeGuardError",
    "SolutionFamily",
    "enumerate_solutions",
    "grid_search_n2",
    "random_instance",
]

_MAX_ENUM_USERS = 6
_MAX_ENUM_RESOURCES = 6
# A query is rejected without an LP only when its phase-one lower bound is
# this far above the LP's own infeasibility threshold.
_REJECT_ABOVE = 10.0 * lp.PHASE_ONE_TOL


class SizeGuardError(ValueError):
    """Instance too large for exhaustive enumeration."""


@dataclass(frozen=True)
class FeasibilityQuery:
    """One (saturated subset, justification assignment) candidate.

    ``assignment[i]`` is the real resource meant to justify user i, or None
    when the user is to receive everything (x_i = 1). The derived LP fixes
    usage = 1 on the subset, caps the rest, and demands each user's share on
    their assigned resource reach their entitlement.
    """

    bottleneck_subset: tuple[int, ...]
    assignment: tuple[int | None, ...]

    def constraints(self, inst: ProblemInstance) -> tuple[list, list]:
        """The query's LP as ``lp.maximize_each`` takes it: its rows, and an
        upper bound of 1 on each x_i (every x_i is at least 0)."""
        r = inst.requirements
        e = inst.entitlements
        n = inst.n_users
        subset = self.bottleneck_subset
        rows: list = [
            (column, 1.0, "==" if j in subset else "<=") for j, column in enumerate(r.T)
        ]
        # Each user's row is a view of one identity, its diagonal entry
        # replaced by -r_ij for an entitlement row.
        unit = np.eye(n)
        for i, j in enumerate(self.assignment):
            if j is None:
                rows.append((unit[i], 1.0, "=="))
            elif e[i] > 0.0:
                unit[i, i] = -r[i, j]
                rows.append((unit[i], -float(e[i]), "<="))
        return rows, [1.0] * n

    def provably_infeasible(self, inst: ProblemInstance) -> bool:
        """Whether the LP of ``constraints`` certainly comes out infeasible.

        In that LP the rows ``x_i <= 1`` and the capacity rows ``x R <= 1``
        are hard (an equality row's artificial only lowers usage), so phase
        one's least artificial sum is at least
          * ``e_i - r_{i,a_i}`` for each assigned user i (at most x_i = 1);
          * ``((lb R)_j - 1) / max_{i: lb_i > 0} r_ij / c_i`` for each
            column j, where ``lb_i`` is 1 for a user granted in full and
            ``min(e_i / r_{i,a_i}, 1)`` otherwise, and ``c_i`` is
            ``r_{i,a_i}`` (1 for a full grant): an artificial d_i lets x_i
            fall to ``lb_i - d_i / c_i``, and column j must still fit.
        The query is rejected only when a bound exceeds ten times the LP's
        threshold ``lp.PHASE_ONE_TOL``, far beyond its rounding, so every
        rejected query is one the LP would declare infeasible. The rule does
        not depend on the subset (``_rejected``).
        """
        m = inst.n_real_resources
        return bool(_rejected(inst)[tuple(m if j is None else j for j in self.assignment)])

    def satisfied_by(
        self, inst: ProblemInstance, x: np.ndarray, tol: float = 1e-5
    ) -> bool:
        """Whether ``x`` lies on this query's feasible face within ``tol``."""
        x = np.asarray(x, dtype=float)
        if np.min(x) < -tol or np.max(x) > 1.0 + tol:
            return False
        u = usages(inst, x)
        for j in range(inst.n_real_resources):
            if j in self.bottleneck_subset:
                if abs(u[j] - 1.0) > tol:
                    return False
            elif u[j] > 1.0 + tol:
                return False
        for i, j in enumerate(self.assignment):
            if j is None:
                if x[i] < 1.0 - tol:
                    return False
            elif inst.entitlements[i] > 0.0:
                if x[i] * inst.requirements[i, j] < inst.entitlements[i] - tol:
                    return False
        return True


@dataclass(frozen=True, eq=False)
class OracleWitness:
    x: np.ndarray
    bottlenecks: tuple[int, ...]
    query: FeasibilityQuery
    positive_dimension: bool


@dataclass(frozen=True)
class EnumerationStats:
    """What ``enumerate_solutions`` did with the (subset, assignment) queries:
    how many the rejection grid dropped, how many it skipped as repeats of a
    solved LP, as inside an earlier empty face (``lattice``) or inside an
    earlier point face (``settled``), and how many LPs it solved."""

    rejected: int = 0
    repeats: int = 0
    lattice: int = 0
    settled: int = 0
    lps: int = 0


@dataclass(frozen=True, eq=False)
class SolutionFamily:
    """All witnesses found by enumeration, with non-uniqueness flags."""

    instance: ProblemInstance
    witnesses: tuple[OracleWitness, ...]
    stats: EnumerationStats = EnumerationStats()

    @property
    def has_positive_dimension_face(self) -> bool:
        return any(w.positive_dimension for w in self.witnesses)

    @property
    def shares_bottleneck_sets(self) -> bool:
        """True when distinct witness points sit on identical bottleneck sets."""
        seen: dict[tuple[int, ...], np.ndarray] = {}
        for w in self.witnesses:
            prev = seen.get(w.bottlenecks)
            if prev is not None and float(np.max(np.abs(prev - w.x))) > 1e-7:
                return True
            seen.setdefault(w.bottlenecks, w.x)
        return self.has_positive_dimension_face

    def flagged_queries(self) -> tuple[FeasibilityQuery, ...]:
        return tuple(w.query for w in self.witnesses if w.positive_dimension)

    def contains(self, x: np.ndarray, tol: float = 1e-5) -> bool:
        """Whether ``x`` matches a witness or lies on a flagged family face."""
        x = np.asarray(x, dtype=float)
        for w in self.witnesses:
            if float(np.max(np.abs(w.x - x))) <= tol:
                return True
        return any(q.satisfied_by(self.instance, x, tol) for q in self.flagged_queries())


def _rejected(inst: ProblemInstance) -> np.ndarray:
    """``provably_infeasible`` for every assignment at once.

    Entry ``[a_0, ..., a_{n-1}]`` of the ``(m+1,) * n`` grid decides user i
    getting resource a_i (m: a full grant). The users add in index order, so
    each verdict equals a scalar loop's bitwise.
    """
    n, m = inst.n_users, inst.n_real_resources
    e, r = inst.entitlements[:, None], inst.requirements
    c = np.hstack([r, np.ones((n, 1))])  # c_i per choice, 1 for a full grant
    with np.errstate(divide="ignore", invalid="ignore"):
        floor = (e > 0.0) & (c > 0.0)
        floor[:, m] = True
        direct = (e > 0.0) & (e - c > _REJECT_ABOVE)
        direct[:, m] = False
        lb = np.where(floor, np.minimum(e / c, 1.0), 0.0)
        lb[:, m] = 1.0
        # [i, choice, j]: lb_i r_ij and r_ij / c_i, or 0 and -inf for no floor.
        share = lb[:, :, None] * r[:, None, :]
        slope = np.where(floor[:, :, None], r[:, None, :] / c[:, :, None], -np.inf)
        grid = np.ix_(*[np.arange(m + 1)] * n)  # user i: axis i
        out = False
        for i, choice in enumerate(grid):
            out = out | direct[i, choice]
        for j in range(m):
            excess, steepest = 0.0, -np.inf
            for i, choice in enumerate(grid):
                excess = excess + share[i, choice, j]
                steepest = np.maximum(steepest, slope[i, choice, j])
            excess = excess - 1.0
            out = out | ((excess > 0.0) & (excess / steepest > _REJECT_ABOVE))
    return out


def enumerate_solutions(
    inst: ProblemInstance, tol: ToleranceConfig | None = None
) -> SolutionFamily:
    """Exhaustively enumerate fair allocations of a desk-size instance.

    Iterates candidate subsets by (size, lexicographic order) and
    justification assignments lexicographically, so output order is stable.
    Every feasible query's face is probed by maximizing +/- sum(x) and
    +/- each coordinate; differing optimizers flag a positive-dimensional
    solution family, all extreme vertices become witnesses, and for flagged
    faces the mean of the distinct vertices is added as a balanced
    representative (faces are convex, so it is itself fair). Witnesses are
    deduplicated at 1e-7. Three rules skip a query's LP (see the module
    docstring for why they keep the witnesses): the rejection grid
    (``_rejected``), a repeat of an LP already solved (the same subset and,
    per user, the same row: x_i = 1, none, or the exact float r_{i,a_i}),
    and containment in an earlier empty or point face. Each other query
    solves its probes with one ``lp.maximize_each`` call. ``stats`` on the
    result counts the queries each rule dropped and the LPs solved.
    """
    tol = tol or DEFAULT_TOLERANCES
    n, m = inst.n_users, inst.n_real_resources
    if n > _MAX_ENUM_USERS or m > _MAX_ENUM_RESOURCES:
        raise SizeGuardError(
            f"enumeration is limited to {_MAX_ENUM_USERS} users and "
            f"{_MAX_ENUM_RESOURCES} resources; instance has {n} and {m}"
        )

    witnesses: list[OracleWitness] = []
    seen: set[tuple] = set()
    rejects = repeats = lattice = settled = 0

    def consider(x: np.ndarray, query: FeasibilityQuery, positive: bool) -> None:
        key = tuple(np.round(x, 7))
        if key in seen:
            return
        seen.add(key)
        u = usages(inst, x)
        bn = tuple(np.flatnonzero(u >= 1.0 - tol.eps_bottleneck).tolist())
        x_ro = np.array(x)
        x_ro.setflags(write=False)
        witnesses.append(OracleWitness(x_ro, bn, query, positive))

    subsets = [c for size in range(1, m + 1) for c in combinations(range(m), size)]
    probes = [np.ones(n), -np.ones(n)] + [s * u for u in np.eye(n) for s in (1.0, -1.0)]
    r, e = inst.requirements, inst.entitlements
    rejected = _rejected(inst)
    # The row ``constraints`` adds for user i on choice j: r_ij of the
    # entitlement row, "none" when e_i is 0, "full" for x_i = 1 (j = m).
    user_row = [(row if ei > 0.0 else ["none"] * m) + ["full"] for row, ei in zip(r.tolist(), e)]
    # A choice of user i is bit i (m + 1) + j of a query's bits; implied[i][j]
    # has the bits of user i's choices whose row implies the row of choice j.
    implied = [
        [
            sum(
                1 << (i * (m + 1) + k)
                for k, tighter in enumerate(rows)
                if row == "none"
                or tighter == row == "full"
                or (row != "full" and (row >= ei if tighter == "full" else tighter <= row))
            )
            for row in rows
        ]
        for i, (rows, ei) in enumerate(zip(user_row, e.tolist()))
    ]
    solved: set[tuple] = set()  # (subset bitmask, user rows) of each LP run
    faces: list[tuple[int, int, bool]] = []  # (subset bitmask, implying bits, empty)
    for subset in subsets:
        mask = sum(1 << j for j in subset)
        # User i's choices: each subset resource it requests (any, if e_i
        # is 0), then m for a full grant; argwhere keeps ``product`` order.
        choices = [[j for j in subset if r[i, j] > 0.0 or e[i] <= 0.0] + [m] for i in range(n)]
        admitted = ~rejected[np.ix_(*choices)]
        queries = np.argwhere(admitted).tolist()
        rejects += admitted.size - len(queries)
        for picks in queries:
            picked = [c[k] for c, k in zip(choices, picks)]
            user_rows = tuple(user_row[i][j] for i, j in enumerate(picked))
            if (mask, user_rows) in solved:
                repeats += 1
                continue
            bits = sum(1 << (i * (m + 1) + j) for i, j in enumerate(picked))
            empty = next(
                (empty for below, ok, empty in faces if not (below & ~mask or bits & ~ok)), None
            )
            if empty is not None:
                lattice += empty
                settled += not empty
                continue
            solved.add((mask, user_rows))
            face = (mask, sum(implied[i][j] for i, j in enumerate(picked)))
            query = FeasibilityQuery(subset, tuple(None if j == m else j for j in picked))
            first, *others = lp.maximize_each(*query.constraints(inst), probes)
            if first.status != "optimal":
                if first.infeasibility > _REJECT_ABOVE:
                    faces.append((*face, True))
                continue
            vertices = [first.x]
            for res in others:
                if res.status == "optimal" and all(
                    float(np.abs(res.x - v).max()) > 1e-7 for v in vertices
                ):
                    vertices.append(res.x)
            positive = len(vertices) > 1
            for vertex in vertices:
                consider(vertex, query, positive)
            if not positive:
                faces.append((*face, False))
            else:
                # Balanced representatives: mean of the vertices sharing a
                # total-allocation level (sub-face midpoints), plus the mean
                # of everything found on the face.
                groups: dict[float, list[np.ndarray]] = {}
                for vertex in vertices:
                    groups.setdefault(round(float(vertex.sum()), 6), []).append(vertex)
                for group in groups.values():
                    if len(group) > 1:
                        consider(np.mean(group, axis=0), query, positive)
                consider(np.mean(vertices, axis=0), query, positive)
    stats = EnumerationStats(rejects, repeats, lattice, settled, len(solved))
    return SolutionFamily(instance=inst, witnesses=tuple(witnesses), stats=stats)


@dataclass(frozen=True, eq=False)
class GridSearchResult:
    points: np.ndarray  # passing (x1, x2) pairs, ascending in x1
    interval: tuple[float, float] | None  # x1 range of passing points

    def nearest_distance(self, x: np.ndarray) -> float:
        if self.points.shape[0] == 0:
            return float("inf")
        return float(np.min(np.max(np.abs(self.points - np.asarray(x)), axis=1)))


def grid_search_n2(
    inst: ProblemInstance,
    resolution: float = 1e-4,
    tol: ToleranceConfig | None = None,
) -> GridSearchResult:
    """Walk the two-user boundary curve and keep the fair points.

    For each grid value of x_1, x_2 is pushed to the boundary:
    min(1, min over requested j of (1 - x_1 r_1j) / r_2j). Verification runs
    with tolerances relaxed by one grid cell (the saturation tolerance also
    absorbs the curve's local slope, so a vertex between two capacity lines
    is still recognized from the neighboring grid point). ``resolution``
    is the grid step in x_1, in (0, 1].
    """
    tol = tol or DEFAULT_TOLERANCES
    resolution = float(resolution)
    # Written so that NaN fails too.
    if not 0.0 < resolution <= 1.0:
        raise ValueError(f"grid resolution must lie in (0, 1], got {resolution!r}")
    if inst.n_users != 2:
        raise ValueError("grid search supports exactly two users")
    r = inst.requirements
    e = inst.entitlements
    x1 = np.arange(0.0, 1.0 + resolution / 2.0, resolution)
    mask2 = r[1] > 0.0
    x2, slope = np.ones_like(x1), 0.0
    if mask2.any():
        caps = (1.0 - np.outer(x1, r[0][mask2])) / r[1][mask2]
        x2 = np.clip(np.minimum(1.0, caps.min(axis=1)), 0.0, 1.0)
        slope = float(np.max(r[0][mask2] / r[1][mask2]))
    eps_njc = max(tol.eps_njc, resolution)
    eps_bn = max(tol.eps_bottleneck, resolution * (1.0 + slope))

    pts = np.column_stack([x1, x2])
    u = pts @ r  # usages, shape (grid, m')
    feasible = np.all(u <= 1.0 + tol.eps_feasible, axis=1)
    bn = u >= 1.0 - eps_bn
    ok = feasible.copy()
    for i in range(2):
        shares = pts[:, i][:, None] * r[i][None, :]
        justified = np.any(bn & (shares >= e[i] - eps_njc), axis=1)
        ok &= justified | (pts[:, i] >= 1.0 - eps_njc)
    passing = pts[ok]
    interval = None
    if passing.shape[0]:
        interval = (float(passing[0, 0]), float(passing[-1, 0]))
    passing.setflags(write=False)
    return GridSearchResult(points=passing, interval=interval)


def random_instance(
    seed: int,
    n_users: int,
    n_resources: int,
    min_column_sum: float | None = 1.0,
) -> ProblemInstance:
    """Deterministic pseudo-random instance for property suites.

    Entitlements are a normalized positive draw; requests are uniform on
    [0, 1]. When ``min_column_sum`` is set, under-demanded columns are scaled
    up to that total (entries stay within [0, 1] because no entry exceeds
    its column sum). Identical seeds give identical instances.
    """
    if n_users < 1 or n_resources < 1:
        raise ValueError("need at least one user and one resource")
    rng = np.random.default_rng(seed)
    e = rng.uniform(0.1, 1.0, n_users)
    e = e / e.sum()
    r = rng.uniform(0.0, 1.0, (n_users, n_resources))
    if min_column_sum is not None:
        sums = r.sum(axis=0)
        for j in range(n_resources):
            if sums[j] <= 0.0:
                r[:, j] = min_column_sum / n_users
            elif sums[j] < min_column_sum:
                r[:, j] = r[:, j] / sums[j] * min_column_sum
    return ProblemInstance(entitlements=e, requirements=r)
