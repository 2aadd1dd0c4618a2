from itertools import combinations, product

import numpy as np
import pytest

from fairshare import lp
from fairshare.fixtures import fixture_names, load_fixture
from fairshare.model import (
    DEFAULT_TOLERANCES,
    ProblemInstance,
    ToleranceConfig,
    usages,
    validate_instance,
)
from fairshare.oracle import (
    FeasibilityQuery,
    SizeGuardError,
    _rejected,
    enumerate_solutions,
    grid_search_n2,
    random_instance,
)
from fairshare.verifier import verify


def _has_witness(family, x, tol=1e-7):
    return any(float(np.max(np.abs(w.x - np.asarray(x)))) <= tol for w in family.witnesses)


def test_enumerate_family_segment_endpoints():
    family = enumerate_solutions(load_fixture("nonunique_n3"))
    assert _has_witness(family, [0.5, 0.5, 0.5])
    assert _has_witness(family, [0.7, 0.3, 0.3])
    assert family.has_positive_dimension_face
    flagged = family.flagged_queries()
    assert any(q.bottleneck_subset == (0, 1) for q in flagged)


def test_enumerate_circle_patterns():
    family = enumerate_solutions(load_fixture("circle4"))
    assert _has_witness(family, [1 / 3] * 4)
    for pair in combinations(range(4), 2):
        pattern = np.full(4, 0.375)
        pattern[list(pair)] = 0.25
        assert _has_witness(family, pattern)
    assert len(family.witnesses) >= 7


def test_enumerate_unique_two_user_solution():
    family = enumerate_solutions(load_fixture("slope2"))
    assert len(family.witnesses) == 1
    np.testing.assert_allclose(family.witnesses[0].x, [0.6, 0.9], atol=1e-9)
    assert not family.has_positive_dimension_face
    assert not family.shares_bottleneck_sets


def test_family_flag_distinct_points_same_bottlenecks():
    family = enumerate_solutions(load_fixture("nonunique_n3"))
    # (0.5, 0.5, 0.5) and (0.7, 0.3, 0.3) saturate the same two resources
    assert family.shares_bottleneck_sets


def test_enumeration_is_deterministic():
    inst = load_fixture("circle4")
    first = enumerate_solutions(inst)
    second = enumerate_solutions(inst)
    assert len(first.witnesses) == len(second.witnesses)
    for a, b in zip(first.witnesses, second.witnesses):
        np.testing.assert_array_equal(a.x, b.x)
        assert a.query == b.query


@pytest.mark.parametrize(
    "name", ["slope2", "drf_compare", "utilization", "nonunique_n3", "circle4"]
)
def test_every_witness_passes_verification(name):
    inst = load_fixture(name)
    tight = ToleranceConfig(eps_njc=1e-7)
    family = enumerate_solutions(inst)
    assert family.witnesses
    for witness in family.witnesses:
        assert verify(inst, witness.x, tight).passed


def test_enumerate_size_guard():
    inst = random_instance(1, 7, 3)
    with pytest.raises(SizeGuardError):
        enumerate_solutions(inst)


def test_grid_search_clusters_at_unique_point():
    result = grid_search_n2(load_fixture("slope2"), 1e-4)
    assert result.points.shape[0] > 0
    assert result.nearest_distance(np.array([0.6, 0.9])) <= 2e-4
    lo, hi = result.interval
    assert lo <= 0.6 <= hi


def test_grid_search_full_grant_corner():
    # entitlement ratio above the request ratio: user 2 is served in full
    inst = ProblemInstance(entitlements=[0.25, 0.75], requirements=[[2 / 3], [2 / 3]])
    result = grid_search_n2(inst, 1e-4)
    assert result.nearest_distance(np.array([0.5, 1.0])) <= 2e-4
    assert np.all(result.points[:, 1] >= 1.0 - 2e-4)


def test_grid_search_symmetric_split():
    inst = ProblemInstance(entitlements=[0.5, 0.5], requirements=[[2 / 3], [2 / 3]])
    result = grid_search_n2(inst, 1e-4)
    assert result.nearest_distance(np.array([0.75, 0.75])) <= 2e-4


def test_grid_search_requires_two_users():
    with pytest.raises(ValueError):
        grid_search_n2(load_fixture("greedy3"))


@pytest.mark.parametrize("resolution", [-0.1, 0.0, 2.0, float("nan")])
def test_grid_search_rejects_a_resolution_outside_the_unit_interval(resolution):
    # Before the check, -0.1 found no fair point, 2.0 gave (0, 0) on slope2,
    # and 0 divided by zero.
    with pytest.raises(ValueError, match="resolution"):
        grid_search_n2(load_fixture("slope2"), resolution)


def test_two_user_uniqueness_and_bracketing():
    for seed in range(100):
        inst = random_instance(20_000 + seed, 2, 1 + seed % 3)
        family = enumerate_solutions(inst)
        assert len(family.witnesses) == 1
        witness = family.witnesses[0].x
        grid = grid_search_n2(inst, 1e-3)
        assert grid.interval is not None
        lo, hi = grid.interval
        assert lo - 1e-3 <= witness[0] <= hi + 1e-3


def _satisfied_by_reference(query, inst, x, tol):
    """``FeasibilityQuery.satisfied_by`` as a check per condition, written
    apart from the LP rows of ``constraints``."""
    x = np.asarray(x, dtype=float)
    if np.min(x) < -tol or np.max(x) > 1.0 + tol:
        return False
    u = usages(inst, x)
    for j in range(inst.n_real_resources):
        if j in query.bottleneck_subset:
            if abs(u[j] - 1.0) > tol:
                return False
        elif u[j] > 1.0 + tol:
            return False
    for i, j in enumerate(query.assignment):
        if j is None:
            if x[i] < 1.0 - tol:
                return False
        elif inst.entitlements[i] > 0.0:
            if x[i] * inst.requirements[i, j] < inst.entitlements[i] - tol:
                return False
    return True


def test_satisfied_by_reads_the_lp_rows_as_the_per_condition_check_does():
    # Every witness, and the witness moved by 2 tol either way along each
    # coordinate, against every distinct LP: on the face, off it by one
    # condition, and outside [0, 1]. Both checks read only the subset and
    # each user's row, so one query stands for all that share them, keyed
    # as enumerate_solutions keys its repeats: "full" for x_i = 1, "none"
    # where e_i is 0, else the exact r_ij.
    tol = 1e-5
    instances = [load_fixture(name) for name in fixture_names()]
    instances += [random_instance(s, 1 + s % 4, 1 + 3 * s % 4) for s in range(30)]
    inside = checked = 0
    for inst in instances:
        points = []
        for w in enumerate_solutions(inst).witnesses:
            points.append(w.x)
            for i, sign in product(range(inst.n_users), (2.0, -2.0)):
                moved = w.x.copy()
                moved[i] += sign * tol
                points.append(moved)
        r, e = inst.requirements, inst.entitlements
        tested = set()
        for query in _queries(inst):
            rows = tuple(
                "full" if j is None else float(r[i, j]) if e[i] > 0.0 else "none"
                for i, j in enumerate(query.assignment)
            )
            if (query.bottleneck_subset, rows) in tested:
                continue
            tested.add((query.bottleneck_subset, rows))
            for x in points:
                expected = _satisfied_by_reference(query, inst, x, tol)
                assert query.satisfied_by(inst, x, tol) is expected, (inst, query, x)
                inside += expected
                checked += 1
    assert 0 < inside < checked


def test_satisfied_by_fails_a_nan_allocation():
    inst = load_fixture("slope2")
    query = FeasibilityQuery((0,), (0, 0))
    (witness,) = enumerate_solutions(inst).witnesses
    assert query.satisfied_by(inst, witness.x)
    assert not query.satisfied_by(inst, [np.nan, witness.x[1]])


def test_solver_lands_in_the_enumerated_solution_set():
    # End-to-end cross-validation on random instances with two to four
    # users: the solver's answer must coincide with an enumerated witness or
    # lie on a flagged positive-dimensional face.
    from fairshare.solver import solve

    for seed in range(30):
        inst = random_instance(80_000 + seed, 2 + seed % 3, 1 + (seed // 3) % 3)
        res = solve(inst)
        assert res.report.passed
        family = enumerate_solutions(inst)
        assert family.contains(res.report.allocation, 1e-5)


def test_random_instance_deterministic_and_valid():
    a = random_instance(123, 4, 3)
    b = random_instance(123, 4, 3)
    np.testing.assert_array_equal(a.entitlements, b.entitlements)
    np.testing.assert_array_equal(a.requirements, b.requirements)
    assert validate_instance(a) == []


def test_random_instance_column_sums_reach_capacity():
    for seed in (0, 5, 9):
        inst = random_instance(seed, 3, 4)
        assert np.all(inst.requirements.sum(axis=0) >= 1.0 - 1e-12)
    free = random_instance(0, 3, 4, min_column_sum=None)
    assert validate_instance(free) == []


def _queries(inst):
    """Every (subset, assignment) query, in the oracle's order."""
    n, m = inst.n_users, inst.n_real_resources
    r, e = inst.requirements, inst.entitlements
    for size in range(1, m + 1):
        for subset in combinations(range(m), size):
            options = [
                [j for j in subset if r[i, j] > 0.0 or e[i] <= 0.0] + [None]
                for i in range(n)
            ]
            for assignment in product(*options):
                yield FeasibilityQuery(subset, assignment)


def _reference_witnesses(inst):
    """enumerate_solutions as a plain loop: every query, one lp.maximize per
    probe, no rejection before the LP."""
    n = inst.n_users
    probes = [np.ones(n), -np.ones(n)]
    for i in range(n):
        probes += [np.eye(n)[i], -np.eye(n)[i]]
    found, seen = [], set()

    def consider(x, query, positive):
        key = tuple(np.round(x, 7))
        if key not in seen:
            seen.add(key)
            u = usages(inst, x)
            bn = tuple(int(j) for j in np.flatnonzero(u >= 1.0 - DEFAULT_TOLERANCES.eps_bottleneck))
            found.append((x.tobytes(), bn, query, positive))

    for query in _queries(inst):
        rows, upper = query.constraints(inst)
        vertices = []
        for k, objective in enumerate(probes):
            res = lp.maximize(objective, rows, upper)
            if k == 0 and res.status != "optimal":
                break
            if res.status == "optimal" and all(
                float(np.max(np.abs(res.x - v))) > 1e-7 for v in vertices
            ):
                vertices.append(res.x)
        positive = len(vertices) > 1
        for vertex in vertices:
            consider(vertex, query, positive)
        if positive:
            groups = {}
            for vertex in vertices:
                groups.setdefault(round(float(vertex.sum()), 6), []).append(vertex)
            for group in groups.values():
                if len(group) > 1:
                    consider(np.mean(group, axis=0), query, positive)
            consider(np.mean(vertices, axis=0), query, positive)
    return found


def _witnesses(inst):
    return [
        (w.x.tobytes(), w.bottlenecks, w.query, w.positive_dimension)
        for w in enumerate_solutions(inst).witnesses
    ]


@pytest.mark.parametrize("name", fixture_names())
def test_enumeration_matches_reference_loop_on_fixtures(name):
    inst = load_fixture(name)
    assert _witnesses(inst) == _reference_witnesses(inst)


def test_enumeration_matches_reference_loop_on_random_instances():
    for seed in range(44):
        inst = random_instance(60_000 + seed, 1 + seed % 4, 1 + (seed // 4) % 4)
        assert _witnesses(inst) == _reference_witnesses(inst), seed


def _sparse_instance(seed, n, m, k):
    """Each user requests k of the m resources, shifted cyclically so every
    column has a requester; columns are scaled up to a total of at least 1.
    Few requests keep the reference loop short on a deep subset lattice."""
    rng = np.random.default_rng(seed)
    requested = (np.arange(m)[None, :] - np.arange(n)[:, None]) % m < k
    r = rng.uniform(0.1, 1.0, (n, m)) * requested
    r /= np.minimum(r.sum(axis=0), 1.0)
    e = rng.uniform(0.1, 1.0, n)
    return ProblemInstance(entitlements=e / e.sum(), requirements=r)


@pytest.mark.parametrize("shape", [(5, 5), (6, 5)])
def test_enumeration_matches_reference_loop_on_deep_lattices(shape, monkeypatch):
    # Subset chains up to length five, on which the lattice rule skips LPs.
    inst = _sparse_instance(1, *shape, 2)
    assert _skipped_queries(inst, monkeypatch)[2]
    assert _witnesses(inst) == _reference_witnesses(inst)


def test_tiny_entries_the_lp_tolerance_admits_keep_their_witness():
    # User 1 cannot reach 1e-9 through a 1e-18 request, but the shortfall is
    # below the LP's phase-one threshold, so the LP admits the query, and the
    # rejection rule must not be stricter than the LP.
    inst = ProblemInstance(
        entitlements=[1e-9, 1 - 1e-9], requirements=[[1e-18, 1.0], [1.0, 1.0]]
    )
    query = FeasibilityQuery((0,), (0, 0))
    assert not _rejected(inst)[0, 0]
    witnesses = _witnesses(inst)
    assert witnesses == _reference_witnesses(inst)
    assert [(np.frombuffer(w[0]).tolist(), w[2]) for w in witnesses] == [([0.0, 1.0], query)]


def _soundness_instances():
    for seed in range(24):
        yield random_instance(70_000 + seed, 2 + seed % 3, 1 + (seed // 3) % 3)
    rng = np.random.default_rng(5)
    for seed in range(12):
        # One request just below an entitlement: the shortfall sits near
        # the rejection margin, on both sides of it.
        inst = random_instance(71_000 + seed, 2 + seed % 2, 1 + seed % 3)
        r = inst.requirements.copy()
        e = inst.entitlements
        r[0, seed % r.shape[1]] = e[0] - [0.5, 1.0, 1.01, 2.0, 20.0, 1e3][seed % 6] * 1e-7
        yield ProblemInstance(entitlements=e, requirements=r)
        # Tiny requests, far below the LP's pivot tolerance.
        r = inst.requirements.copy()
        r[rng.random(r.shape) < 0.3] = 10.0 ** -rng.integers(9, 19)
        yield ProblemInstance(entitlements=e, requirements=r)


def test_every_rejected_query_is_infeasible_for_the_lp():
    rejected = admitted = 0
    for inst in _soundness_instances():
        m, grid = inst.n_real_resources, _rejected(inst)
        for query in _queries(inst):
            if not grid[tuple(m if j is None else j for j in query.assignment)]:
                admitted += 1
                continue
            rejected += 1
            res = lp.maximize(np.ones(inst.n_users), *query.constraints(inst))
            assert res.status == "infeasible", (inst, query)
    assert rejected > 10 * admitted > 0


def _admitted_queries(inst):
    """The queries the rejection grid lets through to an LP, in order."""
    n, m = inst.n_users, inst.n_real_resources
    r, e, grid = inst.requirements, inst.entitlements, _rejected(inst)
    for size in range(1, m + 1):
        for subset in combinations(range(m), size):
            options = [[j for j in subset if r[i, j] > 0.0 or e[i] <= 0.0] + [m] for i in range(n)]
            for picks in product(*options):
                if not grid[picks]:
                    yield FeasibilityQuery(subset, tuple(None if k == m else k for k in picks))


def _lp_key(inst, query):
    """The LP a query builds: its subset, and per user the row it adds,
    "full" for x_i = 1, "none" for e_i = 0, else r_{i,a_i}."""
    rows = []
    for i, j in enumerate(query.assignment):
        if j is None:
            rows.append("full")
        elif inst.entitlements[i] > 0.0:
            rows.append(float(inst.requirements[i, j]))
        else:
            rows.append("none")
    return query.bottleneck_subset, tuple(rows)


def _implies(e_i, tighter, row):
    """Whether a user's row ``tighter`` (an ``_lp_key`` entry) implies ``row``:
    its phase-one artificial is no smaller at every x_i in [0, 1]."""
    if row == "none":
        return True
    if row == "full":
        return tighter == "full"
    if tighter == "full":
        return row >= e_i
    return tighter <= row


def _probe_results(inst, query):
    """The query's LP under the oracle's probes (+/- sum x, +/- each x_i)."""
    n = inst.n_users
    probes = [np.ones(n), -np.ones(n)] + [s * u for u in np.eye(n) for s in (1.0, -1.0)]
    return lp.maximize_each(*query.constraints(inst), probes)


def _probe_vertices(inst, query):
    """The optimal vertices of the query's LP under the oracle's probes, or
    None when the LP is infeasible."""
    results = _probe_results(inst, query)
    if results[0].status != "optimal":
        return None
    return [res.x for res in results if res.status == "optimal"]


def _skipped_queries(inst, monkeypatch):
    """The queries that pass the rejection grid but whose LP
    ``enumerate_solutions`` never builds, in three lists: (query, earlier)
    pairs where an earlier built query has the same ``_lp_key``; (query,
    vertex) pairs inside an earlier point face; and queries inside an
    earlier empty face. A query is inside an earlier built query's face when
    its subset holds that query's subset and each of its user rows implies
    that query's; the face is empty when that LP's phase one ended above ten
    times ``lp.PHASE_ONE_TOL``, and a point ``vertex`` when every probe
    landed within 1e-7 of the first. A skipped query inside both kinds is
    listed as inside an empty face; one inside neither fails the helper."""
    built = set()
    constraints = FeasibilityQuery.constraints

    def recording(query, instance):
        built.add(query)
        return constraints(query, instance)

    with monkeypatch.context() as patch:
        patch.setattr(FeasibilityQuery, "constraints", recording)
        enumerate_solutions(inst)
    first_built, faces, repeats, settled, lattice = {}, [], [], [], []
    e = inst.entitlements
    for query in _admitted_queries(inst):
        subset, rows = key = _lp_key(inst, query)
        if query in built:
            first_built.setdefault(key, query)
            first, *others = _probe_results(inst, query)
            if first.status != "optimal":
                if first.infeasibility > 10.0 * lp.PHASE_ONE_TOL:
                    faces.append((set(subset), rows, None))
            elif all(
                np.max(np.abs(res.x - first.x)) <= 1e-7
                for res in others
                if res.status == "optimal"
            ):
                faces.append((set(subset), rows, first.x))
        elif key in first_built:
            repeats.append((query, first_built[key]))
        else:
            inside = [
                vertex
                for below, face_rows, vertex in faces
                if below <= set(subset) and all(map(_implies, e, rows, face_rows))
            ]
            assert inside, (inst, query)
            if any(vertex is None for vertex in inside):
                lattice.append(query)
            else:
                settled.append((query, inside[0]))
    return repeats, settled, lattice


def _lp_bytes(inst, query):
    rows, upper = query.constraints(inst)
    return [(np.asarray(c, dtype=float).tobytes(), float(b), rel) for c, b, rel in rows], upper


def test_every_query_skipped_up_the_lattice_is_infeasible_for_the_lp(monkeypatch):
    # A query skipped as a repeat builds byte for byte the LP of one solved
    # before it; a query inside an earlier point face is infeasible for the
    # LP, or every probe lands within 1e-7 of that face's vertex; a query
    # inside an earlier empty face is infeasible for the LP.
    instances = [*_soundness_instances(), *_degenerate_rejection_instances()]
    instances += [load_fixture(name) for name in fixture_names()]
    instances.append(random_instance(1, 6, 6))
    skipped = repeated = inside = 0
    for inst in instances:
        repeats, settled, lattice = _skipped_queries(inst, monkeypatch)
        for query, earlier in repeats:
            repeated += 1
            assert _lp_bytes(inst, query) == _lp_bytes(inst, earlier), (inst, query)
        for query, vertex in settled:
            inside += 1
            vertices = _probe_vertices(inst, query)
            assert vertices is None or all(
                np.max(np.abs(v - vertex)) <= 1e-7 for v in vertices
            ), (inst, query)
        for query in lattice:
            skipped += 1
            res = lp.maximize(np.ones(inst.n_users), *query.constraints(inst))
            assert res.status == "infeasible", (inst, query)
    assert skipped > 100
    assert repeated > 100
    assert inside > 0


def test_each_distinct_lp_is_solved_once():
    # circle4 builds 11 distinct LPs among 201 admitted queries.
    stats = enumerate_solutions(load_fixture("circle4")).stats
    assert stats.lps <= 11
    assert stats.repeats > 0


def test_a_point_face_settles_the_queries_it_contains():
    # A query on a superset whose user rows imply a point face's rows lies
    # inside that point. With one user and every request exactly 1, each
    # single-column LP is the point x_1 = 1, and it settles every later query
    # on a subset holding its column.
    stats = enumerate_solutions(load_fixture("utilization")).stats
    assert stats.lps <= 6
    assert stats.settled > 0
    for seed in range(8):
        inst = random_instance(seed, 1, 4)
        assert np.all(inst.requirements == 1.0)
        assert enumerate_solutions(inst).stats.lps <= 4


def test_an_empty_face_skips_the_queries_it_contains():
    # 6x6 LPs are nearly all infeasible: an empty face on a subset rules out
    # every superset query whose user rows imply its rows, whichever rows
    # they are. A rule keyed on exact rows leaves 1,921 and 1,530 LPs.
    assert enumerate_solutions(random_instance(3, 6, 6)).stats.lps <= 200
    assert enumerate_solutions(random_instance(4, 6, 6)).stats.lps <= 100


def test_stats_count_every_query():
    # Each (subset, assignment) query is rejected, skipped by one rule, or
    # solved (an LP that also serves its later repeats).
    for inst in [load_fixture(name) for name in fixture_names()] + [random_instance(2, 3, 3)]:
        stats = enumerate_solutions(inst).stats
        queries = sum(1 for _ in _queries(inst))
        assert stats.rejected + stats.repeats + stats.lattice + stats.settled + stats.lps == queries


def _scalar_provably_infeasible(inst, assignment):
    """The rejection rule as a plain loop over one assignment, independent of
    the grid: phase one's artificial sum is bounded below by e_i - r_{i,a_i}
    per assigned user and by ((lb R)_j - 1) / max r_ij / c_i per column."""
    reject_above = 10.0 * lp.PHASE_ONE_TOL
    r = inst.requirements.tolist()
    e = inst.entitlements.tolist()
    floors = []  # (lb_i, r_i, c_i)
    for i, j in enumerate(assignment):
        if j is None:
            floors.append((1.0, r[i], 1.0))
        elif e[i] > 0.0:
            c = r[i][j]
            if e[i] - c > reject_above:
                return True
            if c > 0.0:
                floors.append((min(e[i] / c, 1.0), r[i], c))
    for j in range(inst.n_real_resources):
        excess = sum(lb * row[j] for lb, row, _ in floors) - 1.0
        if excess > 0.0:
            slope = max(row[j] / c for _, row, c in floors)
            if excess / slope > reject_above:
                return True
    return False


def _degenerate_rejection_instances():
    for seed in range(6):
        inst = random_instance(72_000 + seed, 3, 1 + seed % 3)
        # A user with no entitlement.
        e = inst.entitlements.copy()
        e[seed % 3] = 0.0
        yield ProblemInstance(entitlements=e / e.sum(), requirements=inst.requirements)
        # A user that requests nothing.
        r = inst.requirements.copy()
        r[seed % 3] = 0.0
        yield ProblemInstance(entitlements=inst.entitlements, requirements=r)
    # A user with no entitlement sets no floor; if it did, its ratio
    # 1 / 1e-12 would be the steepest slope and save (0, None, None).
    yield ProblemInstance(
        entitlements=[0.0, 0.5, 0.5], requirements=[[1e-12, 1.0], [0.4, 0.6], [0.4, 0.6]]
    )
    for seed in range(3):
        yield random_instance(73_000 + seed, 1, 6, min_column_sum=None)
        yield random_instance(73_100 + seed, 6, 1)
    # A user entitled to nothing who requests nothing of one resource: its
    # rows are "none" and x_1 = 1, and no ratio e_1 / r_1j is defined.
    yield ProblemInstance(entitlements=[0.0, 1.0], requirements=[[0.0, 0.5], [1.0, 1.0]])


def test_rejection_grid_matches_the_scalar_rule():
    checked = rejected = 0
    for inst in [*_soundness_instances(), *_degenerate_rejection_instances()]:
        n, m = inst.n_users, inst.n_real_resources
        grid = _rejected(inst)
        assert grid.shape == (m + 1,) * n
        for picks in np.ndindex(grid.shape):
            assignment = tuple(None if k == m else k for k in picks)
            expected = _scalar_provably_infeasible(inst, assignment)
            assert bool(grid[picks]) == expected, (inst, assignment)
            checked += 1
            rejected += expected
    assert 0 < rejected < checked


def test_solver_lands_in_the_enumerated_solution_set_five_users():
    # The five-user counterpart of the cross-validation above, for one to
    # four resources.
    from fairshare.solver import solve

    for seed in range(12):
        inst = random_instance(85_000 + seed, 5, 1 + seed % 4)
        res = solve(inst)
        assert res.report.passed
        family = enumerate_solutions(inst)
        assert family.contains(res.report.allocation, 1e-5)
