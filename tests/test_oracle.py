from itertools import combinations

import numpy as np
import pytest

from fairshare.fixtures import load_fixture
from fairshare.model import ProblemInstance, ToleranceConfig, validate_instance
from fairshare.oracle import (
    SizeGuardError,
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
        assert family.contains(res.solution.allocation, 1e-5)


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
