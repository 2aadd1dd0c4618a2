import numpy as np
import pytest

from fairshare.fixtures import FIXTURES, load_fixture
from fairshare.model import ProblemInstance, add_dummy_resources, usages
from fairshare.oracle import enumerate_solutions
from fairshare.reductions import (
    LiftConsistencyError,
    drop_slack_resources,
    eliminate_satisfied_users,
    lift_solution,
    preprocess,
    remove_dominated_constraints,
)


def test_add_dummy_appends_identity_block():
    lifted = add_dummy_resources(load_fixture("greedy3"))
    assert lifted.m == 6
    np.testing.assert_array_equal(lifted.requirements[:, 3:], np.eye(3))
    assert lifted.column_origin[3:] == (("dummy", 0), ("dummy", 1), ("dummy", 2))


def test_add_dummy_single_user():
    inst = ProblemInstance(entitlements=[1.0], requirements=[[0.7]])
    lifted = add_dummy_resources(inst)
    np.testing.assert_array_equal(lifted.requirements, [[0.7, 1.0]])


def test_add_dummy_column_count():
    lifted = add_dummy_resources(load_fixture("drf_compare"))
    assert lifted.m == 5


def test_drop_slack_removes_under_demanded_column():
    inst = ProblemInstance(
        entitlements=[0.5, 0.5],
        requirements=[[0.3, 0.8], [0.4, 0.9]],
    )
    lifted, dropped = drop_slack_resources(add_dummy_resources(inst))
    assert dropped == (("real", 0),)
    assert ("real", 0) not in lifted.column_origin


def test_drop_slack_keeps_fully_demanded_columns():
    lifted, dropped = drop_slack_resources(add_dummy_resources(load_fixture("drf_compare")))
    assert dropped == ()  # column sums 2.4 and 1.2


def test_drop_slack_keeps_sum_exactly_one():
    # utilization resource 2 is requested only by user 2, at the full unit
    lifted, dropped = drop_slack_resources(add_dummy_resources(load_fixture("utilization")))
    assert dropped == ()
    assert ("real", 1) in lifted.column_origin


def test_eliminate_grants_low_requesting_user_and_rescales():
    lifted, _ = drop_slack_resources(add_dummy_resources(load_fixture("elim_example")))
    reduced, steps = eliminate_satisfied_users(lifted)
    assert [s.user for s in steps] == [0]
    step = steps[0]
    assert step.entitlement_divisor == pytest.approx(0.5)
    divisors = dict(step.column_divisors)
    assert divisors[("real", 0)] == pytest.approx(0.6)  # requests scale by 5/3
    assert divisors[("real", 1)] == pytest.approx(0.7)  # requests scale by 10/7
    np.testing.assert_allclose(reduced.entitlements, [0.4, 0.6])
    np.testing.assert_allclose(
        reduced.requirements[:, 0], [0.5 * 5 / 3, 0.45 * 5 / 3]
    )
    assert ("dummy", 0) not in reduced.column_origin


def test_eliminate_is_identity_when_everyone_reaches_entitlement():
    lifted, _ = drop_slack_resources(add_dummy_resources(load_fixture("drf_compare")))
    reduced, steps = eliminate_satisfied_users(lifted)
    assert steps == ()
    np.testing.assert_array_equal(reduced.requirements, lifted.requirements)


def test_eliminate_single_user_under_entitlement_empties_problem():
    inst = ProblemInstance(entitlements=[1.0], requirements=[[0.7]])
    lifted, dropped = drop_slack_resources(add_dummy_resources(inst))
    assert dropped == (("real", 0),)
    reduced, steps = eliminate_satisfied_users(lifted)
    assert [s.user for s in steps] == [0]
    assert reduced.n_users == 0


def test_remove_dominated_drops_strictly_implied_column():
    lifted, _ = drop_slack_resources(add_dummy_resources(load_fixture("drf_compare")))
    reduced, removed = remove_dominated_constraints(lifted)
    assert removed == (("real", 1),)  # probe maximum 0.92 < 1
    assert reduced.column_origin == (
        ("real", 0),
        ("dummy", 0),
        ("dummy", 1),
        ("dummy", 2),
    )


def test_remove_dominated_keeps_exact_ties():
    # A duplicated column's probe reaches exactly 1; ties are kept because a
    # tied column can still saturate at a solution.
    inst = ProblemInstance(
        entitlements=[0.5, 0.5],
        requirements=[[0.6, 0.6], [0.7, 0.7]],
    )
    lifted = add_dummy_resources(inst)
    reduced, removed = remove_dominated_constraints(lifted)
    assert removed == ()
    assert ("real", 1) in reduced.column_origin


def test_remove_dominated_keeps_both_crossing_columns():
    lifted = add_dummy_resources(load_fixture("nonunique_n3"))
    reduced, removed = remove_dominated_constraints(lifted)
    assert ("real", 0) in reduced.column_origin
    assert ("real", 1) in reduced.column_origin


def test_preprocess_keeps_implied_columns():
    # Real column 2 is implied by column 1 (see the standalone test above),
    # but the pipeline keeps implied columns: they never saturate.
    reduced, trace = preprocess(load_fixture("drf_compare"))
    assert reduced.column_origin == (
        ("real", 0),
        ("real", 1),
        ("dummy", 0),
        ("dummy", 1),
        ("dummy", 2),
    )
    assert trace.removed_dominated == ()


def test_preprocess_no_reductions_on_contended_instance():
    reduced, trace = preprocess(load_fixture("greedy3"))
    assert trace.dropped_slack == ()
    assert trace.eliminations == ()
    real = [key for key in reduced.column_origin if key[0] == "real"]
    assert real == [("real", 0), ("real", 1), ("real", 2)]


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_preprocess_postconditions(name, tol=1e-9):
    reduced, _ = preprocess(load_fixture(name))
    if reduced.n_users == 0:
        return
    sums = reduced.requirements.sum(axis=0)
    real = [k for k, key in enumerate(reduced.column_origin) if key[0] == "real"]
    assert all(sums[k] >= 1.0 - tol for k in real)
    for i in range(reduced.n_users):
        assert any(
            reduced.requirements[i, k] >= reduced.entitlements[i] - tol for k in real
        )
    assert reduced.entitlements.sum() == pytest.approx(1.0, abs=1e-9)


def test_strictly_dominated_columns_never_bottleneck_in_witnesses():
    # Only drf_compare has a strictly dominated real column before any user
    # elimination; its probe maximum is 0.92, so no fair allocation can
    # saturate it.
    inst = load_fixture("drf_compare")
    _, removed = remove_dominated_constraints(add_dummy_resources(inst))
    removed_real = [j for kind, j in removed if kind == "real"]
    assert removed_real == [1]
    family = enumerate_solutions(inst)
    assert family.witnesses
    for witness in family.witnesses:
        u = usages(inst, witness.x)
        for j in removed_real:
            assert u[j] < 1.0 - 1e-6


def test_lift_identity_when_no_users_eliminated():
    inst = load_fixture("slope2")
    _, trace = preprocess(inst)
    lifted = lift_solution(trace, np.array([0.6, 0.9]))
    np.testing.assert_allclose(lifted.allocation, [0.6, 0.9])
    assert lifted.bottlenecks == (0,)


def test_lift_grants_eliminated_user_everything():
    inst = load_fixture("elim_example")
    reduced, trace = preprocess(inst)
    from fairshare.solver import integrate_trajectory

    points, _ = integrate_trajectory(reduced)
    lifted = lift_solution(trace, points[-1].x)
    assert lifted.allocation[0] == 1.0
    np.testing.assert_array_equal(lifted.allocation[1:], points[-1].x)


def test_lift_raises_when_the_lifted_allocation_fails_verification():
    # Half of the survivors' fair split leaves resource 1 unsaturated, so
    # users 2 and 3 complain on the original instance.
    inst = load_fixture("elim_example")
    _, trace = preprocess(inst)
    with pytest.raises(LiftConsistencyError) as caught:
        lift_solution(trace, np.array([0.3, 0.45]))
    report = caught.value.report
    assert not report.passed and not report.njc_ok
    assert report.instance is inst
    np.testing.assert_array_equal(report.allocation, [1.0, 0.3, 0.45])
    assert "COMPLAINT" in str(caught.value)
