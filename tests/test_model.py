import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairshare import eg
from fairshare.fixtures import fixture_names, load_fixture
from fairshare.model import (
    ProblemInstance,
    ToleranceConfig,
    Violation,
    add_dummy_resources,
    usages,
    utility,
    validate_instance,
)
from fairshare.oracle import random_instance
from fairshare.reductions import lift_solution, preprocess
from fairshare.verifier import verify


def test_validate_symmetric_instance_ok():
    inst = ProblemInstance(entitlements=[0.5, 0.5], requirements=[[0.5], [0.5]])
    assert validate_instance(inst) == []


def test_validate_rejects_bad_entitlement_sum():
    inst = ProblemInstance(entitlements=[0.6, 0.6], requirements=[[0.5], [0.5]])
    violations = validate_instance(inst)
    assert len(violations) == 1
    assert violations[0].field == "entitlements"
    assert violations[0].residual == pytest.approx(0.2)
    assert "1.2" in violations[0].message


def test_validate_three_user_contention_instance():
    assert validate_instance(load_fixture("greedy3")) == []


def test_validate_flags_negative_and_oversized_requests():
    inst = ProblemInstance(entitlements=[1.0], requirements=[[-0.1, 1.5]])
    violations = validate_instance(inst)
    assert len(violations) == 2
    assert all(v.field == "requirements" for v in violations)
    assert "resource 2" in violations[1].message


@pytest.mark.parametrize(
    "entitlements, requirements, field, count",
    [
        ([np.nan, 1.0], [[0.5], [0.5]], "entitlements", 1),
        ([np.inf, 0.5], [[0.5], [0.5]], "entitlements", 2),  # and the sum
        ([0.5, 0.5], [[0.5, np.nan], [0.5, 0.5]], "requirements", 1),
        ([0.5, 0.5], [[0.5, 0.5], [-np.inf, np.inf]], "requirements", 2),
    ],
)
def test_validate_flags_non_finite_values(entitlements, requirements, field, count):
    # NaN passes every comparison test unnoticed, so it is reported as a
    # value of its own, once per entry.
    inst = ProblemInstance(entitlements=entitlements, requirements=requirements)
    violations = validate_instance(inst)
    assert len(violations) == count
    flagged = [v for v in violations if "not finite" in v.message]
    assert flagged and all(v.field == field for v in flagged)
    assert all(not np.isfinite(v.residual) for v in flagged)


def test_validate_is_pure_and_idempotent():
    inst = load_fixture("circle4")
    before_e = inst.entitlements.copy()
    first = validate_instance(inst)
    second = validate_instance(inst)
    assert first == second == []
    np.testing.assert_array_equal(inst.entitlements, before_e)


def _violations_reference(inst, tol):
    """validate_instance as one test per element, in the order the
    violations are reported: shape, sum, entitlements, then requests row
    by row."""
    e, r = inst.entitlements, inst.requirements
    found = []
    if e.shape[0] < 1:
        found.append(Violation("entitlements", None, 0.0, "instance has no users"))
    if r.shape[1] < 1:
        found.append(Violation("requirements", None, 0.0, "instance has no resources"))
    total = float(e.sum()) if e.size else 0.0
    if abs(total - 1.0) > tol.eps_input:
        found.append(Violation(
            "entitlements", None, total - 1.0,
            f"entitlements sum {total:.10g} != 1 (residual {total - 1.0:.3g})",
        ))
    for i, value in enumerate(e):
        if not np.isfinite(value) or value < 0.0:
            problem = "negative" if np.isfinite(value) else "not finite"
            found.append(Violation(
                "entitlements", i + 1, float(value),
                f"entitlement of user {inst.user_label(i)} is {problem} ({value:.10g})",
            ))
    for i in range(r.shape[0]):
        for j in range(r.shape[1]):
            value = r[i, j]
            if not np.isfinite(value) or value < 0.0 or value > 1.0:
                problem = "outside [0, 1]" if np.isfinite(value) else "not finite"
                found.append(Violation(
                    "requirements", i + 1, float(value) - (1.0 if value > 1.0 else 0.0),
                    f"request of user {inst.user_label(i)} on resource "
                    f"{inst.resource_label(j)} is {value:.10g}, {problem}",
                ))
    return found


def _validation_cases(tol):
    eps = tol.eps_input
    cases = [
        ([], np.zeros((0, 2))),  # no users
        ([0.5, 0.5], np.zeros((2, 0))),  # no resources
        ([], np.zeros((0, 0))),
        ([-0.25, 1.25], [[0.5], [0.5]]),  # a negative entitlement
    ]
    for delta in (-2 * eps, -eps, eps, 2 * eps):
        cases.append(([0.25, 0.75 + delta], [[0.5, 0.25], [0.5, 1.0]]))
    cases.append(([0.5, 0.5], [[-0.0, 0.0], [1.0, 1.0 + 1e-16]]))
    cases.append(([0.5, 0.5], [[0.5, 1.0 + 1e-15], [-1e-300, 0.5]]))
    for bad in (np.nan, np.inf, -np.inf):
        cases.append(([bad, 0.5], [[0.5], [0.5]]))
        cases.append(([0.5, 0.5], [[0.5, bad], [bad, 0.5]]))
    rng = np.random.default_rng(3)
    for k in range(60):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        e = rng.uniform(0.0, 1.0, n)
        e = e / e.sum()
        r = rng.uniform(0.0, 1.0, (n, m))
        if k % 3 == 1:
            r[rng.random((n, m)) < 0.3] = rng.choice([-0.5, 1.5, np.nan, np.inf])
        if k % 4 == 2:
            e[rng.integers(n)] += rng.choice([-2.0, 0.5, np.nan])
        cases.append((e, r))
    return [ProblemInstance(entitlements=e, requirements=r) for e, r in cases]


def test_validate_instance_equals_the_per_element_reference():
    # validate_instance tests the whole instance at once and lists the
    # violations only when that test fails; the list must equal the
    # per-element loop in every field and in order, -0.0 and NaN included.
    tol = ToleranceConfig()
    valid = 0
    for inst in _validation_cases(tol):
        found = validate_instance(inst, tol)
        assert repr(found) == repr(_violations_reference(inst, tol))
        valid += not found
    assert valid >= 20


def test_instance_arrays_are_read_only():
    inst = load_fixture("slope2")
    with pytest.raises(ValueError):
        inst.requirements[0, 0] = 0.9


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"entitlements": [[0.5, 0.5]], "requirements": [[1.0]]}, "entitlements must be a vector"),
        ({"entitlements": [1.0], "requirements": [0.5]}, "requirements must be a 2-D matrix"),
        (
            {"entitlements": [1.0], "requirements": [[0.5, 0.5]], "resource_names": ("cpu",)},
            "resource_names length",
        ),
    ],
    ids=["entitlements-2-D", "requirements-1-D", "resource-names-short"],
)
def test_an_instance_of_the_wrong_shape_is_refused(fields, message):
    with pytest.raises(ValueError, match=message):
        ProblemInstance(**fields)


def test_usages_refuses_an_allocation_of_the_wrong_shape():
    with pytest.raises(ValueError, match=r"allocation has shape \(1,\), expected \(2,\)"):
        usages(load_fixture("slope2"), [0.5])


def test_an_unknown_fixture_name_is_a_key_error_that_lists_the_fixtures():
    with pytest.raises(KeyError, match="unknown fixture 'no_such_fixture'") as err:
        load_fixture("no_such_fixture")
    assert all(name in str(err.value) for name in fixture_names())


def test_resource_usage_greedy3_partial_allocation():
    lifted = add_dummy_resources(load_fixture("greedy3"))
    # resource 2 under (3/4, 1, 0): 3/8 + 5/8 = 1
    assert usages(lifted, [0.75, 1.0, 0.0])[1] == pytest.approx(1.0)


def test_resource_usage_zero_allocation_everywhere():
    lifted = add_dummy_resources(load_fixture("circle4"))
    u = usages(lifted, np.zeros(4))
    np.testing.assert_allclose(u, 0.0)


def test_resource_usage_shared_single_resource():
    lifted = add_dummy_resources(load_fixture("slope2"))
    assert usages(lifted, [0.6, 0.9])[0] == pytest.approx(1.0)


# The bottleneck set is decided by the verifier alone.
def test_bottleneck_set_single_saturated_resource():
    assert verify(load_fixture("drf_compare"), [1 / 3, 1 / 3, 5 / 6]).bottlenecks == (0,)


def test_bottleneck_set_interior_point_is_empty():
    assert verify(load_fixture("greedy3"), [0.1, 0.1, 0.1]).bottlenecks == ()


def test_bottleneck_set_two_saturated_resources():
    assert verify(load_fixture("nonunique_n3"), [0.5, 0.5, 0.5]).bottlenecks == (0, 1)


def test_bottleneck_set_rejects_infeasible_allocation():
    # Every resource carries 1.5 at x = 1/2; the first is named.
    report = verify(load_fixture("circle4"), [0.5, 0.5, 0.5, 0.5])
    assert not report.passed and not report.capacity.ok
    assert report.capacity.worst_resource == 0
    assert report.capacity.worst_excess == pytest.approx(0.5)


def test_utility_of_peer_bundle():
    inst = load_fixture("drf_compare")
    # user 3 evaluating the bundle (1/3, 2/30): min((1/3)/0.4, (1/15)/0.8) = 1/12
    assert utility(inst, 2, np.array([1 / 3, 2 / 30])) == pytest.approx(1 / 12)


def test_utility_all_zero_profile_is_fully_served():
    inst = ProblemInstance(entitlements=[0.5, 0.5], requirements=[[0.0, 0.0], [1.0, 1.0]])
    assert utility(inst, 0, np.zeros(2)) == 1.0


def test_utility_carries_a_nan_in_a_requested_column():
    # A NaN that the user reads in the bundle is not a full share: Python's
    # min(1.0, nan) is 1.0, which would read the bundle as fully runnable.
    # A NaN in a column the user does not request changes nothing, and the
    # cap at 1 still holds.
    inst = ProblemInstance(entitlements=[0.5, 0.5], requirements=[[0.5, 0.0], [1.0, 1.0]])
    assert np.isnan(utility(inst, 0, [np.nan, 0.2]))
    assert np.isnan(utility(inst, 1, [0.7, np.nan]))
    assert utility(inst, 0, [0.2, np.nan]) == 0.4
    assert utility(inst, 0, [0.9, np.nan]) == 1.0
    # Every other value is Python's min(1.0, .) bit for bit, signed zero and
    # infinity included.
    for v in (0.0, -0.0, 1e-320, 0.3, 0.5, 0.7, 2.0, np.inf):
        assert repr(utility(inst, 0, [v, 0.0])) == repr(float(min(1.0, v / 0.5)))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 5),
    m=st.integers(1, 5),
    scale=st.floats(0.01, 1.0),
)
def test_utility_own_bundle_identity(seed, n, m, scale):
    inst = random_instance(seed, n, m)
    for i in range(n):
        if inst.requirements[i].max() > 0.0:
            bundle = scale * inst.requirements[i]
            assert utility(inst, i, bundle) == pytest.approx(min(1.0, scale), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 5), m=st.integers(1, 5))
def test_feasible_scaled_usages_and_bottlenecks_in_range(seed, n, m):
    inst = random_instance(seed, n, m)
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, n)
    x_feas = x * min(1.0, 1.0 / max(float(usages(inst, x).max()), 1e-12))
    u = usages(inst, x_feas)
    assert np.all(u <= 1.0 + 1e-9)
    assert set(verify(inst, x_feas).bottlenecks) <= set(range(m))


def test_tolerance_config_rejects_nonpositive_values():
    names = [f.name for f in dataclasses.fields(ToleranceConfig)]
    assert names == ["eps_input", "eps_feasible", "eps_bottleneck", "eps_njc"]
    for name in names:
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match=name):
                ToleranceConfig(**{name: bad})


def test_tolerance_config_orders_feasible_below_bottleneck():
    with pytest.raises(ValueError):
        ToleranceConfig(eps_feasible=1e-3, eps_bottleneck=1e-6)


def _justification_reference(inst, x, tol):
    """The verifier's bottlenecks and justifications as one loop per user
    over the bottlenecks in index order, so that a tie goes to the lowest
    index."""
    e, r = inst.entitlements, inst.requirements
    bottlenecks = tuple(
        int(j) for j in np.flatnonzero(x @ r >= 1.0 - tol.eps_bottleneck)
    )
    justification = []
    for i in range(x.shape[0]):
        if x[i] >= 1.0 - tol.eps_njc:
            justification.append(None)
            continue
        best, best_share = None, -np.inf
        for j in bottlenecks:
            share = x[i] * r[i, j]
            if share >= e[i] - tol.eps_njc and share > best_share:
                best, best_share = j, share
        justification.append(best)
    return bottlenecks, tuple(justification)


def test_solution_justification_equals_the_per_user_loop(allocation_cases):
    # Including the lifted view of each instance, whose dummy columns
    # saturate for fully allocated users.
    tol = ToleranceConfig()
    for inst, x in allocation_cases:
        for view in (inst, add_dummy_resources(inst)):
            report = verify(view, x, tol)
            bottlenecks, justification = _justification_reference(view, x, tol)
            assert report.bottlenecks == bottlenecks
            assert repr(report.justification) == repr(justification)
            assert report.allocation.tobytes() == x.tobytes()
            leftover = 1.0 - report.capacity.usages
            assert leftover.tobytes() == (1.0 - x @ view.requirements).tobytes()


def test_lifted_justification_equals_the_per_user_loop(suite_and_fixtures):
    # lift_solution returns the report on the original instance: the
    # program's optimum on the reduced instance, with the eliminated users
    # granted in full, is checked against the loop on the original instance.
    tol = ToleranceConfig()
    eliminated = 0
    for inst in suite_and_fixtures:
        reduced, trace = preprocess(inst, tol)
        x_red = (
            eg.solve_eg(reduced.entitlements, reduced.requirements)[0]
            if reduced.n_users
            else np.zeros(0)
        )
        report = lift_solution(trace, x_red, tol)
        x = np.ones(inst.n_users)
        x[list(reduced.user_origin)] = x_red
        assert report.allocation.tobytes() == x.tobytes()
        bottlenecks, justification = _justification_reference(inst, x, tol)
        assert report.bottlenecks == bottlenecks
        assert repr(report.justification) == repr(justification)
        leftover = 1.0 - report.capacity.usages
        assert leftover.tobytes() == (1.0 - x @ inst.requirements).tobytes()
        eliminated += bool(trace.eliminations)
    assert eliminated >= 10
