import numpy as np
import pytest

import fairshare.lp
import fairshare.reductions
import fairshare.solver
from fairshare import eg
from fairshare.fixtures import FIXTURES, load_fixture
from fairshare.model import ProblemInstance, add_dummy_resources
from fairshare.oracle import random_instance
from fairshare.reductions import preprocess, remove_dominated_constraints
from fairshare.solver import (
    _SLACK_FLOOR,
    DomainBoundaryError,
    InvalidInstanceError,
    gradient,
    integrate_trajectory,
    level_value,
    solve,
    trajectory_derivative,
)
from fairshare.verifier import verify

FIG5_LEVEL_AT_03 = 1.2241755116434556  # -(ln 0.6 + 2 ln 0.7)


def _lifted(name):
    return add_dummy_resources(load_fixture(name))


def _without_dominated(inst):
    """The instance minus the real columns implied by the others."""
    _, removed = remove_dominated_constraints(add_dummy_resources(inst))
    gone = {j for kind, j in removed if kind == "real"}
    keep = [j for j in range(inst.n_real_resources) if j not in gone]
    return ProblemInstance(
        entitlements=inst.entitlements, requirements=inst.requirements[:, keep]
    )


def _random_interior_point(lifted, rng):
    d = rng.uniform(0.05, 1.0, lifted.n_users)
    peak = float((d @ lifted.requirements).max())
    return d * (rng.uniform(0.2, 0.8) / peak)


def test_level_value_zero_at_origin():
    lifted = _lifted("slope2")
    assert level_value(lifted, np.zeros(2)) == 0.0


def test_level_value_matches_hand_computation():
    lifted = _lifted("slope2")
    assert level_value(lifted, [0.3, 0.3]) == pytest.approx(FIG5_LEVEL_AT_03, abs=1e-12)


def test_level_value_boundary_is_a_domain_error():
    # A NaN slack is no more interior than a zero one.
    lifted = _lifted("slope2")
    for x in ([0.75, 0.75], [np.nan, 0.1]):
        with pytest.raises(DomainBoundaryError) as err:
            level_value(lifted, x)
        assert "1" in str(err.value)  # names the saturated column
        with pytest.raises(DomainBoundaryError):
            gradient(lifted, x)


def test_gradient_at_origin_is_row_sums():
    lifted = _lifted("greedy3")
    raw, unit = gradient(lifted, np.zeros(3))
    np.testing.assert_allclose(raw, lifted.requirements.sum(axis=1))
    assert np.linalg.norm(unit) == pytest.approx(1.0, abs=1e-12)


def test_gradient_symmetric_instance_has_equal_components():
    lifted = _lifted("slope2")
    raw, _ = gradient(lifted, [0.3, 0.3])
    assert raw[0] == pytest.approx(raw[1], rel=1e-12)
    assert raw[0] == pytest.approx((2 / 3) / 0.6 + 1.0 / 0.7, rel=1e-12)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(11)
    checked = 0
    for k in range(20):
        inst = random_instance(500 + k, 1 + k % 5, 1 + (3 * k) % 5)
        lifted = add_dummy_resources(inst)
        for _ in range(5):
            x = _random_interior_point(lifted, rng)
            raw, _ = gradient(lifted, x)
            h = 1e-6
            for i in range(lifted.n_users):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                fd = (level_value(lifted, xp) - level_value(lifted, xm)) / (2 * h)
                assert fd == pytest.approx(raw[i], rel=1e-5)
                checked += 1
    assert checked >= 100


def test_trajectory_derivative_symmetry():
    r = load_fixture("slope2").requirements
    lifted = add_dummy_resources(ProblemInstance(entitlements=[0.5, 0.5], requirements=r))
    for s in (0.01, 0.1, 0.3):
        v = trajectory_derivative(lifted, np.array([s, s]))
        assert v[0] == pytest.approx(v[1], rel=1e-12)


def test_trajectory_derivative_closed_form_at_origin():
    lifted = _lifted("slope2")
    v = trajectory_derivative(lifted, np.zeros(2))
    # row sums are 2/3 + 1; entitlements (0.4, 0.6); the level-rate factor is 1
    np.testing.assert_allclose(v, [0.4 / (5 / 3), 0.6 / (5 / 3)], rtol=1e-12)


def test_trajectory_derivative_unit_level_rate():
    # f must grow at unit rate along the returned direction (checked by
    # central differences away from the boundary, where differencing is
    # well conditioned).
    worst = 0.0
    for k in range(6):
        lifted = add_dummy_resources(random_instance(900 + k, 2 + k % 3, 2 + k % 3))
        points, _ = integrate_trajectory(lifted)
        for p in points:
            if float(np.min(p.slacks)) < 1e-2:
                continue
            v = trajectory_derivative(lifted, p.x)
            h = 1e-6
            df = (
                level_value(lifted, p.x + h * v) - level_value(lifted, p.x - h * v)
            ) / (2 * h)
            worst = max(worst, abs(df - 1.0))
    assert worst < 1e-5


def test_integrate_endpoint_two_users_single_resource():
    points, _ = integrate_trajectory(_lifted("slope2"))
    np.testing.assert_allclose(points[-1].x, [0.6, 0.9], atol=1e-5)


def test_integrate_endpoint_three_users_one_bottleneck():
    points, _ = integrate_trajectory(_lifted("drf_compare"))
    np.testing.assert_allclose(points[-1].x, [1 / 3, 1 / 3, 5 / 6], atol=1e-5)


@pytest.mark.parametrize("name", ["slope2", "drf_compare", "greedy3", "circle4"])
def test_integrate_points_stay_strictly_interior(name):
    points, _ = integrate_trajectory(_lifted(name))
    assert points[0].t == 0.0
    np.testing.assert_allclose(points[0].x, 0.0)
    for p in points:
        assert float(np.min(p.slacks)) > 0.0
        assert abs(p.f_value - p.t) <= 1e-6
        assert np.linalg.norm(p.normal) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("name", ["slope2", "drf_compare", "utilization", "circle4"])
def test_min_slack_monotone_after_t_one(name):
    points, _ = integrate_trajectory(_lifted(name))
    mins = [float(np.min(p.slacks)) for p in points if p.t >= 1.0]
    for a, b in zip(mins, mins[1:]):
        assert b <= a + 1e-9


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_integration_stops_at_the_first_sample_below_the_slack_floor(name):
    # The one stop rule: every run ends "converged" on the first sample
    # whose smallest slack is below the floor, and no earlier sample is.
    points, termination = integrate_trajectory(_lifted(name))
    assert termination == "converged"
    mins = [float(np.min(p.slacks)) for p in points]
    assert mins[-1] < _SLACK_FLOOR
    assert all(v >= _SLACK_FLOOR for v in mins[:-1])


def test_the_fixtures_trajectories_take_at_most_541_derivatives_and_2071_linear_solves(
    monkeypatch,
):
    # A guard on the work of the reference path that, unlike a time,
    # repeats exactly from run to run: the derivative evaluations and the
    # linear solves, those of the derivative and of the Newton projection,
    # over the trajectories of the fixtures.
    counts = {"derivatives": 0, "linear solves": 0}
    derivative, linear_solve = trajectory_derivative, np.linalg.solve

    def counted_derivative(*args):
        counts["derivatives"] += 1
        return derivative(*args)

    def counted_solve(a, b):
        counts["linear solves"] += 1
        return linear_solve(a, b)

    monkeypatch.setattr(fairshare.solver, "trajectory_derivative", counted_derivative)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    for name in sorted(FIXTURES):
        assert integrate_trajectory(_lifted(name))[1] == "converged"
    assert counts["derivatives"] <= 541, counts
    assert counts["linear solves"] <= 2071, counts


def test_solve_reports_bundles_for_shared_bottleneck():
    inst = load_fixture("drf_compare")
    res = solve(inst)
    assert res.report.passed
    np.testing.assert_allclose(res.report.allocation, [1 / 3, 1 / 3, 5 / 6], atol=1e-5)
    bundles = res.report.allocation[:, None] * inst.requirements
    np.testing.assert_allclose(bundles[0], [1 / 3, 2 / 30], atol=1e-5)
    np.testing.assert_allclose(bundles[2], [1 / 3, 2 / 3], atol=1e-5)


def test_solve_utilization_example():
    inst = load_fixture("utilization")
    res = solve(inst)
    assert res.report.passed
    np.testing.assert_allclose(res.report.allocation, [1.0, 0.5], atol=1e-5)
    bundles = res.report.allocation[:, None] * inst.requirements
    np.testing.assert_allclose(bundles[0], [0.5, 0.0, 0.0, 1.0], atol=1e-5)
    np.testing.assert_allclose(bundles[1], [0.5, 0.5, 0.5, 0.0], atol=1e-5)


def test_solve_picks_a_family_member():
    res = solve(load_fixture("nonunique_n3"))
    assert res.report.passed
    x = res.report.allocation
    z = x[0]
    assert 0.5 - 1e-5 <= z <= 0.7 + 1e-5
    np.testing.assert_allclose(x[1:], [1 - z, 1 - z], atol=1e-5)


@pytest.mark.parametrize("name", sorted(FIXTURES))
@pytest.mark.parametrize("drop_dominated", [True, False])
def test_solve_verifies_on_every_fixture(name, drop_dominated):
    # With drop_dominated the caller deletes the implied columns before
    # solving; the answer must still verify on the full instance.
    inst = load_fixture(name)
    res = solve(_without_dominated(inst) if drop_dominated else inst)
    assert res.report.passed
    assert res.termination == "converged"
    assert verify(inst, res.report.allocation).passed


def test_crossover_lands_on_the_active_face_without_any_lp(
    monkeypatch, suite_and_fixtures
):
    # The 200-instance acceptance suite and the fixtures. Every answer must
    # end on a certified face, hold the face's priced columns and every
    # column within 1e-5 of capacity at capacity, and need no LP at all.
    # Only where every user fits at x = 1 may no column carry a price.
    def no_lp(*args, **kwargs):
        raise AssertionError("solve must not call the simplex")

    monkeypatch.setattr(fairshare.lp, "maximize", no_lp)
    for inst in suite_and_fixtures:
        res = solve(inst)
        assert res.report.passed
        assert res.polish_applied
        x, p, status = eg.solve_eg(inst.entitlements, inst.requirements)
        assert status == "optimal"
        np.testing.assert_array_equal(res.report.allocation, x)
        usage = x @ inst.requirements
        active = (p > 0.0) | (1.0 - usage <= 1e-5)
        assert (p > 0.0).any() or (x == 1.0).all()
        assert np.max(np.abs(usage[active] - 1.0), initial=0.0) <= 1e-12


def test_finishing_on_a_face_changes_no_answer(
    monkeypatch, without_the_face_exit, suite_and_fixtures, medium_instances
):
    # solve_eg with the faces of its iterates declined runs the interior
    # point to its iteration cap and finishes on the face there; those
    # answers must agree with the early face exit's.
    cases = suite_and_fixtures + medium_instances
    finished = [solve(inst) for inst in cases]
    face = eg._face

    def at_the_stop(e, r, eps):
        x, p, status, last = without_the_face_exit(e, r)
        point = None if last is None else face(*last)
        if point is None:
            return x, p, status
        return *point, "optimal"

    monkeypatch.setattr(eg, "solve_eg", at_the_stop)
    for inst, res in zip(cases, finished):
        ref = solve(inst)
        assert res.report.passed and ref.report.passed
        np.testing.assert_allclose(
            res.report.allocation, ref.report.allocation, rtol=0, atol=1e-12
        )
        assert res.polish_applied == ref.polish_applied
        assert res.termination == ref.termination
        assert res.report.justification == ref.report.justification


@pytest.mark.parametrize(
    "entitlements, requirements",
    [
        # one user on three identical columns, all saturated at x = 1
        ([1.0], [[1.0, 1.0, 1.0]]),
        # two users on two repeated columns
        ([0.5, 0.5], [[1.0, 1.0, 0.5], [1.0, 1.0, 0.5]]),
        # three users on three identical columns, more columns on the face
        # than a regular Jacobian allows for the two users short of 1
        ([0.2, 0.3, 0.5], [[0.5, 0.5, 0.5]] * 3),
    ],
)
def test_crossover_on_a_degenerate_face(without_the_face_exit, entitlements, requirements):
    # Repeated columns make the face's Jacobian singular, and the face's
    # Newton step is then the least-norm one; the answer must land on a
    # certified face, both inside solve and from the interior point's
    # stop, where the face residual is already at round-off.
    inst = ProblemInstance(entitlements=entitlements, requirements=requirements)
    res = solve(inst)
    assert res.report.passed
    assert res.polish_applied
    r = inst.requirements
    x, p, status, last = without_the_face_exit(inst.entitlements, r)
    if last is None:
        # Every user fits at x = 1: the empty face certified at once.
        np.testing.assert_array_equal(x, res.report.allocation)
        return
    # Repeated columns leave the Newton system singular to working precision
    # once the barrier is small enough; either stop is the interior point's.
    assert status in ("iteration_limit", "singular")
    finished = eg._face(*last)
    assert finished is not None
    active = finished[1] > 0.0
    assert active.sum() > 1
    usage = finished[0] @ r[:, active]
    assert np.max(np.abs(usage - 1.0)) <= 1e-12
    np.testing.assert_allclose(finished[0], res.report.allocation, rtol=0, atol=1e-12)


def test_crossover_leaves_a_user_off_the_active_face_in_place():
    # User 2 requests nothing on resource 1, where user 1 holds the whole
    # capacity: both users fit at x = 1, so solve lands on the empty face
    # and grants both in full.
    inst = ProblemInstance(entitlements=[0.5, 0.5], requirements=[[1.0, 0.0], [0.0, 0.5]])
    res = solve(inst)
    assert res.report.passed and res.polish_applied
    np.testing.assert_array_equal(res.report.allocation, [1.0, 1.0])


def test_solve_needs_no_reduction(monkeypatch, medium_instances, large_instance):
    def no_reduction(*args, **kwargs):
        raise AssertionError("solve must not reduce the instance")

    for module in (fairshare.solver, fairshare.reductions):
        monkeypatch.setattr(module, "preprocess", no_reduction)
        monkeypatch.setattr(module, "lift_solution", no_reduction)
    monkeypatch.setattr(fairshare.reductions, "eliminate_satisfied_users", no_reduction)
    cases = [load_fixture(name) for name in sorted(FIXTURES)]
    for inst in cases + medium_instances + [large_instance]:
        res = solve(inst)
        assert res.report.passed
        assert res.termination == "converged"


def test_solve_equals_the_program_on_the_reduced_instance(
    suite_and_fixtures, medium_instances
):
    # The reductions preserve the program's optimum: solving the reduced
    # instance and granting the eliminated users in full gives solve's answer.
    for inst in suite_and_fixtures + medium_instances:
        reduced, _ = preprocess(inst)
        x = np.ones(inst.n_users)
        if reduced.n_users:
            x[list(reduced.user_origin)] = eg.solve_eg(
                reduced.entitlements, reduced.requirements
            )[0]
        np.testing.assert_allclose(solve(inst).report.allocation, x, rtol=0, atol=1e-12)


def test_solve_verifies_a_400_by_100_instance(large_instance):
    res = solve(large_instance)
    assert res.termination == "converged"
    assert res.polish_applied
    assert res.report.passed


def test_deleting_dominated_columns_leaves_the_endpoint_unchanged():
    # A column implied by the others can never saturate, so it is never a
    # bottleneck: solving without it must land on the same allocation.
    cases = [load_fixture(name) for name in sorted(FIXTURES)]
    cases += [
        random_instance(3000 + seed, 2 + seed % 4, 2 + (seed // 4) % 4)
        for seed in range(60)
    ]
    with_dominated = 0
    for inst in cases:
        reduced = _without_dominated(inst)
        if reduced.n_real_resources == inst.n_real_resources:
            continue
        with_dominated += 1
        np.testing.assert_allclose(
            solve(reduced).report.allocation,
            solve(inst).report.allocation,
            atol=1e-5,
        )
    assert with_dominated >= 40  # 47 of the 67 instances have one


def test_solve_rejects_invalid_instance():
    inst = ProblemInstance(entitlements=[0.9, 0.9], requirements=[[0.5], [0.5]])
    with pytest.raises(InvalidInstanceError):
        solve(inst)


@pytest.mark.parametrize(
    "entitlements, requirements",
    [([np.nan, 1.0], [[0.5], [0.5]]), ([0.5, 0.5], [[np.nan], [0.5]])],
)
def test_solve_rejects_non_finite_input(entitlements, requirements):
    inst = ProblemInstance(entitlements=entitlements, requirements=requirements)
    with pytest.raises(InvalidInstanceError, match="not finite"):
        solve(inst)


def test_solve_zero_requirement_user_is_fully_granted():
    inst = ProblemInstance(
        entitlements=[0.5, 0.5], requirements=[[0.0, 0.0], [1.0, 0.6]]
    )
    res = solve(inst)
    assert res.report.passed
    assert res.report.allocation[0] == 1.0


def test_solve_zero_entitlement_user():
    inst = ProblemInstance(
        entitlements=[1.0, 0.0], requirements=[[0.9, 0.5], [0.8, 0.3]]
    )
    res = solve(inst)
    assert res.report.passed


@pytest.mark.parametrize(
    "entitlements, requirements, expected",
    [
        # users 1 and 2 are granted in full and saturate nothing, so user 3,
        # entitled to nothing, gets what is left: everything
        ([0.5, 0.5, 0.0], [[0.6, 0.0], [0.0, 0.6], [0.3, 0.3]], [1.0, 1.0, 1.0]),
        # user 1 is granted in full; user 2 fills resource 1's last tenth
        ([1.0, 0.0], [[0.9, 0.5], [0.8, 0.3]], [1.0, 0.125]),
        # user 2 requests nothing, so nothing they get can complain
        ([1.0, 0.0], [[0.5], [0.0]], [1.0, 1.0]),
        # user 1 saturates resource 1, which user 2 does not request: user 2
        # fits in full on resource 2
        ([1.0, 0.0], [[1.0, 0.0], [0.0, 0.5]], [1.0, 1.0]),
        ([0.5, 0.5, 0.0], [[1.0, 0.0], [1.0, 0.0], [0.0, 0.5]], [0.5, 0.5, 1.0]),
        # user 2 requests the bottleneck and keeps 0, pinned there; users 3
        # and 4 share what is left of resource 2
        (
            [1.0, 0.0, 0.0, 0.0],
            [[1.0, 0.2], [0.5, 0.5], [0.0, 0.8], [0.0, 0.8]],
            [1.0, 0.0, 0.5, 0.5],
        ),
    ],
)
def test_solve_gives_users_entitled_to_nothing_what_is_left(
    monkeypatch, entitlements, requirements, expected
):
    # ``eg.solve_eg`` alone decides what these users get, so ``solve`` runs
    # it once and verifies its answer once, and it gives the same allocation
    # when called by itself.
    inst = ProblemInstance(entitlements=entitlements, requirements=requirements)
    calls = []
    solve_eg, check = eg.solve_eg, fairshare.solver.verify
    monkeypatch.setattr(
        eg, "solve_eg", lambda *a: calls.append("solve_eg") or solve_eg(*a)
    )
    monkeypatch.setattr(
        fairshare.solver, "verify", lambda *a: calls.append("verify") or check(*a)
    )
    res = solve(inst)
    assert calls == ["solve_eg", "verify"]
    assert res.report.passed
    assert res.report.pareto_ok
    np.testing.assert_allclose(res.report.allocation, expected, rtol=0, atol=1e-12)
    x, _, status = solve_eg(inst.entitlements, inst.requirements)
    np.testing.assert_array_equal(x, res.report.allocation)
    assert status == "optimal"


@pytest.mark.parametrize(
    "small",
    [(0.0,), (1e-6, 1e-9, 1e-12, 1e-15, 0.0), (1e-310, 5e-324, 0.0)],
    ids=["zero", "tiny", "subnormal"],
)
def test_users_entitled_to_nothing_are_pinned_or_served(small):
    # 400 seeded draws of 2-6 users by 1-6 resources with 30% zero requests,
    # each entitlement U(0, 1) replaced with probability 0.4 by a value from
    # ``small``. Every answer verifies, and every user short of 1 is pinned
    # by a saturated resource they request. ``solve_eg`` counts entitlements
    # below 2.2e-308 as none; while its interior point priced them, 33 of
    # the subnormal draws failed to verify and 73 were not Pareto.
    rng = np.random.default_rng(100)
    drawn = 0
    while drawn < 400:
        n, m = int(rng.integers(2, 7)), int(rng.integers(1, 7))
        e = rng.uniform(0.0, 1.0, n)
        replaced = rng.random(n) < 0.4
        e[replaced] = rng.choice(small, int(replaced.sum()))
        r = rng.uniform(0.0, 1.0, (n, m)) * (rng.random((n, m)) >= 0.3)
        if not e.sum() > 0.0:
            continue
        drawn += 1
        res = solve(ProblemInstance(entitlements=e / e.sum(), requirements=r))
        assert res.report.passed, (e, r)
        assert res.report.pareto_ok, (e, r)


def test_doubling_convergence_detection_runs():
    res = solve(load_fixture("circle4"))
    assert res.termination == "converged"
    # the symmetric answer, exactly polished
    np.testing.assert_allclose(res.report.allocation, 1 / 3, atol=1e-9)


def test_converged_results_always_carry_verified_solutions():
    # SolveResult invariant: termination == "converged" implies the verifier
    # passed. Includes instances whose columns can never saturate, which
    # exercise slack dropping and user elimination.
    for seed in range(40):
        n, m = 1 + seed % 5, 1 + (seed * 3) % 5
        inst = random_instance(60_000 + seed, n, m, min_column_sum=None)
        res = solve(inst)
        if res.termination == "converged":
            assert res.report.passed


@pytest.mark.parametrize("status", ["optimal", "iteration_limit", "singular"])
def test_a_failing_answer_reports_the_interior_points_own_flag(monkeypatch, status):
    # On greedy3, (3/4, 1, 0) leaves user 3 with a complaint.
    x = np.array([0.75, 1.0, 0.0])
    monkeypatch.setattr(eg, "solve_eg", lambda e, r, eps: (x.copy(), None, status))
    res = solve(load_fixture("greedy3"))
    assert not res.report.passed
    assert res.termination == status


def test_solution_bottlenecks_are_saturated_within_tolerance():
    for name in ("drf_compare", "utilization", "nonunique_n3", "circle4"):
        inst = load_fixture(name)
        res = solve(inst)
        u = res.report.allocation @ inst.requirements
        for j in res.report.bottlenecks:
            assert abs(1.0 - u[j]) <= 1e-6
        for i, j in enumerate(res.report.justification):
            if j is not None:
                share = res.report.allocation[i] * inst.requirements[i, j]
                assert share >= inst.entitlements[i] - 1e-6


def _tied_on_resources_4_and_18():
    """x = (0.75, 1): user 1 gets 0.6 >= 0.5 on both bottlenecks, 4 and 18."""
    r = np.zeros((2, 18))
    r[0, 3] = r[0, 17] = 0.8
    r[1, 3] = r[1, 17] = 0.4
    return ProblemInstance(entitlements=[0.5, 0.5], requirements=r)


def test_a_tie_between_bottlenecks_goes_to_the_lowest_index():
    # The set {3, 17} iterates 17 first; the justification once followed
    # that order, while the report named resource 4.
    res = solve(_tied_on_resources_4_and_18())
    np.testing.assert_allclose(res.report.allocation, [0.75, 1.0], rtol=0, atol=1e-12)
    assert res.report.bottlenecks == (3, 17)
    assert res.report.justification == (3, None)
    assert [st.resource for st in res.report.users] == [3, None]


@pytest.mark.parametrize(
    "entitlements,requirements",
    [
        # extreme entitlement skew
        ([0.998, 0.001, 0.001], [[0.9, 0.2], [0.8, 0.9], [0.5, 0.6]]),
        # four identical users
        ([0.25] * 4, [[0.7, 0.3]] * 4),
        # near-identical users, perturbed at 1e-9
        (
            [0.25] * 4,
            [[0.7, 0.3], [0.7, 0.3 + 1e-9], [0.7 - 1e-9, 0.3], [0.7, 0.3]],
        ),
        # unit requests shared and exclusive
        ([0.2, 0.3, 0.5], [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]),
        # disjoint identity profiles
        ([0.4, 0.3, 0.3], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        # six users on one resource
        ([1 / 6] * 6, [[1.0]] * 6),
        # nothing ever saturates
        ([0.5, 0.5], [[0.1, 0.2], [0.3, 0.1]]),
        # a tiny-entitlement user beside a hog
        ([0.01, 0.99], [[1.0, 1.0], [1.0, 1.0]]),
    ],
)
def test_solve_handles_degenerate_shapes(entitlements, requirements):
    res = solve(ProblemInstance(entitlements=entitlements, requirements=requirements))
    assert res.report.passed
    assert res.termination == "converged"


def test_solve_entitlements_spanning_many_decades():
    # Slack decay rates scale with each user's entitlement, so these exceed
    # what the trajectory can finish in float precision; the interior point
    # must still deliver verified answers.
    rng = np.random.default_rng(999)
    for trial in range(8):
        n = int(rng.integers(3, 6))
        m = int(rng.integers(2, 6))
        e = 10.0 ** rng.uniform(-8, 0, n)
        e /= e.sum()
        r = rng.uniform(0.0, 1.0, (n, m)) * (rng.random((n, m)) < 0.7)
        sums = r.sum(axis=0)
        for j in range(m):
            if 0.0 < sums[j] < 1.0:
                r[:, j] /= sums[j]
        res = solve(ProblemInstance(entitlements=e, requirements=r))
        assert res.report.passed


def test_pure_scaling_misreports_never_gain():
    # Reporting the same profile scaled up or down leaves the liar's
    # executable workload unchanged: the allocation rescales inversely.
    # (Reshaped profiles CAN steer the selection among multiple equally fair
    # answers; that freedom is inherent to non-unique solution sets and is
    # not asserted here.)
    from fairshare.model import utility

    rng = np.random.default_rng(31)
    checked = 0
    for trial in range(40):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        e = rng.uniform(0.1, 1.0, n)
        e /= e.sum()
        r = rng.uniform(0.05, 1.0, (n, m))
        sums = r.sum(axis=0)
        for j in range(m):
            if sums[j] < 1.0:
                r[:, j] /= sums[j]
        inst = ProblemInstance(entitlements=e, requirements=r)
        truth = solve(inst)
        assert truth.report.passed
        liar = int(rng.integers(0, n))
        x_true = float(truth.report.allocation[liar])
        for factor in (0.6, 1.4):
            r2 = r.copy()
            r2[liar] = r[liar] * factor
            if r2[liar].max() > 1.0:
                continue  # capping would reshape the profile
            lied = solve(ProblemInstance(entitlements=e, requirements=r2))
            assert lied.report.passed
            bundle = lied.report.allocation[liar] * r2[liar]
            gained = utility(inst, liar, bundle)
            assert gained <= x_true + 1e-6
            checked += 1
    assert checked >= 30


def test_trajectory_alignment_ratio_is_constant_across_users():
    # x_i nu_i / e_i agree across users with positive entitlement.
    lifted = _lifted("greedy3")
    points, _ = integrate_trajectory(lifted)
    e = lifted.entitlements
    for p in points[1:]:
        ratios = (p.x * p.normal)[e > 0] / e[e > 0]
        spread = float(np.max(ratios) - np.min(ratios))
        assert spread <= 1e-6 * max(1.0, float(np.max(np.abs(ratios))))
