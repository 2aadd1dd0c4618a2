import json

import numpy as np
import pytest

from fairshare import verifier
from fairshare.drf import solve_drf
from fairshare.fixtures import FIXTURES, load_fixture
from fairshare.model import ProblemInstance, ToleranceConfig, usages
from fairshare.oracle import random_instance
from fairshare.solver import solve
from fairshare.verifier import (
    COMPLAINT,
    FULLY_ALLOCATED,
    JUSTIFIED,
    UserStatus,
    check_envy_free,
    check_sharing_incentive,
    verify,
)


def test_capacity_partial_allocation_passes():
    inst = load_fixture("greedy3")
    assert verify(inst, np.array([1.0, 2 / 3, 0.0])).capacity.ok


def test_capacity_everything_granted_fails():
    inst = load_fixture("greedy3")
    res = verify(inst, np.ones(3)).capacity
    assert not res.ok
    assert res.usages[0] == pytest.approx(2.0)  # resource 1 at twice capacity
    assert res.worst_resource == 1  # resource 2 is the worst violator
    assert res.worst_excess == pytest.approx(1.125)


def test_capacity_zero_allocation_passes():
    inst = load_fixture("greedy3")
    assert verify(inst, np.zeros(3)).capacity.ok


def test_njc_greedy_step_two_users_leaves_second_complaining():
    inst = load_fixture("greedy3")
    statuses = verify(inst, np.array([1.0, 2 / 3, 0.0])).users
    assert statuses[0].status == FULLY_ALLOCATED
    assert statuses[1].status == COMPLAINT
    # the only resource granting user 2 their entitlement is resource 2,
    # which is not saturated under this allocation
    assert statuses[1].non_bottleneck_supports == (1,)
    assert statuses[2].status == COMPLAINT


def test_njc_greedy_step_three_quarters_allocation():
    inst = load_fixture("greedy3")
    statuses = verify(inst, np.array([0.75, 1.0, 0.0])).users
    assert statuses[0].status == JUSTIFIED and statuses[0].resource == 2
    assert statuses[1].status == FULLY_ALLOCATED
    assert statuses[2].status == COMPLAINT


def test_njc_family_instance_below_entitlement():
    inst = load_fixture("nonunique_n3")
    statuses = verify(inst, np.array([0.4, 0.6, 0.6])).users
    assert statuses[0].status == COMPLAINT
    assert statuses[0].margin == pytest.approx(0.4 - 0.5)
    assert statuses[1].ok and statuses[2].ok


def test_pareto_shared_bottleneck_solution_passes():
    inst = load_fixture("drf_compare")
    assert verify(inst, np.array([1 / 3, 1 / 3, 5 / 6])).pareto_ok


def test_pareto_interior_point_fails():
    inst = load_fixture("drf_compare")
    assert not verify(inst, np.array([0.2, 0.2, 0.2])).pareto_ok


def test_pareto_fully_allocated_user_needs_no_pin():
    inst = load_fixture("utilization")
    assert verify(inst, np.array([1.0, 0.5])).pareto_ok


def test_pareto_pins_on_every_bottleneck_verify_names():
    # Usage 0.999999 is exactly eps_bottleneck below capacity in floating
    # point, where 1 - usage is just above it: the Pareto check must count
    # the column as saturated, as the bottleneck set does.
    inst = ProblemInstance(entitlements=[0.5, 0.5], requirements=[[1.0], [1.0]])
    x = np.array([0.4999995, 0.4999995])
    report = verify(inst, x)
    assert report.passed
    assert report.bottlenecks == (0,)
    assert [u.resource for u in report.users] == [0, 0]
    assert report.pareto_ok


def test_envy_identical_users_have_zero_margin():
    inst = load_fixture("drf_compare")  # users 1 and 2 share a profile
    res = check_envy_free(inst, np.array([1 / 3, 1 / 3, 5 / 6]))
    assert res.margins[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert res.margins[1, 0] == pytest.approx(0.0, abs=1e-12)


def test_envy_across_profiles_at_fair_point():
    inst = load_fixture("drf_compare")
    res = check_envy_free(inst, np.array([1 / 3, 1 / 3, 5 / 6]))
    # user 1 running user 3's bundle (1/3, 2/3): capped min(1/3, 10/3) = 1/3
    assert res.margins[0, 2] == pytest.approx(0.0, abs=1e-12)
    assert res.ok


def test_envy_of_dominant_share_allocation():
    inst = load_fixture("drf_compare")
    res = check_envy_free(inst, solve_drf(inst).x)
    assert res.ok
    assert res.worst_margin >= -1e-9


def test_envy_margins_equal_the_per_pair_utility_definition():
    # The envy check computes a whole row of margins at once; every entry,
    # the worst pair and its margin must equal the pairwise definition
    # exactly, including rows that request nothing and zero allocations.
    from fairshare.model import utility

    rng = np.random.default_rng(5)
    for trial in range(60):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 6))
        r = rng.uniform(0.0, 1.0, (n, m)) * (rng.random((n, m)) < 0.7)
        inst = ProblemInstance(entitlements=np.full(n, 1.0 / n), requirements=r)
        x = rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.8)
        res = check_envy_free(inst, x)
        worst, worst_margin = None, np.inf
        for i in range(n):
            for j in range(n):
                if i == j:
                    assert res.margins[i, j] == 0.0
                    continue
                m_ij = float(x[i] - utility(inst, i, x[j] * r[j]))
                assert res.margins[i, j] == m_ij
                if m_ij < worst_margin:
                    worst, worst_margin = (i, j), m_ij
        assert res.worst_pair == worst
        assert res.worst_margin == (0.0 if worst is None else worst_margin)


def test_envy_worst_pair_equals_the_argmin_over_an_off_diagonal_copy(allocation_cases):
    # The worst pair is found with the diagonal masked in place; it must be
    # the one an off-diagonal copy of the margins gives, ties included, and
    # the margins must come back with their zero diagonal.
    for inst, x in allocation_cases:
        res = check_envy_free(inst, x)
        n = inst.n_users
        assert np.all(np.diag(res.margins) == 0.0)
        if n == 1:
            assert res.worst_pair is None and res.worst_margin == 0.0
            continue
        off_diagonal = res.margins.copy()
        np.fill_diagonal(off_diagonal, np.inf)
        k = int(np.argmin(off_diagonal))
        assert res.worst_pair == (k // n, k % n)
        assert repr(res.worst_margin) == repr(float(off_diagonal.flat[k]))


def _njc_reference(inst, x, tol):
    """report.users as one loop per user: the first largest bottleneck share
    in index order, supports scanned over the non-bottleneck resources."""
    e, r = inst.entitlements, inst.requirements
    bn = tuple(int(j) for j in np.flatnonzero(x @ r >= 1.0 - tol.eps_bottleneck))
    statuses = []
    for i in range(inst.n_users):
        if x[i] >= 1.0 - tol.eps_njc:
            statuses.append(UserStatus(i, FULLY_ALLOCATED, None, float(x[i] - 1.0), None, ()))
            continue
        best_j, best_share = None, -np.inf
        for j in bn:
            share = x[i] * r[i, j]
            if share > best_share:
                best_j, best_share = j, float(share)
        if best_j is not None and best_share >= e[i] - tol.eps_njc:
            statuses.append(UserStatus(i, JUSTIFIED, best_j, float(best_share - e[i]), best_j, ()))
            continue
        supports = tuple(
            int(j)
            for j in range(inst.n_real_resources)
            if j not in bn and x[i] * r[i, j] >= e[i] - tol.eps_njc
        )
        margin = float(best_share - e[i]) if best_j is not None else float(-e[i])
        statuses.append(UserStatus(i, COMPLAINT, None, margin, best_j, supports))
    return tuple(statuses)


def _pareto_reference(inst, x, tol):
    saturated = x @ inst.requirements >= 1.0 - tol.eps_bottleneck
    for i in range(inst.n_users):
        if x[i] >= 1.0 - tol.eps_njc:
            continue
        if not np.any((inst.requirements[i] > 0.0) & saturated):
            return False
    return True


def _sharing_margins_reference(inst, x):
    e, r = inst.entitlements, inst.requirements
    margins = np.empty(inst.n_users)
    for i in range(inst.n_users):
        mask = r[i] > 0.0
        baseline = float(np.min(np.minimum(1.0, e[i] / r[i][mask]))) if mask.any() else 1.0
        margins[i] = x[i] - baseline
    return margins


def test_loop_free_checks_equal_the_per_user_loops(allocation_cases):
    # report.users, report.pareto_ok and check_sharing_incentive work on
    # whole matrices; every field must equal the per-user loop bit for bit
    # (repr tells -0.0 from 0.0 and a numpy integer from an int), ties
    # included.
    tol = ToleranceConfig()
    seen = {COMPLAINT: 0, "supports": 0, "no bottleneck": 0, "tie": 0, "pareto fails": 0}
    for inst, x in allocation_cases:
        report = verify(inst, x, tol)
        statuses = report.users
        assert repr(statuses) == repr(_njc_reference(inst, x, tol))
        pareto = report.pareto_ok
        assert pareto is _pareto_reference(inst, x, tol)
        sharing = check_sharing_incentive(inst, x, tol)
        reference = _sharing_margins_reference(inst, x)
        assert sharing.margins.tobytes() == reference.tobytes()
        assert sharing.ok is bool(np.all(reference >= -tol.eps_njc))

        bn = np.flatnonzero(x @ inst.requirements >= 1.0 - tol.eps_bottleneck)
        shares = x[:, None] * inst.requirements[:, bn]
        seen[COMPLAINT] += sum(st.status == COMPLAINT for st in statuses)
        seen["supports"] += sum(bool(st.non_bottleneck_supports) for st in statuses)
        seen["no bottleneck"] += bn.size == 0
        if bn.size:  # partially served users whose largest share ties
            best = shares.max(axis=1)
            tied = (shares == best[:, None]).sum(axis=1) > 1
            seen["tie"] += int((tied & (best > 0.0) & (x < 1.0 - tol.eps_njc)).sum())
        seen["pareto fails"] += not pareto
    assert len(allocation_cases) >= 60
    assert all(count > 0 for count in seen.values()), seen


def test_sharing_incentive_margins_at_fair_point():
    inst = load_fixture("drf_compare")
    res = check_sharing_incentive(inst, np.array([1 / 3, 1 / 3, 5 / 6]))
    assert res.ok
    assert res.margins[2] == pytest.approx(5 / 6 - 5 / 12)


def test_sharing_incentive_full_allocation_low_requests():
    # every request at or below the entitlement: baseline caps at 1
    inst = ProblemInstance(entitlements=[0.9, 0.1], requirements=[[0.3, 0.2], [1.0, 1.0]])
    res = check_sharing_incentive(inst, np.array([1.0, 0.1]))
    assert res.margins[0] == pytest.approx(0.0)


def test_sharing_incentive_exact_at_proportional_split():
    inst = load_fixture("slope2")
    res = check_sharing_incentive(inst, np.array([0.6, 0.9]))
    np.testing.assert_allclose(res.margins, 0.0, atol=1e-12)


def test_envy_and_sharing_checks_honour_the_callers_tolerance():
    loose = ToleranceConfig(eps_njc=1e-3, eps_bottleneck=1e-3)
    slope2 = load_fixture("slope2")
    x = [0.5999, 0.9]  # 1e-4 below user 1's sharing-incentive baseline
    strict = verify(slope2, x)
    assert not strict.sharing.ok
    assert strict.sharing.margins[0] == pytest.approx(-1e-4, abs=1e-12)
    assert verify(slope2, x, loose).sharing.ok

    twins = ProblemInstance(entitlements=[0.5, 0.5], requirements=[[0.8], [0.8]])
    x = [0.5, 0.4999]  # user 2 envies user 1 by 1e-4
    assert not check_envy_free(twins, x).ok
    assert check_envy_free(twins, x, loose).ok
    assert verify(twins, x, loose).envy.ok


def test_verify_circle_symmetric_solution():
    inst = load_fixture("circle4")
    report = verify(inst, np.full(4, 1 / 3))
    assert report.passed
    assert set(report.bottlenecks) == {0, 1, 2, 3}


def test_verify_circle_two_bottleneck_pattern():
    inst = load_fixture("circle4")
    report = verify(inst, np.array([0.25, 0.25, 0.375, 0.375]))
    assert report.passed
    assert set(report.bottlenecks) == {2, 3}


def test_verify_circle_overloaded_pattern_fails_capacity():
    inst = load_fixture("circle4")
    report = verify(inst, np.array([0.5, 0.5, 0.25, 0.25]))
    assert not report.capacity.ok
    assert not report.passed
    assert report.capacity.usages[0] == pytest.approx(1.25)


def test_verify_is_deterministic():
    inst = load_fixture("greedy3")
    x = np.array([0.75, 1.0, 0.0])
    first = verify(inst, x)
    second = verify(inst, x)
    assert first.passed == second.passed
    assert first.bottlenecks == second.bottlenecks
    assert [s.status for s in first.users] == [s.status for s in second.users]


def test_verified_solutions_also_pass_pareto():
    # capacity + no-complaints implies bottleneck pinning for entitled users
    names = sorted(FIXTURES)
    instances = [load_fixture(n) for n in names]
    instances += [random_instance(7000 + k, 1 + k % 4, 1 + k % 4) for k in range(20)]
    for inst in instances:
        report = solve(inst).report
        assert report.passed
        assert report.pareto_ok


def test_envy_free_under_equal_entitlements():
    # Raw envy margins are only meaningful when everyone holds the same
    # entitlement; a low-entitlement user "envies" a high-entitlement one by
    # construction. On equal entitlements the solver's outputs come out
    # envy-free.
    worst = 0.0
    for seed in range(40):
        n = 2 + seed % 4
        base = random_instance(40_000 + seed, n, 1 + (seed * 7) % 5)
        inst = ProblemInstance(
            entitlements=np.full(n, 1.0 / n), requirements=base.requirements
        )
        res = solve(inst)
        assert res.report.passed
        worst = min(worst, res.report.envy.worst_margin)
    assert worst >= -1e-6


def test_report_renders_and_serializes():
    inst = load_fixture("greedy3")
    report = verify(inst, np.array([1.0, 2 / 3, 0.0]))
    text = report.render()
    assert "COMPLAINT" in text and "overall: FAIL" in text
    doc = report.to_dict()
    assert doc["passed"] is False
    assert doc["users"][1]["non_bottleneck_supports"] == [2]  # 1-based


def _eager_report(inst, x, tol):
    """verify's report with the report-only fields filled in up front: the
    statuses and Pareto pinning by the per-user reference loops, envy and
    the sharing incentive by the public checks."""
    report = verify(inst, x, tol)
    report.__dict__.update(
        users=_njc_reference(inst, x, tol),
        pareto_ok=_pareto_reference(inst, x, tol),
        envy=check_envy_free(inst, x, tol),
        sharing=check_sharing_incentive(inst, x, tol),
    )
    return report


def _assert_lazy_fields_equal_the_checks(inst, x, tol):
    # to_dict() and render() first, on fresh reports, so the lazy fields are
    # computed from inside them.
    lazy = verify(inst, x, tol)
    assert json.dumps(lazy.to_dict()) == json.dumps(_eager_report(inst, x, tol).to_dict())
    lazy = verify(inst, x, tol)
    assert lazy.render() == _eager_report(inst, x, tol).render()
    # repr tells the margins apart bit for bit, -0.0 from 0.0 included.
    statuses = _njc_reference(inst, x, tol)
    assert repr(lazy.users) == repr(statuses)
    assert lazy.njc_ok is all(st.ok for st in statuses)
    assert lazy.justification == tuple(st.resource for st in statuses)
    envy, sharing = check_envy_free(inst, x, tol), check_sharing_incentive(inst, x, tol)
    assert lazy.envy.margins.tobytes() == envy.margins.tobytes()
    assert lazy.envy.margins.shape == envy.margins.shape
    assert lazy.envy.worst_pair == envy.worst_pair
    assert repr(lazy.envy.worst_margin) == repr(envy.worst_margin)
    assert lazy.envy.ok is envy.ok
    assert lazy.sharing.margins.tobytes() == sharing.margins.tobytes()
    assert lazy.sharing.ok is sharing.ok
    assert lazy.pareto_ok is _pareto_reference(inst, x, tol)


def test_report_only_fields_equal_the_eager_checks(allocation_cases, suite_and_fixtures):
    tol = ToleranceConfig()
    for inst, x in allocation_cases:
        _assert_lazy_fields_equal_the_checks(inst, x, tol)
    for inst in suite_and_fixtures:
        result = solve(inst, tol)
        assert result.report.out_of_range == ()
        _assert_lazy_fields_equal_the_checks(inst, np.array(result.report.allocation), tol)


def test_solve_does_not_compute_the_report_only_checks(monkeypatch, medium_instances):
    def refuse(*args):
        raise AssertionError("a report-only check ran during solve")

    for name in ("check_envy_free", "check_sharing_incentive"):
        monkeypatch.setattr(verifier, name, refuse)
    results = [solve(load_fixture(name)) for name in sorted(FIXTURES)]
    results += [solve(inst) for inst in medium_instances[:6]]
    assert all(res.report.passed for res in results)
    # A cached property lands in the instance's __dict__ on first read.
    for res in results:
        assert not {"users", "pareto_ok", "envy", "sharing"} & set(vars(res.report))

    calls = []

    def counted(check):
        def run(*args):
            calls.append(check.__name__)
            return check(*args)

        return run

    monkeypatch.setattr(verifier, "check_envy_free", counted(check_envy_free))
    report = results[0].report
    first = report.envy
    assert report.envy is first
    assert calls == ["check_envy_free"]
    expected = check_envy_free(report.instance, report.allocation)
    assert first.margins.tobytes() == expected.margins.tobytes()

    tol = ToleranceConfig()
    for res in results:
        users, pareto_ok = res.report.users, res.report.pareto_ok
        assert res.report.users is users and res.report.pareto_ok is pareto_ok
        x = res.report.allocation
        assert repr(users) == repr(_njc_reference(res.report.instance, x, tol))
        assert pareto_ok is _pareto_reference(res.report.instance, x, tol)


def test_verify_computes_usages_once(monkeypatch):
    calls = []

    def counted(inst, x):
        calls.append(1)
        return usages(inst, x)

    monkeypatch.setattr(verifier, "usages", counted)
    report = verify(load_fixture("greedy3"), np.array([1.0, 2 / 3, 0.0]))
    assert not report.passed
    assert len(calls) == 1


def test_report_keeps_its_own_copy_of_the_allocation():
    inst = load_fixture("drf_compare")
    x = np.array([1 / 3, 1 / 3, 5 / 6])
    report = verify(inst, x)
    x[:] = [0.0, 1.0, 0.0]
    assert report.envy.margins.tobytes() == (
        check_envy_free(inst, np.array([1 / 3, 1 / 3, 5 / 6])).margins.tobytes()
    )
    assert report.envy.ok and report.pareto_ok and report.sharing.ok
    assert not report.allocation.flags.writeable


BOX = ProblemInstance(entitlements=[0.5, 0.5], requirements=[[0.25], [0.5]])


def test_verify_rejects_allocations_outside_the_unit_interval():
    # Capacity holds and both users count as fully allocated, so only the
    # bound on x_i fails the report.
    report = verify(BOX, [2.0, 1.0])
    assert report.capacity.ok and report.njc_ok
    assert not report.passed
    assert report.out_of_range == (0,)
    assert "allocation: user 1 OUTSIDE [0, 1] (x = 2)" in report.render()
    assert report.to_dict()["out_of_range"] == [{"user": 1, "x": 2.0}]

    # A user entitled to nothing is justified by a zero share on a
    # bottleneck, whatever the sign of x_i.
    zero = ProblemInstance(entitlements=[1.0, 0.0], requirements=[[1.0, 0.0], [0.0, 0.5]])
    report = verify(zero, [1.0, -0.5])
    assert report.njc_ok and not report.passed
    assert report.out_of_range == (1,)

    assert verify(BOX, [np.nan, 1.0]).out_of_range == (0,)
    eps = ToleranceConfig().eps_feasible
    inside = verify(BOX, [1.0 + eps / 2, -eps / 2])
    assert inside.out_of_range == ()
    assert "out_of_range" not in inside.to_dict()
    assert "allocation:" not in inside.render()
    assert verify(BOX, [1.0 + 2 * eps, 1.0]).out_of_range == (0,)
    assert verify(BOX, [1.0, -2 * eps]).out_of_range == (1,)
