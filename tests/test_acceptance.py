"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`."""
from itertools import combinations

import numpy as np
import pytest

from fairshare.cli import _middles_instance
from fairshare.drf import solve_drf
from fairshare.fixtures import FIXTURES, load_fixture
from fairshare.model import ToleranceConfig, add_dummy_resources, usages
from fairshare.oracle import enumerate_solutions, grid_search_n2, random_instance
from fairshare.solver import gradient, integrate_trajectory, level_value, solve
from fairshare.verifier import verify

TOL = ToleranceConfig()


def _report(name: str, checks: list[tuple[str, bool]]):
    ok = all(flag for _, flag in checks)
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    if not ok:
        failed = [label for label, flag in checks if not flag]
        pytest.fail(f"{name}: failed checks: {failed}")


@pytest.fixture(scope="module")
def random_suite():
    """200 seeded instances (N <= 5, m' <= 5, column sums >= 1), solved once."""
    suite = []
    for seed in range(200):
        n = 1 + seed % 5
        m = 1 + (seed * 7) % 5
        inst = random_instance(1000 + seed, n, m)
        suite.append((inst, solve(inst)))
    return suite


@pytest.fixture(scope="module")
def n2_suite():
    """100 seeded two-user instances with solver and grid-oracle results."""
    suite = []
    for seed in range(100):
        inst = random_instance(20_000 + seed, 2, 1 + seed % 5)
        suite.append((inst, solve(inst), grid_search_n2(inst, 1e-4)))
    return suite


def test_criterion_01_shared_bottleneck_comparison_example():
    inst = load_fixture("drf_compare")
    res = solve(inst)
    x = res.report.allocation
    bundles = x[:, None] * inst.requirements
    expected = np.array([[1 / 3, 2 / 30], [1 / 3, 2 / 30], [1 / 3, 2 / 3]])
    checks = [
        ("x = (1/3, 1/3, 5/6)", np.allclose(x, [1 / 3, 1 / 3, 5 / 6], atol=1e-5)),
        ("bundles within 1e-5", np.allclose(bundles, expected, atol=1e-5)),
        ("resource 1 sole real bottleneck", res.report.bottlenecks == (0,)),
        ("verified", res.report.passed),
    ]
    _report("criterion 1: three-user comparison example", checks)


def test_criterion_02_dominant_share_comparator():
    inst = load_fixture("drf_compare")
    res = solve_drf(inst)
    bundles = res.x[:, None] * inst.requirements
    expected = np.array([[0.4, 0.08], [0.4, 0.08], [0.2, 0.4]])
    checks = [
        ("bundles within 1e-9", np.allclose(bundles, expected, atol=1e-9)),
        ("dominant shares all 0.4", np.allclose(res.dominant_shares, 0.4, atol=1e-9)),
    ]
    _report("criterion 2: dominant-share comparator example", checks)


def test_criterion_03_utilization_example_and_middles_scaling():
    inst = load_fixture("utilization")
    res = solve(inst)
    wf = solve_drf(inst)
    k = 50
    chain = _middles_instance(k)
    chain_res = solve(chain)
    chain_wf = solve_drf(chain)
    bbf_avg = float(usages(chain, chain_res.report.allocation).mean())
    wf_avg = float(chain_wf.utilizations.mean())
    checks = [
        ("bottleneck-fair x = (1, 1/2)", np.allclose(res.report.allocation, [1.0, 0.5], atol=1e-5)),
        ("dominant-share x = (2/3, 2/3)", np.allclose(wf.x, [2 / 3, 2 / 3], atol=1e-9)),
        ("k=50 bottleneck-fair avg within 0.02 of 1/2", abs(bbf_avg - 0.5) < 0.02),
        ("k=50 dominant-share avg within 0.02 of 2/3", abs(wf_avg - 2 / 3) < 0.02),
        ("k=50 chain verified", chain_res.report.passed),
    ]
    _report("criterion 3: utilization example and k-middle scaling", checks)


def test_criterion_04_two_user_uniqueness(n2_suite):
    inst = load_fixture("slope2")
    res = solve(inst)
    family = enumerate_solutions(inst)
    matches = all(
        grid.nearest_distance(result.report.allocation) <= 2e-4
        for _, result, grid in n2_suite
    )
    checks = [
        ("slope2 endpoint (0.6, 0.9)", np.allclose(res.report.allocation, [0.6, 0.9], atol=1e-5)),
        ("slope2 enumeration unique", len(family.witnesses) == 1),
        ("100 random endpoints within 2 grid cells", matches),
        ("100 random endpoints verified", all(r.report.passed for _, r, _ in n2_suite)),
    ]
    _report("criterion 4: two-user uniqueness vs grid oracle", checks)


def test_criterion_05_three_user_family():
    inst = load_fixture("nonunique_n3")
    res = solve(inst)
    x = res.report.allocation
    z = float(x[0])
    family = enumerate_solutions(inst)

    def has(v):
        return any(float(np.max(np.abs(w.x - np.asarray(v)))) <= 1e-7 for w in family.witnesses)

    checks = [
        ("solver output in the family segment", 0.5 - 1e-5 <= z <= 0.7 + 1e-5
         and np.allclose(x, [z, 1 - z, 1 - z], atol=1e-5)),
        ("solver output verified", res.report.passed),
        ("witness at z = 0.5", has([0.5, 0.5, 0.5])),
        ("witness at z = 0.7", has([0.7, 0.3, 0.3])),
        ("positive-dimension family flagged", family.has_positive_dimension_face),
    ]
    _report("criterion 5: three-user solution family", checks)


def test_criterion_06_circle_of_four():
    inst = load_fixture("circle4")
    patterns = []
    for pair in combinations(range(4), 2):
        pattern = np.full(4, 0.375)
        pattern[list(pair)] = 0.25
        patterns.append(pattern)
    family = enumerate_solutions(inst)
    res = solve(inst)
    checks = [
        ("symmetric point verifies", verify(inst, np.full(4, 1 / 3)).passed),
        ("all six 0.25/0.375 patterns verify", all(verify(inst, p).passed for p in patterns)),
        ("enumeration finds at least 7 witnesses", len(family.witnesses) >= 7),
        ("solver output verified", res.report.passed),
    ]
    _report("criterion 6: circle of four users", checks)


def test_criterion_07_greedy_counterexample():
    inst = load_fixture("greedy3")
    first = verify(inst, np.array([1.0, 2 / 3, 0.0]))
    user2 = first.users[1]
    second = verify(inst, np.array([0.75, 1.0, 0.0]))
    res = solve(inst)
    checks = [
        ("(1, 2/3, 0) rejected", not first.passed),
        ("user 2 complaint names resource 2 as unsaturated support",
         user2.status == "complaint" and user2.non_bottleneck_supports == (1,)),
        ("(3/4, 1, 0): users 1-2 fine, user 3 complains",
         second.users[0].ok and second.users[1].ok and not second.users[2].ok
         and not second.passed),
        ("full solve satisfies all three users", res.report.passed),
    ]
    _report("criterion 7: greedy construction counterexample", checks)


def test_criterion_08_trajectory_invariants(random_suite):
    # solve() computes the trajectory's limit directly, so the trajectory is
    # integrated here on the same lifted instance, and its endpoint must land
    # next to solve()'s allocation for every user entitled to something.
    worst_level = 0.0
    worst_xne = 0.0
    worst_endpoint = 0.0
    interior = True
    converged = 0
    for inst, res in random_suite:
        lifted = add_dummy_resources(inst)
        points, termination = integrate_trajectory(lifted)
        converged += termination == "converged"
        entitled = inst.entitlements > 0.0
        gap = np.abs(points[-1].x - res.report.allocation)[entitled]
        worst_endpoint = max(worst_endpoint, float(gap.max()))
        for p in points:
            worst_level = max(worst_level, abs(p.f_value - p.t))
            interior = interior and float(np.min(p.slacks)) > 0.0
            kappa = float(p.x @ p.normal)
            worst_xne = max(
                worst_xne,
                float(np.max(np.abs(p.x * p.normal - kappa * lifted.entitlements))),
            )
    rng = np.random.default_rng(99)
    worst_grad = 0.0
    for inst, res in random_suite[::10]:
        lifted = add_dummy_resources(inst)
        for _ in range(3):
            d = rng.uniform(0.05, 1.0, lifted.n_users)
            peak = float((d @ lifted.requirements).max())
            x = d * (rng.uniform(0.2, 0.8) / peak)
            raw, _ = gradient(lifted, x)
            h = 1e-6
            for i in range(lifted.n_users):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                fd = (level_value(lifted, xp) - level_value(lifted, xm)) / (2 * h)
                worst_grad = max(worst_grad, abs(fd - raw[i]) / max(1.0, abs(raw[i])))
    checks = [
        ("trajectory converged on all 200 lifted instances",
         converged == len(random_suite) == 200),
        ("level tracking |f - t| <= 1e-6", worst_level <= 1e-6),
        ("strict interiority", interior),
        ("normal alignment residual <= 1e-6", worst_xne <= 1e-6),
        ("gradient matches finite differences to 1e-5", worst_grad <= 1e-5),
        ("endpoint within 5e-4 of the solved allocation", worst_endpoint <= 5e-4),
    ]
    _report("criterion 8: trajectory invariants on 200 random instances", checks)


def test_criterion_09_fairness_axioms(random_suite):
    capacity = all(res.report.capacity.ok for _, res in random_suite)
    njc = all(res.report.njc_ok for _, res in random_suite)
    pareto = all(res.report.pareto_ok for _, res in random_suite)
    sharing = all(
        float(np.min(res.report.sharing.margins)) >= -1e-6 for _, res in random_suite
    )
    envy_findings = [
        (i, res.report.envy.worst_margin)
        for i, (_, res) in enumerate(random_suite)
        if res.report.envy.worst_margin < -1e-6
    ]
    print(
        f"  envy margins < -1e-6 on {len(envy_findings)} of {len(random_suite)} "
        "instances (finding, not a failure: the suite draws unequal "
        "entitlements, and raw envy is an equal-entitlement notion)"
    )
    checks = [
        ("capacity on all solver outputs", capacity),
        ("no justified complaints on all solver outputs", njc),
        ("bottleneck pinning (Pareto) on all solver outputs", pareto),
        ("sharing-incentive margins >= -1e-6", sharing),
    ]
    _report("criterion 9: fairness axioms on the random suite", checks)


def test_criterion_10_oracle_cross_validation():
    tight = ToleranceConfig(eps_njc=1e-7)
    all_contained = True
    all_verified = True
    for name in sorted(FIXTURES):
        inst = load_fixture(name)
        res = solve(inst)
        family = enumerate_solutions(inst)
        all_contained = all_contained and family.contains(res.report.allocation, 1e-5)
        all_verified = all_verified and all(
            verify(inst, w.x, tight).passed for w in family.witnesses
        )
    checks = [
        ("solver output matches a witness or flagged face (1e-5)", all_contained),
        ("every oracle witness verifies at 1e-7", all_verified),
    ]
    _report("criterion 10: oracle cross-validation on all bundled fixtures", checks)
