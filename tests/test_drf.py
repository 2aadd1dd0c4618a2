import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairshare.drf import solve_drf
from fairshare.eg import water_fill
from fairshare.fixtures import FIXTURES, load_fixture
from fairshare.model import ProblemInstance, usages
from fairshare.oracle import random_instance
from fairshare.solver import solve


# A dominant share is x_i times user i's largest request.
def test_dominant_share_scales_largest_request():
    res = solve_drf(load_fixture("drf_compare"))
    assert res.dominant_shares[2] == pytest.approx(0.4)  # 0.5 * 0.8


def test_dominant_share_zero_allocation():
    # Entitled to nothing, user 2 gets nothing.
    inst = ProblemInstance(entitlements=[1.0, 0.0], requirements=[[0.5, 0.2], [0.3, 0.9]])
    res = solve_drf(inst)
    assert res.x[1] == 0.0 and res.dominant_shares[1] == 0.0


def test_dominant_share_mixed_bundle():
    inst = ProblemInstance(entitlements=[1.0], requirements=[[0.2, 0.07, 0.37]])
    res = solve_drf(inst)
    assert res.x[0] == 1.0
    assert res.dominant_shares[0] == pytest.approx(0.37)


def test_solve_drf_equalizes_dominant_shares():
    inst = load_fixture("drf_compare")
    res = solve_drf(inst)
    np.testing.assert_allclose(res.x, [0.4, 0.4, 0.5], atol=1e-12)
    bundles = res.x[:, None] * inst.requirements
    np.testing.assert_allclose(bundles[0], [0.4, 0.08], atol=1e-12)
    np.testing.assert_allclose(bundles[2], [0.2, 0.4], atol=1e-12)
    np.testing.assert_allclose(res.dominant_shares, 0.4, atol=1e-12)
    assert res.saturating_resource == 0


def test_solve_drf_utilization_example():
    inst = load_fixture("utilization")
    res = solve_drf(inst)
    np.testing.assert_allclose(res.x, [2 / 3, 2 / 3], atol=1e-12)
    bundle = res.x[0] * inst.requirements[0]
    np.testing.assert_allclose(bundle, [1 / 3, 0.0, 0.0, 2 / 3], atol=1e-12)


def test_solve_drf_caps_single_user():
    inst = ProblemInstance(entitlements=[1.0], requirements=[[0.5]])
    res = solve_drf(inst)
    assert res.x[0] == 1.0
    assert res.saturating_resource is None


def test_solve_drf_zero_profile_user_is_satisfied():
    inst = ProblemInstance(
        entitlements=[0.5, 0.5], requirements=[[0.0, 0.0], [0.9, 0.8]]
    )
    res = solve_drf(inst)
    assert res.x[0] == 1.0


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 5), m=st.integers(1, 5))
def test_solve_drf_invariants(seed, n, m):
    inst = random_instance(seed, n, m)
    res = solve_drf(inst)
    u = usages(inst, res.x)
    assert np.all(u <= 1.0 + 1e-9)
    # maximality: a resource saturates or every user is capped
    saturated = bool(np.any(u >= 1.0 - 1e-9))
    assert saturated or np.all(res.x >= 1.0 - 1e-12)
    # uncapped users share a common normalized level
    d = inst.requirements.max(axis=1)
    uncapped = (res.x < 1.0 - 1e-12) & (inst.entitlements > 0) & (d > 0)
    if uncapped.sum() >= 2:
        levels = res.dominant_shares[uncapped] / inst.entitlements[uncapped]
        assert np.max(levels) - np.min(levels) <= 1e-9


def test_dominant_and_bottleneck_rules_agree_on_common_dominant_resource():
    # all users dominant on resource 1, the only resource that can saturate
    inst = ProblemInstance(
        entitlements=[1 / 3, 1 / 3, 1 / 3],
        requirements=[[1.0, 0.1], [1.0, 0.2], [1.0, 0.05]],
    )
    wf = solve_drf(inst)
    res = solve(inst)
    assert res.report.passed
    np.testing.assert_allclose(wf.x, res.report.allocation, atol=1e-6)


def _breakpoint_drf(inst):
    """The scan ``solve_drf`` replaced, kept as a reference: raise the share
    level s through the users' cap breakpoints s = d_i / e_i, solving each
    segment's saturation level in closed form, in O(N^2 m). Returns x and
    the saturating resource."""
    r, e, n = inst.requirements, inst.entitlements, inst.n_users
    d = r.max(axis=1)
    active = d > 0.0
    rate = np.zeros(n)
    rate[active] = e[active] / d[active]
    x = np.where(active, 0.0, 1.0)
    caps = np.full(n, np.inf)
    caps[rate > 0.0] = 1.0 / rate[rate > 0.0]
    order = [int(i) for i in np.argsort(caps) if np.isfinite(caps[i])]
    s, pos, capped, saturating = 0.0, 0, ~active, None
    while True:
        base = np.where(capped, x, 0.0) @ r
        slope = np.where(capped, 0.0, rate) @ r
        s_next_cap = caps[order[pos]] if pos < len(order) else np.inf
        s_saturate, j_saturate = np.inf, None
        for j in range(inst.n_real_resources):
            if slope[j] > 0.0:
                sj = (1.0 - base[j]) / slope[j]
                if sj < s_saturate - 1e-15:
                    s_saturate, j_saturate = sj, j
        if s_saturate <= s_next_cap:
            s = s_saturate if np.isfinite(s_saturate) else s
            saturating = j_saturate
            break
        if pos >= len(order):
            break
        i = order[pos]
        s, x[i], capped[i] = float(s_next_cap), 1.0, True
        pos += 1
    return np.where(capped, x, np.minimum(1.0, s * rate)), saturating


def _masked_draws(count):
    """Seeded ``draw``-style instances up to 40 x 8 with 30% of the requests
    zeroed, a user now and then requesting nothing, and 15% of the
    entitlements zeroed; each column scaled to a total demand in [0.5, 3]."""
    rng = np.random.default_rng(29)
    cases = []
    for _ in range(count):
        n, m = int(rng.integers(1, 41)), int(rng.integers(1, 9))
        e = rng.uniform(0.1, 1.0, n) * (rng.random(n) >= 0.15)
        e[rng.integers(n)] += 0.1
        r = rng.uniform(0.0, 1.0, (n, m)) * (rng.random((n, m)) >= 0.3)
        r[rng.random(n) < 0.05] = 0.0
        sums = r.sum(axis=0)
        r = r / np.where(sums > 0.0, sums, 1.0) * rng.uniform(0.5, 3.0, m)
        cases.append(ProblemInstance(entitlements=e / e.sum(), requirements=np.minimum(r, 1.0)))
    return cases


def _reference_families():
    return (
        [load_fixture(name) for name in sorted(FIXTURES)]
        + [random_instance(s, 1 + s % 7, 1 + (s * 3) % 6) for s in range(300)]
        + _masked_draws(300)
    )


def _at_capacity(inst, x, j):
    """Whether column j's usage under x is within a few ulp of capacity."""
    return abs(float(x @ inst.requirements[:, j]) - 1.0) <= 4 * np.finfo(float).eps


def test_solve_drf_agrees_with_the_breakpoint_scan():
    # The water-fill and the scan meet the same level; they may name a
    # different saturating resource only where a column sits within a few
    # ulp of capacity, where the scan's pick came from its own rounding.
    ties = 0
    for inst in _reference_families():
        res = solve_drf(inst)
        x, saturating = _breakpoint_drf(inst)
        assert np.max(np.abs(res.x - x)) <= 1e-12, inst
        if res.saturating_resource != saturating:
            ties += 1
            for j in (res.saturating_resource, saturating):
                assert j is None or _at_capacity(inst, x, j), (inst, j)
    assert ties <= 5, ties


def test_solve_drf_is_the_bottleneck_fair_answer_on_one_resource(draw):
    # On one resource both rules water-fill the column to a common level.
    rng = np.random.default_rng(31)
    cases = [load_fixture("slope2")]
    cases += [random_instance(s, 1 + s % 50, 1) for s in range(100)]
    for n in (1, 2, 5, 20, 200, 2000):
        cases += [ProblemInstance(*draw(rng, n, 1)) for _ in range(5)]
    for inst in cases:
        res = solve(inst)
        assert res.report.passed
        np.testing.assert_allclose(solve_drf(inst).x, res.report.allocation, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "entitlements, requirements",
    [([1.0], [[1.0]]), ([0.5, 0.5], [[0.5], [0.5]]), ([0.25, 0.75], [[0.5], [0.5]])],
)
def test_a_column_whose_demand_is_exactly_1_saturates(entitlements, requirements):
    # Every user fits in full, and the column is then exactly full.
    res = solve_drf(ProblemInstance(entitlements=entitlements, requirements=requirements))
    np.testing.assert_array_equal(res.x, 1.0)
    assert res.saturating_resource == 0


def test_a_subnormal_binding_price_grants_in_full_without_overflow(tiny_entitlement_draws):
    # x_i = rate_i / max(rate_i, p) is min(1, rate_i / p) bit for bit wherever
    # the latter does not overflow. On 23 of these draws the binding price p
    # is so small that rate_i / p overflowed to inf (a RuntimeWarning), and
    # min(1, inf) = 1 is still the answer.
    overflowed = 0
    for inst in tiny_entitlement_draws(400):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = solve_drf(inst)
        r, j = inst.requirements, res.saturating_resource
        active = r.max(axis=1) > 0.0
        ra = r[active]
        rate = inst.entitlements[active] / ra.max(axis=1)
        want = np.ones(inst.n_users)
        if j is None:
            want[active] = rate > 0.0
        else:
            price = water_fill(rate * ra[:, j], ra[:, j], np.ones(rate.size, dtype=bool))[0]
            with np.errstate(over="ignore"):
                quotient = rate / price
            overflowed += bool(np.isinf(quotient).any())
            want[active] = np.minimum(1.0, quotient)
        assert res.x.tobytes() == want.tobytes(), inst
    assert overflowed == 23
