import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairshare.drf import solve_drf
from fairshare.fixtures import load_fixture
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
    np.testing.assert_allclose(wf.x, res.solution.allocation, atol=1e-6)
