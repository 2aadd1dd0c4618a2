import warnings

import numpy as np
import pytest

from fairshare import eg
from fairshare.eg import solve_eg
from fairshare.model import ProblemInstance
from fairshare.oracle import random_instance
from fairshare.solver import solve
from fairshare.verifier import verify


def _assert_kkt(inst, x, p):
    """Price sign, complementarity, capacity overshoot and relative
    stationarity |x_i (R p)_i - e_i| / e_i over users with e_i > 0 short of
    1, each within 1e-9; and for each user at x_i = 1, the dual's condition
    (R p)_i <= e_i (1 + 1e-9)."""
    e = inst.entitlements
    r = inst.requirements
    s = 1.0 - x @ r
    users = e > 0.0
    short = users & (x < 1.0)
    full = users & (x == 1.0)
    stationarity = np.abs(x[short] * (r[short] @ p) - e[short]) / e[short]
    assert np.min(p) >= 0.0
    assert np.max(np.abs(p * s)) <= 1e-9
    assert -np.min(s) <= 1e-9
    assert np.max(stationarity, initial=0.0) <= 1e-9
    assert ((r[full] @ p) <= e[full] * (1.0 + 1e-9)).all()


def test_interior_point_meets_the_kkt_conditions_on_the_acceptance_suite():
    for seed in range(200):
        inst = random_instance(1000 + seed, 1 + seed % 5, 1 + (seed * 7) % 5)
        x, p, status, _ = solve_eg(inst)
        assert status == "optimal"
        assert p.shape == (inst.n_real_resources,)
        _assert_kkt(inst, x, p)


def test_zero_entitlement_users_are_left_out_and_get_nothing():
    inst = ProblemInstance(
        entitlements=[0.6, 0.4, 0.0],
        requirements=[[0.8, 0.3], [0.5, 0.9], [0.7, 0.7]],
    )
    x, p, status, _ = solve_eg(inst)
    assert status == "optimal"
    assert x[2] == 0.0
    _assert_kkt(inst, x, p)


def test_interior_point_meets_the_kkt_conditions_beyond_five_users(
    large_instance, medium_instances
):
    # The same four bounds as on the acceptance suite, on random instances
    # from 10x8 to 60x30 and on the 400x100 instance.
    for inst in medium_instances + [large_instance]:
        x, p, status, _ = solve_eg(inst)
        assert status == "optimal"
        _assert_kkt(inst, x, p)


def test_without_the_face_exit_the_interior_point_still_meets_the_kkt_conditions(
    without_the_face_exit, suite_and_fixtures, medium_instances
):
    # Declining every face leaves the plain interior point, which must meet
    # the same four bounds by itself.
    for inst in suite_and_fixtures + medium_instances:
        x, p, status, last = without_the_face_exit(inst)
        assert status == ("optimal" if last is None else "iteration_limit")
        _assert_kkt(inst, x, p)


def test_every_suite_fixture_and_medium_answer_ends_on_a_certified_face(
    suite_and_fixtures, medium_instances
):
    for inst in suite_and_fixtures + medium_instances:
        res = solve(inst)
        assert res.report.passed
        assert res.polish_applied


def test_the_suite_and_fixtures_take_at_most_1008_linear_solves_and_220_faces(
    monkeypatch, suite_and_fixtures
):
    # A guard on the work of a solve that, unlike a time, repeats exactly
    # from run to run: the linear solves of the interior point and of face
    # Newton, and the faces tried, over the 200-instance suite and the
    # fixtures.
    counts = {"linear solves": 0, "faces": 0}
    linear_solve, face = np.linalg.solve, eg._face

    def counted_solve(a, b):
        counts["linear solves"] += 1
        return linear_solve(a, b)

    def counted_face(*args):
        counts["faces"] += 1
        return face(*args)

    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    monkeypatch.setattr(eg, "_face", counted_face)
    for inst in suite_and_fixtures:
        assert solve(inst).report.passed
    assert counts["linear solves"] <= 1008, counts
    assert counts["faces"] <= 220, counts


def test_face_newton_stops_where_the_prices_turn_non_positive():
    # From these prices the first Newton step drives (R_A p_A)_1 to
    # -0.39; nothing may then be divided by it. From zero prices both users
    # fit the face at x = 1, which then overruns both columns. Either face
    # is refused, and the arguments are left as they were.
    e = np.array([0.5, 0.5])
    r = np.array([[0.75, 0.5], [1.0, 0.25]])
    for p0 in ([0.5, 0.375], [0.0, 0.0]):
        p, a = np.array(p0), np.ones(2, dtype=bool)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert eg._face(e, r, a, p) is None
        np.testing.assert_array_equal(p, p0)
        assert a.all()


def _degenerate_instances(count):
    """Seeded draws of 2-8 users and 1-6 resources with requests quantised
    to eighths and 40% zeros; every other draw has entitlements spread over
    eight decades, every third a duplicated or halved column and every
    fourth a duplicated user."""
    rng = np.random.default_rng(12)
    cases = []
    for k in range(count):
        n, m = int(rng.integers(2, 9)), int(rng.integers(1, 7))
        r = rng.integers(0, 9, (n, m)) / 8.0 * (rng.random((n, m)) >= 0.4)
        e = 10.0 ** rng.uniform(-8.0, 0.0, n) if k % 2 else rng.uniform(0.1, 1.0, n)
        if m > 1 and k % 3 == 0:
            a, b = rng.choice(m, 2, replace=False)
            r[:, b] = r[:, a] if k % 6 == 0 else 0.5 * r[:, a]
        if n > 1 and k % 4 == 1:
            a, b = rng.choice(n, 2, replace=False)
            r[b], e[b] = r[a], e[a]
        cases.append(ProblemInstance(entitlements=e / e.sum(), requirements=r))
    return cases


def test_degenerate_instances_verify_and_end_on_a_certified_face():
    # Repeated and proportional columns make a face's Jacobian singular, and
    # entitlements down to 1e-8 price columns at that scale.
    results = [solve(inst) for inst in _degenerate_instances(400)]
    assert all(res.report.passed for res in results)
    assert sum(res.polish_applied for res in results) >= 0.9 * len(results)


@pytest.mark.parametrize(
    "entitlements, requirements, allocation",
    [
        # Nothing can saturate: the empty face p = 0 certifies x = (1, 1),
        # however small the second entitlement.
        ([1.0, 1e-40], [[1e-12], [0.46]], [1.0, 1.0]),
        # User 1 fits at x = 1 on a column left 5e-11 short of capacity,
        # which then counts as saturated, so user 2, entitled to nothing,
        # gets nothing.
        ([1.0, 0.0], [[0.99999999995], [0.5]], [1.0, 0.0]),
    ],
)
def test_the_empty_face_certifies_where_every_user_fits(
    entitlements, requirements, allocation
):
    inst = ProblemInstance(entitlements=entitlements, requirements=requirements)
    x, p, status, on_face = solve_eg(inst)
    assert status == "optimal" and on_face
    np.testing.assert_array_equal(p, np.zeros(inst.n_real_resources))
    res = solve(inst)
    assert res.report.passed
    assert res.termination == "converged"
    assert res.polish_applied
    np.testing.assert_array_equal(res.report.allocation, allocation)


def test_a_20000_by_8_instance_solves_without_the_lift():
    # The lifted instance's matrix alone would take 3.2 GB here. The report
    # is read only through its verdict, never through the N x N envy check.
    rng = np.random.default_rng(20000)
    e = rng.uniform(0.1, 1.0, 20000)
    r = rng.uniform(0.0, 1.0, (20000, 8))
    inst = ProblemInstance(
        entitlements=e / e.sum(), requirements=r / np.minimum(r.sum(axis=0), 1.0)
    )
    res = solve(inst)
    assert res.termination == "converged"
    assert res.polish_applied
    assert res.report.passed
    assert verify(inst, res.report.allocation).passed
