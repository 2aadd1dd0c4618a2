import warnings

import numpy as np

from fairshare import eg
from fairshare.eg import face_newton, solve_eg
from fairshare.model import ProblemInstance
from fairshare.oracle import random_instance
from fairshare.reductions import add_dummy_resources, preprocess


def _kkt_residuals(inst, x, p):
    """Worst price sign, complementarity, capacity overshoot and relative
    stationarity |x_i (R p)_i - e_i| / e_i over users with e_i > 0."""
    e = inst.entitlements
    r = inst.requirements
    s = 1.0 - x @ r
    users = e > 0.0
    stationarity = np.abs(x[users] * (r[users] @ p) - e[users]) / e[users]
    return (
        float(np.min(p)),
        float(np.max(np.abs(p * s))),
        float(-np.min(s)),
        float(np.max(stationarity)),
    )


def test_interior_point_meets_the_kkt_conditions_on_the_acceptance_suite():
    solved = 0
    for seed in range(200):
        inst = random_instance(1000 + seed, 1 + seed % 5, 1 + (seed * 7) % 5)
        reduced, _ = preprocess(inst)
        if reduced.n_users == 0:
            continue
        x, p, status = solve_eg(reduced)
        assert status == "optimal"
        min_price, complementarity, overshoot, stationarity = _kkt_residuals(reduced, x, p)
        assert min_price >= 0.0
        assert complementarity <= 1e-9
        assert overshoot <= 1e-9
        assert stationarity <= 1e-9
        solved += 1
    assert solved >= 190


def test_zero_entitlement_users_are_left_out_and_get_nothing():
    inst = ProblemInstance(
        entitlements=[0.6, 0.4, 0.0],
        requirements=[[0.8, 0.3], [0.5, 0.9], [0.7, 0.7]],
    )
    lifted = add_dummy_resources(inst)
    x, p, status = solve_eg(lifted)
    assert status == "optimal"
    assert x[2] == 0.0
    min_price, complementarity, overshoot, stationarity = _kkt_residuals(lifted, x, p)
    assert min_price >= 0.0
    assert max(complementarity, overshoot, stationarity) <= 1e-9


def test_interior_point_meets_the_kkt_conditions_beyond_five_users(
    large_instance, medium_instances
):
    # The same four bounds as on the acceptance suite, on reduced random
    # instances from 10x8 to 60x30 and on the 400x100 instance.
    for inst in medium_instances + [large_instance]:
        reduced, _ = preprocess(inst)
        assert reduced.n_users > 0
        x, p, status = solve_eg(reduced)
        assert status == "optimal"
        min_price, complementarity, overshoot, stationarity = _kkt_residuals(reduced, x, p)
        assert min_price >= 0.0
        assert complementarity <= 1e-9
        assert overshoot <= 1e-9
        assert stationarity <= 1e-9


def test_without_the_face_exit_the_interior_point_still_meets_the_kkt_conditions(
    monkeypatch, suite_and_fixtures, medium_instances
):
    # Declining every face leaves the plain interior point, which must meet
    # the same four bounds by itself.
    monkeypatch.setattr(eg, "_finish_on_face", lambda *args: None)
    for inst in suite_and_fixtures + medium_instances:
        reduced, _ = preprocess(inst)
        if reduced.n_users == 0:
            continue
        x, p, status = solve_eg(reduced)
        assert status == "optimal"
        min_price, complementarity, overshoot, stationarity = _kkt_residuals(reduced, x, p)
        assert min_price >= 0.0
        assert complementarity <= 1e-9
        assert overshoot <= 1e-9
        assert stationarity <= 1e-9


def test_the_suite_finishes_on_a_face_and_tries_no_face_twice_in_a_row(
    monkeypatch, suite_and_fixtures
):
    finish = eg._finish_on_face
    attempts = []

    def recording(e, r, x, p, face):
        finished = finish(e, r, x, p, face)
        attempts.append((face.copy(), finished is not None))
        return finished

    monkeypatch.setattr(eg, "_finish_on_face", recording)
    nonempty = on_a_face = 0
    for inst in suite_and_fixtures[:200]:
        reduced, _ = preprocess(inst)
        if reduced.n_users == 0:
            continue
        nonempty += 1
        attempts.clear()
        x, p, status = solve_eg(reduced)
        assert status == "optimal"
        # Only the last attempt can succeed, since a success returns.
        assert not any(ok for _, ok in attempts[:-1])
        on_a_face += bool(attempts) and attempts[-1][1]
        for (before, _), (after, _) in zip(attempts, attempts[1:]):
            assert not np.array_equal(before, after)
    assert on_a_face >= 0.95 * nonempty


def test_face_newton_stops_where_the_prices_turn_non_positive():
    # From this start the first Newton step drives R_A p_A to
    # (-0.125, 3.125); nothing may then be divided by it. A start with a
    # zero price sum stops before any step.
    e = np.array([0.5, 0.5])
    ra = np.array([[1.0, 0.5], [0.5, 0.0]])
    for x0, pa0 in [([0.5, 0.25], [0.25, 0.25]), ([0.5, 0.25], [0.0, 0.0])]:
        x0, pa0 = np.array(x0), np.array(pa0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, pa, residual = face_newton(e, ra, x0, pa0)
        assert not residual <= 1e-15
        assert np.isfinite(x).all() and np.isfinite(pa).all()
        np.testing.assert_array_equal(x0, [0.5, 0.25])
