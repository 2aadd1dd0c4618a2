import warnings

import numpy as np

from fairshare import eg
from fairshare.eg import face_newton, solve_eg
from fairshare.model import ProblemInstance
from fairshare.oracle import random_instance
from fairshare.reductions import add_dummy_resources, preprocess
from fairshare.solver import solve


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
        x, p, status, _ = solve_eg(reduced)
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
    x, p, status, _ = solve_eg(lifted)
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
        x, p, status, _ = solve_eg(reduced)
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
        x, p, status, _ = solve_eg(reduced)
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

    def recording(e, r, x, s, p):
        finished = finish(e, r, x, s, p)
        attempts.append((s < p, finished is not None))
        return finished

    monkeypatch.setattr(eg, "_finish_on_face", recording)
    nonempty = on_a_face = 0
    for inst in suite_and_fixtures[:200]:
        reduced, _ = preprocess(inst)
        if reduced.n_users == 0:
            continue
        nonempty += 1
        attempts.clear()
        x, p, status, finished = solve_eg(reduced)
        assert status == "optimal"
        # Only the last attempt can succeed, since a success returns.
        assert not any(ok for _, ok in attempts[:-1])
        assert finished == (bool(attempts) and attempts[-1][1])
        on_a_face += finished
        # The face where the interior point stops is tried even if it was
        # the last one tried (see the next test); on the suite it never is.
        for (before, _), (after, _) in zip(attempts, attempts[1:]):
            assert not np.array_equal(before, after)
    assert on_a_face >= 0.95 * nonempty


def test_the_face_is_tried_again_where_the_interior_point_stops(monkeypatch):
    # On this 9x7 instance Newton from an early iterate stops short of its
    # face's point; from the iterate where the interior point stops, on the
    # same face, it reaches it.
    rng = np.random.default_rng(6)
    n, m = int(rng.integers(5, 15)), int(rng.integers(4, 10))
    e = rng.uniform(0.1, 1.0, n)
    r = rng.uniform(0.0, 1.0, (n, m))
    inst = ProblemInstance(entitlements=e / e.sum(), requirements=r / np.minimum(r.sum(0), 1.0))
    finish = eg._finish_on_face
    attempts = []

    def recording(e, r, x, s, p):
        finished = finish(e, r, x, s, p)
        attempts.append((s < p, finished is not None))
        return finished

    monkeypatch.setattr(eg, "_finish_on_face", recording)
    lifted = add_dummy_resources(inst)
    x, p, status, finished = solve_eg(lifted)
    assert (n, m) == (9, 7)
    assert status == "optimal" and finished
    assert [ok for _, ok in attempts] == [False, True]
    np.testing.assert_array_equal(attempts[0][0], attempts[1][0])
    min_price, complementarity, overshoot, stationarity = _kkt_residuals(lifted, x, p)
    assert min_price >= 0.0
    assert max(complementarity, overshoot, stationarity) <= 1e-9


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


def _face_newton_lstsq(e, ra, x, pa):
    """face_newton as it was before its later steps used LU: every step
    solves the Schur complement by least squares. The reference for the
    tests below."""
    residual = np.inf
    for step in range(eg._FACE_NEWTON_ITERATIONS + 1):
        rp = ra @ pa
        if not rp.min() > 0.0:
            residual = np.inf
            break
        r1 = x * rp - e
        r2 = x @ ra - 1.0
        previous, residual = residual, max((np.abs(r1) / rp).max(), np.abs(r2).max())
        if (
            residual <= eg._FACE_NEWTON_TOL
            or not residual <= 0.5 * previous
            or step == eg._FACE_NEWTON_ITERATIONS
        ):
            break
        schur = (ra.T * (x / rp)) @ ra
        try:
            dp = np.linalg.lstsq(schur, r2 - (r1 / rp) @ ra, rcond=None)[0]
        except np.linalg.LinAlgError:
            break
        x = x - (r1 + x * (ra @ dp)) / rp
        pa = pa + dp
    return x, pa, float(residual)


def _solved_both_ways(monkeypatch, instances):
    """solve() on each instance, then again with the all-least-squares
    face Newton."""
    results = [solve(inst) for inst in instances]
    with monkeypatch.context() as patch:
        patch.setattr(eg, "face_newton", _face_newton_lstsq)
        references = [solve(inst) for inst in instances]
    return results, references


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


def test_lu_face_newton_gives_the_least_squares_answers(
    monkeypatch, suite_and_fixtures, medium_instances
):
    instances = suite_and_fixtures + medium_instances
    results, references = _solved_both_ways(monkeypatch, instances)
    for res, ref in zip(results, references):
        assert res.polish_applied == ref.polish_applied
        np.testing.assert_allclose(
            res.solution.allocation, ref.solution.allocation, rtol=0, atol=1e-12
        )
    assert sum(res.polish_applied for res in results) >= 0.95 * len(results)


def test_lu_face_newton_loses_no_certified_face_on_degenerate_instances(monkeypatch):
    # Repeated and proportional columns make a face's Schur complement
    # singular; LU there would lose faces that least squares certifies.
    results, references = _solved_both_ways(monkeypatch, _degenerate_instances(400))
    certified = 0
    for res, ref in zip(results, references):
        assert res.report.passed
        assert res.polish_applied == ref.polish_applied
        np.testing.assert_allclose(
            res.solution.allocation, ref.solution.allocation, rtol=0, atol=1e-12
        )
        certified += ref.polish_applied
    assert certified >= 0.9 * len(results)


def test_face_newton_factors_by_svd_once_where_the_face_is_well_conditioned(monkeypatch):
    lstsq, solve_lu = np.linalg.lstsq, np.linalg.solve
    calls = []
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append("svd") or lstsq(*a, **k))
    monkeypatch.setattr(np.linalg, "solve", lambda *a: calls.append("lu") or solve_lu(*a))
    e = np.array([0.5, 0.3, 0.2])
    x0, pa0 = np.array([0.5, 0.5, 0.5]), np.array([0.5, 0.5])
    ra = np.array([[0.8, 0.2], [0.3, 0.9], [0.4, 0.4]])
    _, _, residual = face_newton(e, ra, x0, pa0)
    assert residual <= 1e-15
    assert calls[0] == "svd" and len(calls) >= 2
    assert set(calls[1:]) == {"lu"}
    # A repeated column makes the Schur complement singular: every step
    # stays on least squares.
    calls.clear()
    repeated, pa0 = ra[:, [0, 0, 1]], np.array([0.25, 0.25, 0.5])
    x, pa, residual = face_newton(e, repeated, x0, pa0)
    assert len(calls) >= 2 and set(calls) == {"svd"}
    x_ref, pa_ref, residual_ref = _face_newton_lstsq(e, repeated, x0, pa0)
    assert residual == residual_ref
    assert x.tobytes() == x_ref.tobytes() and pa.tobytes() == pa_ref.tobytes()
