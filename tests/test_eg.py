import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from fairshare import eg
from fairshare.eg import solve_eg
from fairshare.fixtures import load_fixture
from fairshare.model import ProblemInstance, ToleranceConfig
from fairshare.oracle import random_instance
from fairshare.solver import solve
from fairshare.verifier import verify


def _arrays(name):
    """The fixture's entitlements and requests."""
    inst = load_fixture(name)
    return inst.entitlements, inst.requirements


def _assert_kkt(inst, x, p):
    """Price sign, complementarity, capacity overshoot and relative
    stationarity |x_i (R p)_i - e_i| / e_i over the users that ``solve_eg``
    prices, e_i >= 2.2e-308, short of 1, each within 1e-9; and for each of
    them at x_i = 1, the dual's condition (R p)_i <= e_i (1 + 1e-9)."""
    e = inst.entitlements
    r = inst.requirements
    s = 1.0 - x @ r
    users = e >= np.finfo(float).tiny
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
        x, p, status = solve_eg(inst.entitlements, inst.requirements)
        assert status == "optimal"
        assert p.shape == (inst.n_real_resources,)
        _assert_kkt(inst, x, p)


def test_zero_entitlement_users_are_left_out_and_get_nothing():
    inst = ProblemInstance(
        entitlements=[0.6, 0.4, 0.0],
        requirements=[[0.8, 0.3], [0.5, 0.9], [0.7, 0.7]],
    )
    x, p, status = solve_eg(inst.entitlements, inst.requirements)
    assert status == "optimal"
    assert x[2] == 0.0
    _assert_kkt(inst, x, p)


def test_the_zero_entitlement_tier_reads_room_at_the_callers_tolerance():
    # Column 2 keeps 5e-7 of room: a bottleneck at the default eps_bottleneck
    # of 1e-6, so user 2, entitled to nothing, keeps 0; at 1e-9 it has room,
    # and user 2 must share it to be Pareto, at 5e-7 / 0.5.
    inst = ProblemInstance(
        entitlements=[1.0, 0.0], requirements=[[1.0, 0.9999995], [0.0, 0.5]]
    )
    tol = ToleranceConfig(eps_bottleneck=1e-9, eps_feasible=1e-10)
    for res, allocation in [(solve(inst), [1.0, 0.0]), (solve(inst, tol), [1.0, 1e-6])]:
        assert res.report.passed and res.report.pareto_ok
        assert res.polish_applied
        np.testing.assert_allclose(res.report.allocation, allocation, rtol=1e-9, atol=0)


def test_interior_point_meets_the_kkt_conditions_beyond_five_users(
    large_instance, medium_instances
):
    # The same four bounds as on the acceptance suite, on random instances
    # from 10x8 to 60x30 and on the 400x100 instance.
    for inst in medium_instances + [large_instance]:
        x, p, status = solve_eg(inst.entitlements, inst.requirements)
        assert status == "optimal"
        _assert_kkt(inst, x, p)


def test_without_the_face_exit_the_interior_point_still_meets_the_kkt_conditions(
    without_the_face_exit, suite_and_fixtures, medium_instances
):
    # Declining every face leaves the plain interior point, which must meet
    # the same four bounds by itself.
    for inst in suite_and_fixtures + medium_instances:
        x, p, status, last = without_the_face_exit(inst.entitlements, inst.requirements)
        assert status == ("optimal" if last is None else "iteration_limit")
        _assert_kkt(inst, x, p)


def test_every_suite_fixture_and_medium_answer_ends_on_a_certified_face(
    suite_and_fixtures, medium_instances
):
    for inst in suite_and_fixtures + medium_instances:
        res = solve(inst)
        assert res.report.passed
        assert res.polish_applied


def _count_work(monkeypatch, instances):
    """The linear solves of the interior point and of face Newton, the
    faces tried and the answers polished, while every instance is solved and
    verified: a guard on the work of a solve that, unlike a time, repeats
    exactly from run to run."""
    counts = {"linear solves": 0, "faces": 0, "polished": 0}
    linear_solve, face = np.linalg.solve, eg._face

    def counted_solve(a, b):
        counts["linear solves"] += 1
        return linear_solve(a, b)

    def counted_face(*args):
        counts["faces"] += 1
        return face(*args)

    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    monkeypatch.setattr(eg, "_face", counted_face)
    for inst in instances:
        res = solve(inst)
        assert res.report.passed
        counts["polished"] += res.polish_applied
    return counts


def test_the_suite_and_fixtures_take_at_most_57_linear_solves_and_18_faces(
    monkeypatch, suite_and_fixtures
):
    # From p = 1/m and lambda = 1 the interior point took 370 and 65, from
    # the measured start without tatonnement steps 318 and 65, with them but
    # without the two-column stage 250 and 59, and where stage 2 declined
    # wherever two columns overran 90 and 19.
    counts = _count_work(monkeypatch, suite_and_fixtures)
    assert counts["linear solves"] <= 57, counts
    assert counts["faces"] <= 18, counts


def test_the_medium_instances_take_at_most_88_linear_solves_and_14_faces(
    monkeypatch, medium_instances
):
    # The same guard from 10x8 to 60x30, where nearly every program reaches
    # the interior point; from p = 1/m and lambda = 1 it took 156 and 19,
    # from the measured start without tatonnement steps 125 and 15, and
    # where stage 2 declined wherever two columns overran 92 and 15.
    counts = _count_work(monkeypatch, medium_instances)
    assert counts["linear solves"] <= 88, counts
    assert counts["faces"] <= 14, counts


def test_a_2000_by_300_draw_takes_at_most_13_linear_solves_and_1_face(
    monkeypatch, draw
):
    # The same guard at N >= 2000, where a BLAS sum of a column's fill is
    # off by more than the face residual. Summing the BLAS residual, face
    # Newton took 31 linear solves and 5 faces here.
    e, r = draw(np.random.default_rng(0), 2000, 300)
    counts = _count_work(monkeypatch, [ProblemInstance(entitlements=e, requirements=r)])
    assert counts["linear solves"] <= 13, counts
    assert counts["faces"] <= 1, counts


def test_a_2000_by_1000_draw_takes_at_most_17_linear_solves_and_1_face(
    monkeypatch, draw
):
    # The widest certified shape, where the Hessian is largest.
    e, r = draw(np.random.default_rng(0), 2000, 1000)
    counts = _count_work(monkeypatch, [ProblemInstance(entitlements=e, requirements=r)])
    assert counts["linear solves"] <= 17, counts
    assert counts["faces"] <= 1, counts
    assert counts["polished"] == 1, counts


def test_the_degenerate_instances_take_at_most_710_linear_solves_and_208_faces(
    monkeypatch,
):
    # The same guard on repeated and proportional columns and entitlements
    # spread over eight decades, where every answer certifies. The Armijo
    # line search the interior point once ran took 640 and 179 here, with
    # answers within 4.2e-16 of these and the same wall time.
    instances = _degenerate_instances(400)
    counts = _count_work(monkeypatch, instances)
    assert counts["linear solves"] <= 710, counts
    assert counts["faces"] <= 208, counts
    assert counts["polished"] == len(instances), counts


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
    x, p, status = solve_eg(inst.entitlements, inst.requirements)
    assert status == "optimal"
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


def test_a_10000_by_50_draw_ends_on_a_certified_face(draw):
    # The BLAS sum of a face column's residual over 10000 users is off by a
    # few ulps of 1, more than the face residual allows: summed so, face
    # Newton declined 96 faces here, and the solve stopped at the iteration
    # cap under one BLAS thread.
    e, r = draw(np.random.default_rng(1), 10000, 50)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = solve(ProblemInstance(entitlements=e, requirements=r))
    assert res.termination == "converged"
    assert res.polish_applied


def test_solve_eg_holds_at_most_3_5_copies_of_r_at_its_peak(draw):
    # Beyond its inputs the peak reads 3.22 copies of R at 20000x50, nearly
    # all of it reached in face Newton's copies of the face columns; with a
    # transposed copy of R in the interior point it read 4.22.
    e, r = draw(np.random.default_rng(1), 20000, 50)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        solve_eg(e, r)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * r.nbytes, peak / r.nbytes


def test_the_one_column_face_settles_without_a_linear_solve(monkeypatch):
    # Column 1 is the only one demanded beyond capacity: its water-filled
    # price 2/3 leaves user 1 at x = 1 and certifies at once, so neither the
    # interior point nor a face Newton step runs.
    def refuse(*args):
        raise AssertionError("a linear solve ran")

    monkeypatch.setattr(eg.np.linalg, "solve", refuse)
    inst = ProblemInstance(
        entitlements=[0.5, 0.25, 0.25],
        requirements=[[0.25, 0.5], [1.0, 0.25], [0.5, 0.25]],
    )
    x, p, status = solve_eg(inst.entitlements, inst.requirements)
    assert status == "optimal"
    np.testing.assert_allclose(x, [1.0, 0.375, 0.75], rtol=0, atol=1e-15)
    np.testing.assert_allclose(p, [2 / 3, 0.0], rtol=0, atol=1e-15)
    _assert_kkt(inst, x, p)


def _one_column_optima(suite_and_fixtures, draw):
    """(e, r, x, j) for every answer of the suite, the fixtures and 160
    draws from 2x3 to 60x30 that prices one column j alone."""
    rng = np.random.default_rng(5)
    cases = [(inst.entitlements, inst.requirements) for inst in suite_and_fixtures]
    for n, m in [(2, 3), (3, 2), (4, 4), (5, 5), (10, 8), (20, 10), (20, 40), (60, 30)]:
        cases += [draw(rng, n, m) for _ in range(20)]
    optima = []
    for e, r in cases:
        x, p, status = solve_eg(e, r)
        assert status == "optimal"
        priced = np.flatnonzero(p)
        if priced.size == 1:
            optima.append((e, r, x, int(priced[0])))
    return optima


def test_the_one_column_stage_never_declines_a_one_column_optimum(
    monkeypatch, suite_and_fixtures, draw
):
    # Wherever the optimum prices one column j alone, the stage started on j
    # (its water-fill, overrun test and certificate) returns that optimum,
    # also where j is not the most-demanded column, and it needs no face
    # Newton for it.
    optima = _one_column_optima(suite_and_fixtures, draw)

    def refuse(*args):
        raise AssertionError("face Newton ran")

    monkeypatch.setattr(eg, "_face", refuse)
    elsewhere = 0
    for e, r, x, j in optima:
        elsewhere += j != int(r.sum(axis=0).argmax())
        settled = eg._few_columns(e, r, j)
        assert settled is not None
        assert np.max(np.abs(settled[0] - x)) <= 1e-12
        assert abs(math.fsum(settled[0] * r[:, j]) - 1.0) <= 1e-15
    assert len(optima) >= 150 and elsewhere >= 5, (len(optima), elsewhere)


def test_the_one_column_point_is_face_newtons_point_where_newton_takes_no_step(
    monkeypatch, suite_and_fixtures, draw
):
    # The water-filled point certified as it is equals, bit for bit, what
    # face Newton on {j} returns from the same price without a step. So do
    # the stage's points on {j, k} and on {k} alone certified as they are,
    # but for x within 4 ulps: face Newton forms (R p)_i by a dot product,
    # the stage as r_ij p_j + r_ik p_k.
    steps = []
    linear_solve = np.linalg.solve
    monkeypatch.setattr(
        eg.np.linalg, "solve", lambda a, b: steps.append(1) or linear_solve(a, b)
    )
    compared = 0
    for e, r, _, j in _one_column_optima(suite_and_fixtures, draw):
        x, p = eg._few_columns(e, r, j)
        steps.clear()
        face = eg._face(e, r, p > 0.0, p)
        if steps:
            continue
        compared += 1
        assert face is not None
        assert face[0].tobytes() == x.tobytes() and face[1].tobytes() == p.tobytes()
    assert compared >= 150, compared
    counts = {"pairs": 0, "k alone": 0}
    for inst in suite_and_fixtures + _two_column_draws(draw):
        e, r = inst.entitlements, inst.requirements
        j = int(r.sum(axis=0).argmax())
        if _overrun_column(e, r, j) is None:
            continue
        with monkeypatch.context() as patch:
            patch.setattr(eg, "_face", lambda *args: None)
            settled = eg._few_columns(e, r, j)
        if settled is None:
            continue
        x, p = settled
        steps.clear()
        face = eg._face(e, r, p > 0.0, p)
        if steps:
            continue
        counts["pairs" if p[j] > 0.0 else "k alone"] += 1
        assert face is not None
        assert face[1].tobytes() == p.tobytes()
        assert np.all(np.abs(face[0] - x) <= 4.0 * np.spacing(x))
    assert counts["pairs"] >= 55 and counts["k alone"] >= 5, counts


def test_a_one_column_fill_off_by_more_than_round_off_certifies_in_one_newton_step(
    monkeypatch,
):
    # At 100000 users the BLAS sum of the water-filled column's usage can be
    # about 1e-14 off capacity, and its error bound, about 1.1e-11, cannot
    # prove a fill within 1e-15 even where it reads closer (on seed 1 it
    # reads 1 + 6.7e-16 under one BLAS thread, while the exact fill is
    # 1 - 2.7e-15). Where the accurate fill misses too, face Newton on the
    # column finishes the point, in one linear solve at most.
    steps = []
    linear_solve = np.linalg.solve
    monkeypatch.setattr(
        eg.np.linalg, "solve", lambda a, b: steps.append(1) or linear_solve(a, b)
    )
    n = 100000
    missed = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        e = rng.uniform(0.1, 1.0, n)
        r = rng.uniform(0.0, 1.0, (n, 2)) * [3.0 / n, 0.5 / n]
        e = e / e.sum()
        c = r[:, 0]
        pj = eg.water_fill(e, c, c * e.sum() > e)[0]
        missed += abs(((e / np.maximum(c * pj, e)) @ r)[0] - 1.0) > 1e-15
        steps.clear()
        x, p, status = solve_eg(e, r)
        assert len(steps) <= 1, (seed, len(steps))
        assert status == "optimal"
        np.testing.assert_array_equal(np.flatnonzero(p), [0])
        _assert_kkt(ProblemInstance(entitlements=e, requirements=r), x, p)
        assert np.max(x @ r) <= 1.0 + 1e-11
        assert abs(math.fsum(x * c) - 1.0) <= 1e-15
    # The BLAS fill misses 1e-15 outright on 7 or 8 of the 10 (the count
    # moves with the BLAS thread count); the accurate sums or one Newton
    # step decide all 10.
    assert missed >= 5, missed


@pytest.mark.parametrize("extended", sorted({eg._EXTENDED, False}))
def test_the_fill_residual_meets_its_bound_against_exact_sums(monkeypatch, extended):
    # x . r_j - 1 for columns scaled to fill 1, at N = 5 to 20000 (where a
    # plain long-double dot would be off by more than u), and one column of
    # 2^15 + 1 users whose BLAS fill misses 1 by more than 1e-14, while its
    # exact fill is 1: every long-double block sums it exactly. The BLAS
    # value is kept only where the gate finds its error bound decides the
    # test.
    monkeypatch.setattr(eg, "_EXTENDED", extended)
    u, tol = 2.0**-53, eg._FACE_NEWTON_TOL
    rng = np.random.default_rng(37)
    cases = []
    for n in (5, 60, 2000, 20000):
        for _ in range(3 if n < 20000 else 1):
            x = rng.uniform(0.0, 1.0, n)
            r = rng.uniform(0.0, 1.0, (n, 3))
            cases.append((x, r / (x @ r)))
    k = 2**15
    x = np.r_[1.0, np.full(k, 0.5)]
    c = np.r_[1.0 - 2.0**-40, np.full(k, 2.0**-54)]
    assert abs(x @ c - 1.0) > 1e-15
    cases.append((x, c))  # one column as a 1-D r: d and the value are scalars
    accurate = 0
    for x, r in cases:
        n = x.size
        d = x @ r - 1.0
        decides = eg._float64_decides(np.abs(d).max(), n)
        out = d if decides else eg._fill_residual(x, r)
        assert np.shape(out) == np.shape(d)
        xs = [Fraction(v) for v in x]
        columns = r.reshape(n, -1).T
        fills = [sum(a * Fraction(b) for a, b in zip(xs, col)) for col in columns]
        rho = [f - 1 for f in fills]
        worst = max(abs(v) for v in rho)
        if decides:
            # Float64's bound decides the test: its verdict is the exact one's.
            g = (n + 2) * u / (1 - (n + 2) * u)
            for dj, rj in zip(np.atleast_1d(d), rho):
                assert abs(Fraction(dj) - rj) <= g * (1 + 2 * abs(dj)) / (1 - 2 * g)
            assert (np.abs(d).max() <= tol) == (worst <= tol)
        else:
            accurate += 1
            for oj, rj, f in zip(np.atleast_1d(out), rho, fills):
                assert abs(Fraction(oj) - rj) <= u * (abs(Fraction(oj)) + f + 1)
    assert out == 0.0
    # Float64 decides some N = 5 draws; from N = 60 on, only the accurate
    # sums can.
    assert len(cases) - 3 <= accurate < len(cases), accurate


def test_the_fsum_fill_path_gives_the_same_answers_end_to_end(
    monkeypatch, suite_and_fixtures, medium_instances
):
    # Where np.longdouble is float64, _fill_residual sums by math.fsum. Both
    # sums meet the same error bound, so on these programs the fsum path
    # ends every solve as the long-double path does, within 1e-15.
    family = suite_and_fixtures + medium_instances
    default = [solve(inst) for inst in family]
    fill_residual, calls = eg._fill_residual, []
    monkeypatch.setattr(eg, "_EXTENDED", False)
    monkeypatch.setattr(
        eg, "_fill_residual", lambda x, r: calls.append(1) or fill_residual(x, r)
    )
    for inst, want in zip(family, default):
        got = solve(inst)
        assert (got.termination, got.report.passed, got.polish_applied) == (
            want.termination, want.report.passed, want.polish_applied
        ), inst
        np.testing.assert_allclose(
            got.report.allocation, want.report.allocation, rtol=0, atol=1e-15
        )
    assert calls


def test_answers_the_one_column_stage_declines_meet_the_kkt_conditions(draw):
    shapes = [(5, 5), (10, 8), (15, 10), (20, 20), (30, 15), (20, 40), (60, 30)]
    declined = 0
    for seed in range(3):
        for n, m in shapes:
            e, r = draw(np.random.default_rng([seed, n, m]), n, m)
            if eg._few_columns(e, r, int(r.sum(axis=0).argmax())) is not None:
                continue
            declined += 1
            x, p, status = solve_eg(e, r)
            assert status == "optimal"
            _assert_kkt(ProblemInstance(entitlements=e, requirements=r), x, p)
    assert declined >= 15, declined


def _overrun_column(e, r, j):
    """The column k != j that x(p) overruns at ``water_fill``'s price for j
    where it is the only column overrun, else None: where the stage goes on
    from j alone to the face {j, k}, or {k}, with no other column overrun."""
    c = r[:, j]
    fill = eg.water_fill(e, c, c * e.sum() > e)
    if fill is None:
        return None
    usage = (e / np.maximum(c * fill[0], e)) @ r
    over = np.flatnonzero(usage > 1.0 + eg._CAPACITY_TOL)
    return int(over[0]) if over.size == 1 and over[0] != j else None


def _two_column_draws(draw):
    """140 draws from 2x2 to 20x10."""
    rng = np.random.default_rng(5)
    return [
        ProblemInstance(*draw(rng, n, m))
        for n, m in [(2, 2), (3, 2), (3, 3), (4, 4), (5, 5), (10, 8), (20, 10)]
        for _ in range(20)
    ]


def test_the_two_column_stage_never_declines_a_two_column_optimum(
    monkeypatch, suite_and_fixtures, draw
):
    # Wherever x(p) at the water-filled price of j overruns one other column
    # k and the optimum prices j and k, or k alone, the stage returns it:
    # face Newton's answer within 1e-12, and within test_eg's KKT bounds.
    few_columns = eg._few_columns
    counts = {"pairs": 0, "k alone": 0, "declined": 0}
    family = suite_and_fixtures + _degenerate_instances(400) + _two_column_draws(draw)
    for inst in family:
        # Face Newton's answer: solve_eg with the stage declined.
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(eg, "_few_columns", lambda *args: calls.append(args))
            x, p, status = solve_eg(inst.entitlements, inst.requirements)
        if not calls:
            continue
        e, r, j = calls[0]
        k = _overrun_column(e, r, j)
        if k is None:
            continue
        assert status == "optimal"
        settled = few_columns(e, r, j)
        if settled is None:
            counts["declined"] += 1
            assert np.flatnonzero(p).tolist() not in ([k], sorted([j, k]))
            continue
        counts["pairs" if settled[1][j] > 0.0 else "k alone"] += 1
        assert np.max(np.abs(settled[0] - x)) <= 1e-12
        _assert_kkt(inst, *settled)
    assert counts["pairs"] >= 130 and counts["k alone"] >= 5, counts


def test_the_stage_declines_wherever_more_than_three_columns_overrun_at_the_bound(
    medium_instances, tiny_entitlement_draws, draw
):
    # The optimum's prices sum to at most sum_i e_i, and so does the
    # water-filled price of j, as the fill sum_i min(r_ij, e_i / sum_k e_k)
    # is at most 1. x(p) there is at least x_i = e_i / max(r_ij sum_k e_k,
    # e_i), so wherever more than three columns overrun at that x, more
    # than three overrun at x(p), and the stage declines.
    family = (
        medium_instances
        + _degenerate_instances(400)
        + tiny_entitlement_draws(400)
        + _two_column_draws(draw)
    )
    declined = 0
    for inst in family:
        users = inst.entitlements >= np.finfo(float).tiny  # the users solve_eg prices
        e, r = inst.entitlements[users], inst.requirements[users]
        if not r.shape[1]:
            continue
        j = int(r.sum(axis=0).argmax())
        x = e / np.maximum(r[:, j] * e.sum(), e)
        if np.count_nonzero(x @ r > 1.0 + eg._CAPACITY_TOL) > 3:
            declined += 1
            assert eg._few_columns(e, r, j) is None
    assert declined >= 47, declined


@pytest.mark.parametrize(
    "entitlements, requirements, priced, allocation",
    [
        (*_arrays("greedy3"), [1, 2], [0.9787032456, 0.6079372933, 0.1306875689]),
        (*_arrays("nonunique_n3"), [0, 1], [0.5, 0.5, 0.5]),
        # x(p) at column 0's water-filled price overruns column 1, which
        # the optimum prices alone, at 1.
        ([0.75, 0.25], [[0.5, 1.0], [1.0, 0.5]], [1], [0.75, 0.5]),
    ],
    ids=["greedy3-allocation0", "nonunique_n3-allocation1", "k_alone-allocation2"],
)
def test_two_bottleneck_fixtures_end_on_the_two_column_stage(
    monkeypatch, entitlements, requirements, priced, allocation
):
    # Both fixtures price two columns, and the last program column 1 alone:
    # the stage settles each inline, with no linear solve and no face Newton.
    def refuse(*args, **kwargs):
        raise AssertionError("a linear solve or face Newton ran")

    monkeypatch.setattr(eg.np.linalg, "solve", refuse)
    monkeypatch.setattr(eg.np.linalg, "lstsq", refuse)
    monkeypatch.setattr(eg, "_face", refuse)
    inst = ProblemInstance(entitlements=entitlements, requirements=requirements)
    x, p, status = solve_eg(inst.entitlements, inst.requirements)
    assert status == "optimal"
    assert np.flatnonzero(p).tolist() == priced
    np.testing.assert_allclose(x, allocation, rtol=0, atol=1e-10)
    _assert_kkt(inst, x, p)


def test_three_overrun_columns_settle_on_one_of_them_without_a_linear_solve(
    monkeypatch,
):
    # x(p) at column 2's water-filled price overruns columns 1 and 3; the
    # pair {2, 3} then prices column 3 alone, at 1, and that point certifies
    # as it is. Where stage 2 declined wherever two columns overran, this
    # program took 4 linear solves.
    def refuse(*args, **kwargs):
        raise AssertionError("a linear solve or face Newton ran")

    monkeypatch.setattr(eg.np.linalg, "solve", refuse)
    monkeypatch.setattr(eg.np.linalg, "lstsq", refuse)
    monkeypatch.setattr(eg, "_face", refuse)
    inst = ProblemInstance(
        entitlements=[2 / 3, 1 / 6, 1 / 6],
        requirements=[[0.75, 0.75, 1.0], [0.5, 0.25, 0.25], [0.25, 0.75, 0.5]],
    )
    x, p, status = solve_eg(inst.entitlements, inst.requirements)
    assert status == "optimal"
    assert np.flatnonzero(p).tolist() == [2]
    np.testing.assert_allclose(x, [2 / 3, 2 / 3, 1 / 3], rtol=0, atol=1e-12)
    _assert_kkt(inst, x, p)


def test_every_program_stage_2_settles_has_the_answer_reached_without_it(
    monkeypatch, suite_and_fixtures, draw, tiny_entitlement_draws
):
    # Stage 2 returns a point only with its certificate, also where face
    # Newton finishes it on a pair and the columns the pair overruns; the same
    # program solved with the stage declined, by the interior point and its
    # face exit, must give the same answer wherever it certifies too (777
    # calls). Where it stops at its iteration cap instead (50 tiny draws),
    # the stage's answer must meet the KKT bounds.
    few_columns = eg._few_columns
    family = (
        suite_and_fixtures
        + _two_column_draws(draw)
        + _degenerate_instances(400)
        + tiny_entitlement_draws(400)
    )
    settled = []

    def recorded(*args):
        settled.append(few_columns(*args))
        return settled[-1]

    compared = 0
    for inst in family:
        e, r = inst.entitlements, inst.requirements
        settled.clear()
        with monkeypatch.context() as patch:
            patch.setattr(eg, "_few_columns", recorded)
            x, p, status = solve_eg(e, r)
        if not settled or None in settled:  # stage 1 or stage 3 settled one
            continue
        with monkeypatch.context() as patch:
            patch.setattr(eg, "_few_columns", lambda *args: None)
            x_without, _, status_without = solve_eg(e, r)
        assert status == "optimal", inst
        if status_without != "optimal":
            _assert_kkt(inst, x, p)
            continue
        assert np.max(np.abs(x - x_without)) <= 1e-12, inst
        compared += 1
    assert compared >= 770, compared


def test_the_two_column_root_meets_its_equation():
    # F(t) = sum_i w_i / (a_i + b_i t) - 1 with a_i, a_i + b_i >= 0 is convex
    # on (0, 1); with F(1) <= 0 its root is found from 0 and from a warm
    # start, and where F(0) <= 0 there is none from either.
    rng = np.random.default_rng(29)
    found = 0
    for _ in range(300):
        n = int(rng.integers(1, 8))
        a = rng.uniform(0.0, 1.0, n) * (rng.random(n) >= 0.2)
        end = rng.uniform(0.0, 1.0, n) * (rng.random(n) >= 0.2) + (a == 0.0)
        share = rng.uniform(0.0, 1.0, n)
        w = share / share.sum() * rng.uniform(0.3, 1.0) * end  # F(1) <= 0
        b = end - a
        for t in (0.0, float(rng.uniform(0.0, 1.0))):
            root = eg._root(a, b, w, t)
            if a.min() > 0.0 and (w / a).sum() <= 1.0:
                assert root is None
                continue
            found += 1
            assert root is not None and 0.0 < root <= 1.0
            f = math.fsum(w / (a + b * root)) - 1.0
            slope = math.fsum(w * b / (a + b * root) ** 2)
            assert abs(f) <= 1e-12 * max(1.0, slope), (a, b, w, t, root)
    assert found >= 400, found


def test_a_face_with_more_distinct_columns_than_short_users_is_declined_before_any_lu(
    monkeypatch,
):
    # One user short of 1 on two distinct face columns: the face system has
    # rank at most 1, so the face is declined without factorising it.
    def refuse(*args, **kwargs):
        raise AssertionError("a face system was factorised")

    monkeypatch.setattr(eg.np.linalg, "solve", refuse)
    monkeypatch.setattr(eg.np.linalg, "lstsq", refuse)
    e, r = np.array([1.0]), np.array([[0.8, 0.6]])
    assert eg._face(e, r, np.ones(2, dtype=bool), np.ones(2)) is None


@pytest.mark.parametrize(
    "entitlements, requirements, allocation",
    [
        # The last roadmap's item 2: column 3 saturates with user 2 at 1.
        ([1e-100, 1.0], [[0.35, 0, 0.02], [0.15, 0.48, 0.99]], [0.5, 1.0]),
        ([1e-110, 1.0], [[0.35, 0, 0.02], [0.15, 0.48, 0.99]], [0.5, 1.0]),
        # One column, priced at 1e-99.
        ([1e-100, 1.0], [[0.5], [0.9]], [0.2, 1.0]),
        # User 5's (R p)_5 is about 4.6e-301: the water-filled point fills
        # the column exactly and certifies as it is, with no face Newton.
        (
            [0.4077086452228795, 0.20818699454257036, 0.38410436023455014,
             4.59287160208636e-21, 4.59287160208636e-301],
            [[0.0], [0.0], [0.231], [0.327], [0.445]],
            [1.0, 1.0, 1.0, 1.0, 0.442 / 0.445],
        ),
    ],
    ids=[
        "three-columns-1e-100",
        "three-columns-1e-110",
        "one-column-1e-100",
        "one-column-4.6e-301",
    ],
)
def test_a_user_entitled_to_1e_100_or_less_gets_the_one_column_answer(
    entitlements, requirements, allocation
):
    inst = ProblemInstance(entitlements=entitlements, requirements=requirements)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = solve(inst)
    assert res.report.passed
    assert res.termination == "converged"
    assert res.polish_applied
    np.testing.assert_allclose(res.report.allocation, allocation, rtol=0, atol=1e-12)


def test_tiny_entitlements_raise_no_runtime_warning(tiny_entitlement_draws):
    # Entitlements below 2.2e-308 count as none, so those users join the
    # tier of users entitled to nothing: every draw verifies, and nothing
    # may warn. Face Newton still divides by (R p)_i, which can be near
    # 1e-300 here; where its Hessian weight x_i / (R p)_i overflows, the step
    # is not finite and the face is declined, with no warning. Some draws
    # still stop at the interior point's iteration cap, but no certified
    # answer may fail.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        results = [solve(inst) for inst in tiny_entitlement_draws(400)]
    assert all(res.report.passed for res in results)
    # 95 of the first 100 end on a certified face; 89 did while the
    # interior point priced subnormal entitlements, 83 where the one-column
    # stage always ran face Newton, and 67 without that stage.
    assert sum(res.polish_applied for res in results[:100]) >= 95
    # Of all 400, 377 certify and 378 are Pareto. While the interior point
    # priced subnormal entitlements, 346 certified, 348 were Pareto and 15
    # failed to verify; without the tatonnement steps 373 certify, and from
    # 7 of them draw 220 fails to verify.
    assert sum(res.polish_applied for res in results) >= 377
    assert sum(bool(res.report.pareto_ok) for res in results) >= 378


def test_every_certified_answer_is_the_allocation_of_its_own_prices(
    suite_and_fixtures, tiny_entitlement_draws
):
    # A certified answer is x(p): each entitled user's x_i lies within 4 ulps
    # of e_i / max((R p)_i, e_i) at the prices returned with it, also where
    # (R p)_i is near 1e-200. Face Newton's linearised iterate, returned as
    # it was, missed this by up to 6.6e10 ulps (tiny draw 380) and failed
    # the KKT bounds on tiny draws 13 and 380.
    family = suite_and_fixtures + _degenerate_instances(400) + tiny_entitlement_draws(400)
    certified = 0
    for inst in family:
        e, r = inst.entitlements, inst.requirements
        x, p, status = solve_eg(e, r)
        if status != "optimal":
            continue
        certified += 1
        users = e >= np.finfo(float).tiny
        xp = e[users] / np.maximum(r[users] @ p, e[users])
        assert np.all(np.abs(x[users] - xp) <= 4.0 * np.spacing(xp)), inst
        _assert_kkt(inst, x, p)
    assert certified >= 950, certified


def test_a_verified_answer_at_the_iteration_cap_reports_its_own_flag(tiny_entitlement_draws):
    # Draw 1: the interior point stops at its cap on a user entitled to
    # 6.4e-301, and x(p) there still verifies. Only an answer that verifies
    # and carries the certificate reads "converged".
    res = solve(tiny_entitlement_draws(2)[1])
    assert res.report.passed
    assert not res.polish_applied
    assert res.termination == "iteration_limit"


@pytest.mark.parametrize("tiny", [pytest.param(np.finfo(float).tiny, id="tiny"), 2.3e-308])
def test_a_barely_normal_user_who_requests_nothing_raises_no_runtime_warning(
    monkeypatch, medium_instances, tiny
):
    # The user's entitlement is at or just above float64's smallest normal
    # number, the least that solve_eg prices, so every pass carries them.
    # They are full on every pass, (R p)_i = 0 <= e_i, and their Hessian
    # weight is 0: no pass may overflow on a quotient by their entitlement,
    # whose reciprocal is about a quarter of float64's largest number.
    # The zero row changes no face's decision. Stage 2 settles some of these
    # programs, so each is solved as it is and again with stage 2 declined,
    # where every one reaches the interior point.
    calls, priced = [], []
    linear_solve, solve = np.linalg.solve, eg._solve
    monkeypatch.setattr(
        np.linalg, "solve", lambda a, b: calls.append(1) or linear_solve(a, b)
    )
    monkeypatch.setattr(eg, "_solve", lambda e, r: priced.append(e[-1]) or solve(e, r))
    for inst in medium_instances:
        e = np.append(inst.entitlements, tiny)
        r = np.vstack([inst.requirements, np.zeros(inst.requirements.shape[1])])
        x_without, _, _ = solve_eg(inst.entitlements, inst.requirements)
        for declined in (False, True):
            before = len(calls)
            with monkeypatch.context() as patch, warnings.catch_warnings():
                if declined:
                    patch.setattr(eg, "_few_columns", lambda *args: None)
                warnings.simplefilter("error", RuntimeWarning)
                x, _, status = solve_eg(e, r)
            assert len(calls) > before or not declined
            assert priced[-1] == tiny
            assert status == "optimal" and x[-1] == 1.0
            assert np.max(np.abs(x[:-1] - x_without)) <= 1e-12


@pytest.mark.parametrize(
    "e, r",
    [
        # Nobody entitled requests resource 3: x(p) R leaves it at 0, and an
        # undamped step would set its price to 0.
        ([0.4, 0.4, 0.2], [[1.0, 0.2, 0.0], [0.2, 1.0, 0.0], [0.6, 0.6, 0.0]]),
    ],
)
def test_the_tatonnement_steps_keep_every_price_finite_and_positive(monkeypatch, e, r):
    e, r = np.array(e), np.array(r)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        solve_eg(e, r)
        # With no interior-point step, no face and no stage of one or two
        # columns, solve_eg returns the prices the interior point would
        # start from.
        monkeypatch.setattr(eg, "_MAX_ITERATIONS", 0)
        monkeypatch.setattr(eg, "_face", lambda *args: None)
        monkeypatch.setattr(eg, "_few_columns", lambda *args: None)
        _, p, status = solve_eg(e, r)
    assert status == "iteration_limit"
    assert np.isfinite(p).all() and (p > 0.0).all()


def _assert_fills(w, c, fill):
    """p fills the column to 1e-12 and the short set is {c p > w}."""
    p, short = fill
    assert p > 0.0
    assert abs(np.minimum(c, w / p).sum() - 1.0) <= 1e-12
    np.testing.assert_array_equal(short, c * p > w)


def test_the_water_fill_meets_its_equation():
    # Started from every user, the fill finds the price wherever users with
    # positive weight demand more than the column; users of weight 0 stay
    # short and take nothing.
    rng = np.random.default_rng(41)
    filled = 0
    for _ in range(500):
        n = int(rng.integers(1, 60))
        w = rng.uniform(0.0, 1.0, n) * (rng.random(n) >= 0.2) * 10.0 ** rng.uniform(-6, 0)
        c = rng.uniform(0.0, 1.0, n) * (rng.random(n) >= 0.2)
        c = c / max(c.sum(), 1e-300) * rng.uniform(0.5, 3.0)
        fill = eg.water_fill(w, c, np.ones(n, dtype=bool))
        if c @ (w > 0.0) <= 1.0:
            assert fill is None
            continue
        filled += 1
        _assert_fills(w, c, fill)
    assert filled >= 250, filled


@pytest.mark.parametrize("n", [2, 10, 100, 1000])
def test_the_water_fill_ends_on_geometric_thresholds(n):
    # User i turns full at the price 0.5^i, so the thresholds span n halvings.
    c = np.full(n, 2.0 / n)
    w = c * 0.5 ** np.arange(n)
    _assert_fills(w, c, eg.water_fill(w, c, np.ones(n, dtype=bool)))


def test_the_water_fill_ends_on_subnormal_weights():
    # The fill's sets are nested, so it cannot cycle: the draw on which an
    # earlier fill alternated between two short sets at prices near 1e-323
    # ends, and so do weights drawn among the subnormals.
    e = np.array([0.6003468529257728, 0.39965314707422717, 5e-324, 5e-324])
    c = np.array([0.013084414505794895, 0.0, 0.7930632763191798, 0.6001142483374483])
    fill = eg.water_fill(e, c, c * e.sum() > e)
    assert fill is not None and fill[0] > 0.0
    rng = np.random.default_rng(43)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        w = rng.choice([5e-324, 1e-323, 3e-320, 1e-310, 2e-308, 1e-300], n)
        c = rng.uniform(0.0, 1.0, n)
        fill = eg.water_fill(w, c / c.sum() * 1.5, np.ones(n, dtype=bool))
        assert fill is not None and fill[0] > 0.0


@pytest.mark.parametrize("ratio, n", [(0.1, 200), (0.3, 400)])
def test_geometric_entitlements_on_one_bottleneck_end_on_a_certified_face(
    monkeypatch, ratio, n
):
    # Entitlements falling by a constant ratio down to about 1e-200 on one
    # overloaded column: more users turn short than a capped water-fill
    # settles, and the interior point alone stops at its iteration cap. The
    # one-column stage settles both without face Newton, also at 400 users,
    # where the BLAS fill misses capacity by 3.3e-15.
    def refuse(*args):
        raise AssertionError("face Newton ran")

    monkeypatch.setattr(eg, "_face", refuse)
    e = ratio ** np.arange(n)
    inst = ProblemInstance(
        entitlements=e / e.sum(), requirements=np.tile([1.5 / n, 0.5 / n], (n, 1))
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = solve(inst)
    assert res.report.passed
    assert res.termination == "converged"
    assert res.polish_applied
