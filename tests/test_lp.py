from itertools import combinations

import numpy as np
import pytest

from fairshare.lp import PHASE_ONE_TOL, LinearProgram, maximize, maximize_each


def brute_force_max(objective, rows, rhs, bounds):
    """Vertex-enumeration oracle: try every choice of n tight constraints."""
    objective = np.asarray(objective, float)
    n = objective.shape[0]
    planes = [(np.asarray(a, float), float(b)) for a, b in zip(rows, rhs)]
    for j, (lo, hi) in enumerate(bounds):
        unit = np.zeros(n)
        unit[j] = 1.0
        planes.append((unit, lo))
        if hi is not None:
            planes.append((unit, hi))
    best = None
    for combo in combinations(range(len(planes)), n):
        a = np.array([planes[k][0] for k in combo])
        b = np.array([planes[k][1] for k in combo])
        try:
            x = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            continue
        ok = all(float(np.dot(r, x)) <= c + 1e-9 for r, c in zip(rows, rhs))
        ok = ok and all(
            lo - 1e-9 <= x[j] and (hi is None or x[j] <= hi + 1e-9)
            for j, (lo, hi) in enumerate(bounds)
        )
        if ok:
            value = float(objective @ x)
            if best is None or value > best:
                best = value
    return best


def test_single_constraint_maximum():
    lp = LinearProgram(
        objective=[1.0, 1.0],
        constraints=[([1.0, 1.0], 1.0, "<=")],
        bounds=[(0.0, 1.0), (0.0, 1.0)],
    )
    res = maximize(lp)
    assert res.status == "optimal"
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_domination_probe_three_users():
    # max 0.2 x1 + 0.2 x2 + 0.8 x3  s.t.  x1 + x2 + 0.4 x3 <= 1, x in [0,1]^3
    rows = [[1.0, 1.0, 0.4]]
    rhs = [1.0]
    bounds = [(0.0, 1.0)] * 3
    lp = LinearProgram([0.2, 0.2, 0.8], [(rows[0], rhs[0], "<=")], bounds)
    res = maximize(lp)
    assert res.status == "optimal"
    assert res.value == pytest.approx(0.92, abs=1e-9)
    assert brute_force_max(lp.objective, rows, rhs, bounds) == pytest.approx(0.92)
    # optimizer is one of the two symmetric vertices
    assert res.x[2] == pytest.approx(1.0, abs=1e-9)
    assert sorted(np.round(res.x[:2], 9)) == pytest.approx([0.0, 0.6], abs=1e-9)


def test_contradictory_equality_and_bound_is_infeasible():
    lp = LinearProgram(
        objective=[1.0],
        constraints=[([1.0], 2.0, "==")],
        bounds=[(0.0, 1.0)],
    )
    res = maximize(lp)
    assert res.status == "infeasible"
    # Phase one gets x to 1, its bound, and the artificial carries the rest.
    assert res.infeasibility == pytest.approx(1.0, abs=1e-12)


def test_unbounded_direction_detected():
    lp = LinearProgram(
        objective=[1.0, 0.0],
        constraints=[([0.0, 1.0], 1.0, "<=")],
        bounds=[(0.0, None), (0.0, None)],
    )
    res = maximize(lp)
    assert res.status == "unbounded"
    assert res.infeasibility == 0.0


def _feasibility(constraints, bounds):
    """Pure feasibility question: maximize a zero objective."""
    lp = LinearProgram(np.zeros(len(bounds)), tuple(constraints), tuple(bounds))
    return maximize(lp)


def test_feasible_empty_system_returns_box_point():
    res = _feasibility([], [(0.0, 1.0)] * 3)
    assert res.status == "optimal"
    assert res.infeasibility == 0.0
    assert np.all(res.x >= -1e-12) and np.all(res.x <= 1.0 + 1e-12)


def test_feasible_two_bottleneck_family_witness():
    # x1 + x3 = 1, x1 + x2 = 1, x1 >= 0.5, x2 >= 0.3, x in [0,1]^3
    rows = [
        ([1.0, 0.0, 1.0], 1.0, "=="),
        ([1.0, 1.0, 0.0], 1.0, "=="),
        ([-1.0, 0.0, 0.0], -0.5, "<="),
        ([0.0, -1.0, 0.0], -0.3, "<="),
    ]
    res = _feasibility(rows, [(0.0, 1.0)] * 3)
    assert res.status == "optimal"
    x = res.x
    assert x[0] + x[2] == pytest.approx(1.0, abs=1e-9)
    assert x[0] + x[1] == pytest.approx(1.0, abs=1e-9)
    assert x[0] >= 0.5 - 1e-9 and x[1] >= 0.3 - 1e-9


def test_feasible_detects_conflicting_equalities():
    rows = [([1.0], 0.3, "=="), ([1.0], 0.4, "==")]
    res = _feasibility(rows, [(0.0, 1.0)])
    assert res.status == "infeasible"
    # The least artificial sum is the gap between the two right-hand sides.
    assert res.infeasibility == pytest.approx(0.1, abs=1e-12)


def test_negative_rhs_rows_are_handled():
    # x1 >= 0.25 written as -x1 <= -0.25
    lp = LinearProgram(
        objective=[-1.0],
        constraints=[([-1.0], -0.25, "<=")],
        bounds=[(0.0, 1.0)],
    )
    res = maximize(lp)
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(0.25, abs=1e-9)


def _random_le_problem(rng):
    """Random "<=" rows over the unit box in R^3; the origin is feasible."""
    n = 3
    n_rows = rng.integers(1, 5)
    rows = rng.uniform(-1.0, 1.0, (n_rows, n))
    rhs = rng.uniform(0.2, 1.5, n_rows)
    objective = rng.uniform(-1.0, 1.0, n)
    return rows, rhs, objective


def _random_eq_problem(rng):
    """One equality through a feasible interior point of the unit box in
    R^3, plus random "<=" caps that the point satisfies."""
    n = 3
    x_feas = rng.uniform(0.1, 0.9, n)
    eq = rng.uniform(0.2, 1.0, n)
    eq_rhs = float(eq @ x_feas)
    n_rows = rng.integers(1, 4)
    rows = rng.uniform(0.0, 1.0, (n_rows, n))
    rhs = rows @ x_feas + rng.uniform(0.05, 0.5, n_rows)
    objective = rng.uniform(-1.0, 1.0, n)
    return eq, eq_rhs, rows, rhs, objective


def test_optimizer_feasibility_and_value_consistency_random():
    rng = np.random.default_rng(42)
    for trial in range(30):
        n = 3
        rows, rhs, objective = _random_le_problem(rng)
        n_rows = rows.shape[0]
        bounds = [(0.0, 1.0)] * n
        lp = LinearProgram(
            objective, [(rows[i], rhs[i], "<=") for i in range(n_rows)], bounds
        )
        res = maximize(lp)
        assert res.status == "optimal"  # box keeps it bounded; origin feasible
        assert np.all(rows @ res.x <= rhs + 1e-9)
        assert np.all(res.x >= -1e-9) and np.all(res.x <= 1.0 + 1e-9)
        assert res.value == pytest.approx(float(objective @ res.x), rel=1e-12, abs=1e-12)
        expected = brute_force_max(objective, rows, rhs, bounds)
        assert res.value == pytest.approx(expected, abs=1e-8)


def test_random_problems_with_equality_row():
    # One equality pinned through a feasible interior point plus random caps,
    # cross-checked against vertex enumeration restricted to the equality.
    rng = np.random.default_rng(7)
    solved = 0
    for trial in range(30):
        n = 3
        eq, eq_rhs, rows, rhs, objective = _random_eq_problem(rng)
        n_rows = rows.shape[0]
        bounds = [(0.0, 1.0)] * n
        constraints = [(eq, eq_rhs, "==")] + [
            (rows[i], float(rhs[i]), "<=") for i in range(n_rows)
        ]
        res = maximize(LinearProgram(objective, constraints, bounds))
        assert res.status == "optimal"
        assert float(eq @ res.x) == pytest.approx(eq_rhs, abs=1e-9)
        assert np.all(rows @ res.x <= rhs + 1e-9)
        # enumeration oracle: the equality is always tight, pick 2 more planes
        best = None
        planes = [(rows[i], float(rhs[i])) for i in range(n_rows)]
        for j in range(n):
            unit = np.zeros(n)
            unit[j] = 1.0
            planes.append((unit, 0.0))
            planes.append((unit, 1.0))
        for combo in combinations(range(len(planes)), 2):
            a = np.array([eq] + [planes[k][0] for k in combo])
            b = np.array([eq_rhs] + [planes[k][1] for k in combo])
            try:
                x = np.linalg.solve(a, b)
            except np.linalg.LinAlgError:
                continue
            if np.all(rows @ x <= rhs + 1e-9) and np.all(x >= -1e-9) and np.all(x <= 1 + 1e-9):
                value = float(objective @ x)
                if best is None or value > best:
                    best = value
        assert best is not None
        assert res.value == pytest.approx(best, abs=1e-8)
        solved += 1
    assert solved == 30


def _bits(array):
    return None if array is None else np.asarray(array, dtype=float).tobytes()


def _assert_same_result(a, b):
    assert a.status == b.status
    assert _bits(a.value) == _bits(b.value)
    assert _bits(a.x) == _bits(b.x)
    assert _bits(a.infeasibility) == _bits(b.infeasibility)


def _probe_objectives(rng, n):
    ones = np.ones(n)
    objectives = [ones, -ones, np.zeros(n), rng.uniform(-1.0, 1.0, n)]
    for j in range(n):
        objectives += [np.eye(n)[j], -np.eye(n)[j]]
    return objectives


def _check_maximize_each(constraints, bounds, objectives):
    lp = LinearProgram(objectives[0], constraints, bounds)
    each = maximize_each(lp, objectives)
    assert len(each) == len(objectives)
    for objective, res in zip(objectives, each):
        _assert_same_result(res, maximize(LinearProgram(objective, constraints, bounds)))
        if res.status == "infeasible":
            assert res.infeasibility > PHASE_ONE_TOL
        else:
            assert res.infeasibility == 0.0
    return each


def test_maximize_each_matches_maximize_bitwise():
    # Phase one is shared across the objectives; every result must equal a
    # separate solve exactly, in status, value and x.
    rng = np.random.default_rng(42)
    for trial in range(30):
        rows, rhs, objective = _random_le_problem(rng)
        constraints = [(rows[i], rhs[i], "<=") for i in range(rows.shape[0])]
        objectives = [objective] + _probe_objectives(rng, 3)
        each = _check_maximize_each(constraints, [(0.0, 1.0)] * 3, objectives)
        assert all(res.status == "optimal" for res in each)
    rng = np.random.default_rng(7)
    for trial in range(30):
        eq, eq_rhs, rows, rhs, objective = _random_eq_problem(rng)
        constraints = [(eq, eq_rhs, "==")] + [
            (rows[i], float(rhs[i]), "<=") for i in range(rows.shape[0])
        ]
        objectives = [objective] + _probe_objectives(rng, 3)
        each = _check_maximize_each(constraints, [(0.0, 1.0)] * 3, objectives)
        assert all(res.status == "optimal" for res in each)


def test_maximize_each_infeasible_and_unbounded():
    rng = np.random.default_rng(3)
    infeasible = [([1.0, 0.0], 0.3, "=="), ([1.0, 0.0], 0.4, "==")]
    each = _check_maximize_each(infeasible, [(0.0, 1.0)] * 2, _probe_objectives(rng, 2))
    assert all(res.status == "infeasible" for res in each)
    # x2 is capped by a row, x1 only from below: some probes are unbounded.
    open_box = [([0.0, 1.0], 1.0, "<=")]
    each = _check_maximize_each(open_box, [(0.0, None)] * 2, _probe_objectives(rng, 2))
    assert {res.status for res in each} == {"optimal", "unbounded"}


def test_maximize_each_rejects_mismatched_objective():
    lp = LinearProgram([1.0, 1.0], [([1.0, 1.0], 1.0, "<=")], [(0.0, 1.0)] * 2)
    with pytest.raises(ValueError):
        maximize_each(lp, [np.ones(3)])


def test_maximize_each_of_no_objective_is_empty():
    lp = LinearProgram([1.0, 1.0], [([1.0, 1.0], 1.0, "<=")], [(0.0, 1.0)] * 2)
    assert maximize_each(lp, []) == []


def test_maximize_each_with_an_all_zero_objective():
    constraints = [([1.0, 2.0], 1.5, "<="), ([1.0, 1.0], 0.5, "==")]
    objectives = [np.zeros(2), np.ones(2), np.zeros(2), -np.ones(2)]
    each = _check_maximize_each(constraints, [(0.0, 1.0)] * 2, objectives)
    assert all(res.status == "optimal" for res in each)
    assert each[0].value == 0.0


def test_maximize_each_keeps_a_redundant_equality_row():
    # The second row repeats the first, so its artificial stays basic at
    # zero after phase one and must be priced as a zero-cost row.
    constraints = [
        ([1.0, 1.0, 0.0], 1.0, "=="),
        ([2.0, 2.0, 0.0], 2.0, "=="),
        ([0.0, 1.0, 1.0], 1.2, "<="),
    ]
    rng = np.random.default_rng(11)
    each = _check_maximize_each(constraints, [(0.0, 1.0)] * 3, _probe_objectives(rng, 3))
    assert all(res.status == "optimal" for res in each)
    for res in each:
        assert res.x[0] + res.x[1] == pytest.approx(1.0, abs=1e-12)


def test_maximize_each_with_nonzero_lower_bounds():
    rng = np.random.default_rng(5)
    bounds = [(0.25, 1.0), (-0.5, 0.5), (0.1, None)]
    for trial in range(10):
        rows, rhs, objective = _random_le_problem(rng)
        rows = np.vstack([rows, [0.0, 0.0, 1.0]])
        rhs = np.append(rhs + 2.0, 2.0)
        constraints = [(rows[i], rhs[i], "<=") for i in range(rows.shape[0])]
        objectives = [objective] + _probe_objectives(rng, 3)
        each = _check_maximize_each(constraints, bounds, objectives)
        for c, res in zip(objectives, each):
            assert res.status == "optimal"
            assert np.all(rows @ res.x <= rhs + 1e-9)
            assert res.value == pytest.approx(brute_force_max(c, rows, rhs, bounds), abs=1e-9)


def test_maximize_each_prices_an_unbounded_probe_beside_vertex_probes():
    # From the phase-one vertex (the origin) -x1 and -x2 need no pivot,
    # +x1 is unbounded and +x2 pivots once.
    constraints = [([0.0, 1.0], 1.0, "<=")]
    objectives = [-np.eye(2)[0], np.eye(2)[0], -np.ones(2), np.eye(2)[1], -np.eye(2)[1]]
    each = _check_maximize_each(constraints, [(0.0, None)] * 2, objectives)
    assert [res.status for res in each] == [
        "optimal", "unbounded", "optimal", "optimal", "optimal"
    ]
    assert each[3].x.tolist() == [0.0, 1.0]


def test_maximize_each_returns_independent_solutions():
    lp = LinearProgram([1.0, 1.0], [([1.0, 1.0], 1.0, "<=")], [(0.0, 1.0)] * 2)
    first, second, third = maximize_each(lp, [-np.ones(2), np.zeros(2), -np.ones(2)])
    first.x[0] = 99.0
    assert second.x.tolist() == [0.0, 0.0]
    assert third.x.tolist() == [0.0, 0.0]
