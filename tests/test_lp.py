from itertools import combinations

import numpy as np
import pytest

from fairshare.lp import PHASE_ONE_TOL, maximize, maximize_each


def brute_force_max(objective, rows, rhs, upper):
    """Vertex-enumeration oracle: try every choice of n tight constraints
    among the rows, x >= 0 and the upper bounds."""
    objective = np.asarray(objective, float)
    n = objective.shape[0]
    planes = [(np.asarray(a, float), float(b)) for a, b in zip(rows, rhs)]
    for j, hi in enumerate(upper):
        unit = np.zeros(n)
        unit[j] = 1.0
        planes.append((unit, 0.0))
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
            -1e-9 <= x[j] and (hi is None or x[j] <= hi + 1e-9) for j, hi in enumerate(upper)
        )
        if ok:
            value = float(objective @ x)
            if best is None or value > best:
                best = value
    return best


def test_single_constraint_maximum():
    res = maximize([1.0, 1.0], [([1.0, 1.0], 1.0, "<=")], [1.0, 1.0])
    assert res.status == "optimal"
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_domination_probe_three_users():
    # max 0.2 x1 + 0.2 x2 + 0.8 x3  s.t.  x1 + x2 + 0.4 x3 <= 1, x in [0,1]^3
    rows = [[1.0, 1.0, 0.4]]
    rhs = [1.0]
    objective, upper = [0.2, 0.2, 0.8], [1.0] * 3
    res = maximize(objective, [(rows[0], rhs[0], "<=")], upper)
    assert res.status == "optimal"
    assert res.value == pytest.approx(0.92, abs=1e-9)
    assert brute_force_max(objective, rows, rhs, upper) == pytest.approx(0.92)
    # optimizer is one of the two symmetric vertices
    assert res.x[2] == pytest.approx(1.0, abs=1e-9)
    assert sorted(np.round(res.x[:2], 9)) == pytest.approx([0.0, 0.6], abs=1e-9)


def test_contradictory_equality_and_bound_is_infeasible():
    res = maximize([1.0], [([1.0], 2.0, "==")], [1.0])
    assert res.status == "infeasible"
    # Phase one gets x to 1, its bound, and the artificial carries the rest.
    assert res.infeasibility == pytest.approx(1.0, abs=1e-12)


def test_unbounded_direction_detected():
    res = maximize([1.0, 0.0], [([0.0, 1.0], 1.0, "<=")], [None, None])
    assert res.status == "unbounded"
    assert res.infeasibility == 0.0


def _feasibility(constraints, upper):
    """Pure feasibility question: maximize a zero objective."""
    return maximize(np.zeros(len(upper)), constraints, upper)


def test_feasible_empty_system_returns_box_point():
    res = _feasibility([], [1.0] * 3)
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
    res = _feasibility(rows, [1.0] * 3)
    assert res.status == "optimal"
    x = res.x
    assert x[0] + x[2] == pytest.approx(1.0, abs=1e-9)
    assert x[0] + x[1] == pytest.approx(1.0, abs=1e-9)
    assert x[0] >= 0.5 - 1e-9 and x[1] >= 0.3 - 1e-9


def test_feasible_detects_conflicting_equalities():
    rows = [([1.0], 0.3, "=="), ([1.0], 0.4, "==")]
    res = _feasibility(rows, [1.0])
    assert res.status == "infeasible"
    # The least artificial sum is the gap between the two right-hand sides.
    assert res.infeasibility == pytest.approx(0.1, abs=1e-12)


def test_negative_rhs_rows_are_handled():
    # x1 >= 0.25 written as -x1 <= -0.25
    res = maximize([-1.0], [([-1.0], -0.25, "<=")], [1.0])
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
        upper = [1.0] * n
        res = maximize(objective, [(rows[i], rhs[i], "<=") for i in range(n_rows)], upper)
        assert res.status == "optimal"  # box keeps it bounded; origin feasible
        assert np.all(rows @ res.x <= rhs + 1e-9)
        assert np.all(res.x >= -1e-9) and np.all(res.x <= 1.0 + 1e-9)
        assert res.value == pytest.approx(float(objective @ res.x), rel=1e-12, abs=1e-12)
        expected = brute_force_max(objective, rows, rhs, upper)
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
        constraints = [(eq, eq_rhs, "==")] + [
            (rows[i], float(rhs[i]), "<=") for i in range(n_rows)
        ]
        res = maximize(objective, constraints, [1.0] * n)
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


def _check_maximize_each(constraints, upper, objectives):
    each = maximize_each(constraints, upper, objectives)
    assert len(each) == len(objectives)
    for objective, res in zip(objectives, each):
        _assert_same_result(res, maximize(objective, constraints, upper))
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
        each = _check_maximize_each(constraints, [1.0] * 3, objectives)
        assert all(res.status == "optimal" for res in each)
    rng = np.random.default_rng(7)
    for trial in range(30):
        eq, eq_rhs, rows, rhs, objective = _random_eq_problem(rng)
        constraints = [(eq, eq_rhs, "==")] + [
            (rows[i], float(rhs[i]), "<=") for i in range(rows.shape[0])
        ]
        objectives = [objective] + _probe_objectives(rng, 3)
        each = _check_maximize_each(constraints, [1.0] * 3, objectives)
        assert all(res.status == "optimal" for res in each)


def test_maximize_each_infeasible_and_unbounded():
    rng = np.random.default_rng(3)
    infeasible = [([1.0, 0.0], 0.3, "=="), ([1.0, 0.0], 0.4, "==")]
    each = _check_maximize_each(infeasible, [1.0] * 2, _probe_objectives(rng, 2))
    assert all(res.status == "infeasible" for res in each)
    # x2 is capped by a row, x1 only from below: some probes are unbounded.
    open_box = [([0.0, 1.0], 1.0, "<=")]
    each = _check_maximize_each(open_box, [None] * 2, _probe_objectives(rng, 2))
    assert {res.status for res in each} == {"optimal", "unbounded"}


def test_maximize_each_rejects_mismatched_objective():
    with pytest.raises(ValueError):
        maximize_each([([1.0, 1.0], 1.0, "<=")], [1.0] * 2, [np.ones(3)])


def test_maximize_each_of_no_objective_is_empty():
    assert maximize_each([([1.0, 1.0], 1.0, "<=")], [1.0] * 2, []) == []


def test_maximize_each_with_an_all_zero_objective():
    constraints = [([1.0, 2.0], 1.5, "<="), ([1.0, 1.0], 0.5, "==")]
    objectives = [np.zeros(2), np.ones(2), np.zeros(2), -np.ones(2)]
    each = _check_maximize_each(constraints, [1.0] * 2, objectives)
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
    each = _check_maximize_each(constraints, [1.0] * 3, _probe_objectives(rng, 3))
    assert all(res.status == "optimal" for res in each)
    for res in each:
        assert res.x[0] + res.x[1] == pytest.approx(1.0, abs=1e-12)


_ROW = ([1.0, 1.0], 1.0, "<=")


@pytest.mark.parametrize(
    "constraints, upper, objectives",
    [
        pytest.param([([1.0, 1.0, 1.0], 1.0, "<=")], [1.0] * 2, [np.ones(2)], id="long-row"),
        pytest.param([_ROW, ([1.0], 1.0, "==")], [1.0] * 2, [np.ones(2)], id="short-row"),
        pytest.param([_ROW], [1.0] * 2, [np.ones(2), np.ones(1)], id="short-objective"),
        pytest.param([([1.0, 1.0], 1.0, ">=")], [1.0] * 2, [np.ones(2)], id="relation"),
        pytest.param([_ROW], [1.0, -0.5], [np.ones(2)], id="negative-upper"),
        pytest.param([_ROW], [None, np.nan], [np.ones(2)], id="nan-upper"),
        pytest.param([([1.0], 1.0, "<=")], [-1.0, None], [], id="no-objective"),
    ],
)
def test_maximize_each_rejects_input_outside_its_contract(constraints, upper, objectives):
    # Every row and objective has one entry per upper bound, every relation
    # is "<=" or "==", and every upper bound is >= 0 or None; the inputs
    # are checked even when there is no objective to price.
    with pytest.raises(ValueError):
        maximize_each(constraints, upper, objectives)
    if objectives:
        with pytest.raises(ValueError):
            maximize(objectives[-1], constraints, upper)


def test_maximize_each_with_zero_and_missing_upper_bounds():
    # x1 is pinned to 0 by its bound, x2 is free above and capped by a row,
    # x3 is capped by its bound alone.
    rng = np.random.default_rng(5)
    rows, rhs = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, -1.0]]), np.array([2.0, 1.5])
    upper = [0.0, None, 0.75]
    constraints = [(rows[i], rhs[i], "<=") for i in range(2)]
    objectives = _probe_objectives(rng, 3)
    each = _check_maximize_each(constraints, upper, objectives)
    for c, res in zip(objectives, each):
        assert res.status == "optimal"
        assert res.x[0] == 0.0 and res.x[2] <= 0.75
        assert np.all(rows @ res.x <= rhs + 1e-9)
        assert res.value == pytest.approx(brute_force_max(c, rows, rhs, upper), abs=1e-9)


def test_maximize_each_prices_an_unbounded_probe_beside_vertex_probes():
    # From the phase-one vertex (the origin) -x1 and -x2 need no pivot,
    # +x1 is unbounded and +x2 pivots once.
    constraints = [([0.0, 1.0], 1.0, "<=")]
    objectives = [-np.eye(2)[0], np.eye(2)[0], -np.ones(2), np.eye(2)[1], -np.eye(2)[1]]
    each = _check_maximize_each(constraints, [None] * 2, objectives)
    assert [res.status for res in each] == [
        "optimal", "unbounded", "optimal", "optimal", "optimal"
    ]
    assert each[3].x.tolist() == [0.0, 1.0]


def test_maximize_each_returns_independent_solutions():
    first, second, third = maximize_each(
        [([1.0, 1.0], 1.0, "<=")], [1.0] * 2, [-np.ones(2), np.zeros(2), -np.ones(2)]
    )
    first.x[0] = 99.0
    assert second.x.tolist() == [0.0, 0.0]
    assert third.x.tolist() == [0.0, 0.0]
