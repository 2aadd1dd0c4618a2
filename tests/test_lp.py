from itertools import combinations

import numpy as np
import pytest

from fairshare.lp import LinearProgram, maximize


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
    assert maximize(lp).status == "infeasible"


def test_unbounded_direction_detected():
    lp = LinearProgram(
        objective=[1.0, 0.0],
        constraints=[([0.0, 1.0], 1.0, "<=")],
        bounds=[(0.0, None), (0.0, None)],
    )
    assert maximize(lp).status == "unbounded"


def _feasibility(constraints, bounds):
    """Pure feasibility question: maximize a zero objective."""
    lp = LinearProgram(np.zeros(len(bounds)), tuple(constraints), tuple(bounds))
    return maximize(lp)


def test_feasible_empty_system_returns_box_point():
    res = _feasibility([], [(0.0, 1.0)] * 3)
    assert res.status == "optimal"
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
    assert _feasibility(rows, [(0.0, 1.0)]).status == "infeasible"


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


def test_optimizer_feasibility_and_value_consistency_random():
    rng = np.random.default_rng(42)
    for trial in range(30):
        n = 3
        n_rows = rng.integers(1, 5)
        rows = rng.uniform(-1.0, 1.0, (n_rows, n))
        rhs = rng.uniform(0.2, 1.5, n_rows)
        bounds = [(0.0, 1.0)] * n
        objective = rng.uniform(-1.0, 1.0, n)
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
        x_feas = rng.uniform(0.1, 0.9, n)
        eq = rng.uniform(0.2, 1.0, n)
        eq_rhs = float(eq @ x_feas)
        n_rows = rng.integers(1, 4)
        rows = rng.uniform(0.0, 1.0, (n_rows, n))
        rhs = rows @ x_feas + rng.uniform(0.05, 0.5, n_rows)
        bounds = [(0.0, 1.0)] * n
        objective = rng.uniform(-1.0, 1.0, n)
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
