import numpy as np

from fairshare.eg import solve_eg
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


def test_interior_point_meets_the_kkt_conditions_beyond_five_users(large_instance):
    # The same four bounds as on the acceptance suite, on reduced random
    # instances from 10x8 to 60x30 and on the 400x100 instance.
    rng = np.random.default_rng(77)
    cases = []
    for n, m in [(10, 8), (20, 10), (20, 40), (40, 20), (60, 30)]:
        for _ in range(3):
            e = rng.uniform(0.1, 1.0, n)
            r = rng.uniform(0.0, 1.0, (n, m)) * (rng.random((n, m)) < 0.7)
            cases.append(ProblemInstance(entitlements=e / e.sum(), requirements=r))
    cases.append(large_instance)
    for inst in cases:
        reduced, _ = preprocess(inst)
        assert reduced.n_users > 0
        x, p, status = solve_eg(reduced)
        assert status == "optimal"
        min_price, complementarity, overshoot, stationarity = _kkt_residuals(reduced, x, p)
        assert min_price >= 0.0
        assert complementarity <= 1e-9
        assert overshoot <= 1e-9
        assert stationarity <= 1e-9
