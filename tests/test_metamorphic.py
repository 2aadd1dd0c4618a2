"""Metamorphic relations on ``solve`` at sizes no oracle reaches.

``enumerate_solutions`` refuses N or m' above 6, and no reference answer
exists at N in the thousands. There, ``solve`` is checked against itself:
each test changes an instance in a way that must leave the Eisenberg-Gale
optimum unchanged, or change it in a known way, and compares the two
answers. Every answer must verify and end on a certified face.
"""
import numpy as np
import pytest

from fairshare.model import ProblemInstance
from fairshare.solver import solve

# Stated before measuring, and never to be loosened: the largest change in
# any x_i that a relation allows.
BOUND = 1e-9

SEEDS = range(3)


def _answer(e, r):
    res = solve(ProblemInstance(entitlements=e, requirements=r))
    assert res.report.passed
    assert res.polish_applied
    return res.report.allocation


@pytest.fixture(
    scope="module", params=[(2000, 8), (1000, 200)], ids=lambda s: f"{s[0]}x{s[1]}"
)
def answered(request, draw):
    """Per seed: the seed of the relation's own choices, the instance's
    arrays and its answer."""
    n, m = request.param
    cases = []
    for seed in SEEDS:
        e, r = draw(np.random.default_rng([seed, n, m]), n, m)
        cases.append((seed, e, r, _answer(e, r)))
    return cases


def test_permuting_users_and_columns_permutes_the_answer(answered):
    for seed, e, r, x in answered:
        rng = np.random.default_rng(seed)
        users = rng.permutation(r.shape[0])
        cols = rng.permutation(r.shape[1])
        y = _answer(e[users], r[users][:, cols])
        assert np.max(np.abs(y - x[users])) <= BOUND


def test_a_user_who_requests_nothing_gets_everything_and_moves_no_one(answered):
    for _, e, r, x in answered:
        y = _answer(np.append(0.9 * e, 0.1), np.vstack([r, np.zeros(r.shape[1])]))
        assert y[-1] == 1.0
        assert np.max(np.abs(y[:-1] - x)) <= BOUND


def test_a_duplicated_column_leaves_the_answer_unchanged(answered):
    for seed, e, r, x in answered:
        rng = np.random.default_rng(seed)
        j = int(rng.integers(r.shape[1]))
        y = _answer(e, np.hstack([r, r[:, [j]]]))
        assert np.max(np.abs(y - x)) <= BOUND


def test_a_column_that_cannot_saturate_leaves_the_answer_unchanged(answered):
    for seed, e, r, x in answered:
        rng = np.random.default_rng(seed)
        slack = rng.uniform(0.0, 1.0, r.shape[0])
        y = _answer(e, np.column_stack([r, 0.5 * slack / slack.sum()]))
        assert np.max(np.abs(y - x)) <= BOUND


def test_a_column_strictly_implied_by_two_others_leaves_the_answer_unchanged(answered):
    # Dominance: 0.95 (theta r_j + (1 - theta) r_k) saturates only after
    # columns j or k overrun, so no answer prices it or fills it.
    for seed, e, r, x in answered:
        rng = np.random.default_rng(seed)
        j, k = rng.choice(r.shape[1], 2, replace=False)
        theta = rng.uniform(0.2, 0.8)
        at = int(rng.integers(r.shape[1] + 1))
        implied = 0.95 * (theta * r[:, j] + (1.0 - theta) * r[:, k])
        wider = np.insert(r, at, implied, axis=1)
        res = solve(ProblemInstance(entitlements=e, requirements=wider))
        assert res.report.passed
        assert res.polish_applied
        assert at not in res.report.bottlenecks
        assert np.max(np.abs(res.report.allocation - x)) <= BOUND


def test_removing_a_user_and_their_share_leaves_the_rest_unchanged(answered):
    # Consistency (Thomson, Rev. Econ. Design 15, 2011): take user i out
    # with x_i r_i, scale each column to the capacity c_j = 1 - x_i r_ij that
    # is left, and renormalise the rest's entitlements. The rest's optimum
    # is x without user i. A row that then exceeds 1 is divided by its
    # largest entry alpha_k, which turns x_k into alpha_k x_k and adds the cap
    # x_k <= 1 / alpha_k that capacity already implies.
    for seed, e, r, x in answered:
        rng = np.random.default_rng(seed)
        for i in rng.choice(r.shape[0], 3, replace=False):
            rest = np.arange(r.shape[0]) != i
            c = 1.0 - x[i] * r[i]
            # A column that user i alone saturates holds no request of the
            # rest, as every x_k > 0, and is dropped rather than divided by.
            left = c > 0.0
            assert not r[rest][:, ~left].any()
            scaled = r[rest][:, left] / c[left]
            alpha = np.maximum(scaled.max(axis=1), 1.0)
            y = _answer(e[rest] / e[rest].sum(), scaled / alpha[:, None])
            assert np.max(np.abs(y / alpha - x[rest])) <= BOUND


def test_users_entitled_to_nothing_move_no_entitled_user_by_one_bit(draw):
    # Users entitled to nothing are settled after the entitled users'
    # program, on its answer, so appending them leaves every entitled user's
    # allocation bitwise unchanged. One who requests nothing gets 1, one who
    # requests only saturated columns gets 0, and one who requests half of
    # the column with the most room gets that room.
    e, r = draw(np.random.default_rng([0, 2000, 300]), 2000, 300)
    x = _answer(e, r)
    u = x @ r
    saturated = u >= 1.0 - 1e-6
    j = int(u.argmin())
    rows = np.zeros((3, r.shape[1]))
    rows[1, saturated] = 0.5
    rows[2, j] = 0.5
    y = _answer(np.append(e, np.zeros(3)), np.vstack([r, rows]))
    np.testing.assert_array_equal(y[:-3], x)
    assert y[-3] == 1.0
    assert y[-2] == 0.0
    assert abs(y[-1] - (1.0 - u[j]) / 0.5) <= BOUND
