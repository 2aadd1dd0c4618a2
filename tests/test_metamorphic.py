"""Metamorphic relations on ``solve`` at sizes no oracle reaches.

``enumerate_solutions`` refuses N or m' above 6, and no reference answer
exists at N in the thousands. There, ``solve`` is checked against itself:
each test changes an instance in a way that must leave the Eisenberg-Gale
optimum unchanged, or change it in a known way, and compares the two
answers. Every answer must verify, and every one except those on an
instance with a repeated column must end on a certified face; repeated
columns make the face system singular, so such an answer may come from the
interior point instead.
"""
import numpy as np
import pytest

from fairshare.model import ProblemInstance
from fairshare.solver import solve

# Stated before measuring, and never to be loosened: the largest change in
# any x_i that a relation allows.
BOUND = 1e-9

SEEDS = range(3)


def _draw(rng, n, m):
    """Entitlements uniform on [0.1, 1] and normalised; requests uniform on
    [0, 1], with every column whose total demand is below 1 scaled up to 1
    (the benchmark's ``draw``)."""
    e = rng.uniform(0.1, 1.0, n)
    r = rng.uniform(0.0, 1.0, (n, m))
    return e / e.sum(), r / np.minimum(r.sum(axis=0), 1.0)


def _answer(e, r, certified=True):
    res = solve(ProblemInstance(entitlements=e, requirements=r))
    assert res.report.passed
    if certified:
        assert res.polish_applied
    return res.report.allocation


@pytest.fixture(
    scope="module", params=[(2000, 8), (1000, 200)], ids=lambda s: f"{s[0]}x{s[1]}"
)
def answered(request):
    """Per seed: the seed of the relation's own choices, the instance's
    arrays and its answer."""
    n, m = request.param
    cases = []
    for seed in SEEDS:
        e, r = _draw(np.random.default_rng([seed, n, m]), n, m)
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
        y = _answer(e, np.hstack([r, r[:, [j]]]), certified=False)
        assert np.max(np.abs(y - x)) <= BOUND


def test_a_column_that_cannot_saturate_leaves_the_answer_unchanged(answered):
    for seed, e, r, x in answered:
        rng = np.random.default_rng(seed)
        slack = rng.uniform(0.0, 1.0, r.shape[0])
        y = _answer(e, np.column_stack([r, 0.5 * slack / slack.sum()]))
        assert np.max(np.abs(y - x)) <= BOUND
