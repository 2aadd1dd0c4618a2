import numpy as np
import pytest

from fairshare import eg
from fairshare.fixtures import FIXTURES, load_fixture
from fairshare.model import ProblemInstance
from fairshare.oracle import random_instance


@pytest.fixture(scope="session")
def large_instance():
    """A 400-user, 100-resource random instance with about 30% zero requests."""
    rng = np.random.default_rng(1)
    e = rng.random(400)
    r = rng.random((400, 100)) * (rng.random((400, 100)) > 0.3)
    return ProblemInstance(entitlements=e / e.sum(), requirements=r)


@pytest.fixture(scope="session")
def medium_instances():
    """Three random instances at each of 10x8, 20x10, 20x40, 40x20 and 60x30,
    with about 30% zero requests."""
    rng = np.random.default_rng(77)
    cases = []
    for n, m in [(10, 8), (20, 10), (20, 40), (40, 20), (60, 30)]:
        for _ in range(3):
            e = rng.uniform(0.1, 1.0, n)
            r = rng.uniform(0.0, 1.0, (n, m)) * (rng.random((n, m)) < 0.7)
            cases.append(ProblemInstance(entitlements=e / e.sum(), requirements=r))
    return cases


def _draw(rng, n, m):
    e = rng.uniform(0.1, 1.0, n)
    r = rng.uniform(0.0, 1.0, (n, m))
    return e / e.sum(), r / np.minimum(r.sum(axis=0), 1.0)


@pytest.fixture(scope="session")
def draw():
    """``draw(rng, n, m)``: entitlements uniform on [0.1, 1] and normalised;
    requests uniform on [0, 1], with every column whose total demand is
    below 1 scaled up to 1 (the benchmark's ``draw``)."""
    return _draw


def _tiny_entitlement_draws(count):
    values = [1e-20, 1e-50, 1e-100, 1e-200, 1e-300, 1e-310, 5e-324, 0.0]
    rng = np.random.default_rng(100)
    cases = []
    for _ in range(count):
        n, m = int(rng.integers(2, 7)), int(rng.integers(1, 7))
        e = rng.uniform(0.0, 1.0, n)
        swap = rng.random(n) < 0.4
        e[swap] = rng.choice(values, int(swap.sum()))
        r = rng.uniform(0.0, 1.0, (n, m)) * (rng.random((n, m)) >= 0.3)
        cases.append(ProblemInstance(entitlements=e / e.sum(), requirements=r))
    return cases


@pytest.fixture(scope="session")
def tiny_entitlement_draws():
    """``tiny_entitlement_draws(count)``: the first ``count`` draws of 2-6
    users by 1-6 resources whose entitlements, uniform on [0, 1], are each
    replaced with probability 0.4 by one of 1e-20 ... 5e-324 or 0, then
    renormalised; requests uniform on [0, 1] with 30% zeros."""
    return _tiny_entitlement_draws


@pytest.fixture(scope="session")
def suite_and_fixtures():
    """The 200-instance acceptance suite, then the fixtures by name."""
    return [
        random_instance(1000 + seed, 1 + seed % 5, 1 + (seed * 7) % 5)
        for seed in range(200)
    ] + [load_fixture(name) for name in sorted(FIXTURES)]


@pytest.fixture(scope="session")
def allocation_cases():
    """(instance, allocation) pairs for checking the loop-free checks against
    per-user reference loops: 80 random draws, half of them on a grid of
    halves and quarters so that shares tie exactly, with rows that request
    nothing, allocations scaled onto a saturated column or left below every
    capacity, and fully allocated users; then circle4 at the symmetric point
    (every user ties on three bottlenecks) and greedy3 at (1, 2/3, 0), where
    user 2 complains with a non-bottleneck support."""
    rng = np.random.default_rng(8)
    cases = []
    for trial in range(80):
        n, m = int(rng.integers(1, 8)), int(rng.integers(1, 6))
        grid = trial % 2 == 0
        if grid:
            r = rng.integers(0, 3, (n, m)) / 2.0
            x = rng.integers(0, 5, n) / 4.0
        else:
            r = rng.uniform(0.0, 1.0, (n, m)) * (rng.random((n, m)) < 0.7)
            x = rng.uniform(0.0, 1.0, n)
        r[rng.random(n) < 0.15] = 0.0
        e = rng.integers(1, 4, n) / 1.0 if grid else rng.uniform(0.0, 1.0, n)
        load = float((x @ r).max())
        if trial % 5 != 4 and load > 0.0:
            x = np.minimum(1.0, x / load)
        inst = ProblemInstance(entitlements=e / e.sum(), requirements=r)
        cases.append((inst, x))
    cases.append((load_fixture("circle4"), np.full(4, 1 / 3)))
    cases.append((load_fixture("greedy3"), np.array([1.0, 2 / 3, 0.0])))
    return cases


@pytest.fixture
def without_the_face_exit(monkeypatch):
    """``solve_eg`` with every face declined, those of one and two columns
    included: the plain interior point's answer at the iteration cap, and
    the arguments of the last face it declined, the face of the iterate
    where it stopped (None where the empty face certified before any
    iteration)."""

    solve_eg = eg.solve_eg

    def run(e, r):
        attempts = []
        with monkeypatch.context() as patch:
            patch.setattr(eg, "_face", lambda *args: attempts.append(args))
            patch.setattr(eg, "_few_columns", lambda *args: None)
            x, p, status = solve_eg(e, r)
        return x, p, status, attempts[-1] if attempts else None

    return run
