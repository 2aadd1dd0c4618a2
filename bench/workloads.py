"""Seeded inputs for the benchmark, generated without calling fairshare.

Every workload is a fixed list of operations. An operation is a plain
(entitlements, requirements) pair plus what the checker should expect of the
answer; nothing here imports the program, so no change to the program can
change a workload. The same seed always gives the same arrays.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as F

import numpy as np

WORKLOADS = ("small", "ladder", "enumerate")

# Worked instances from the package documentation, entered as exact rationals.
FIXTURES: dict[str, tuple[list, list]] = {
    "greedy3": (
        [F(1, 2), F(3, 8), F(1, 8)],
        [[F(1, 2), F(1, 2), F(2, 3)], [F(1, 2), F(5, 8), F(1, 2)], [1, 1, F(1, 3)]],
    ),
    "drf_compare": (
        [F(1, 3), F(1, 3), F(1, 3)],
        [[1, F(1, 5)], [1, F(1, 5)], [F(2, 5), F(4, 5)]],
    ),
    "utilization": (
        [F(1, 2), F(1, 2)],
        [[F(1, 2), 0, 0, 1], [1, 1, 1, 0]],
    ),
    "slope2": ([F(2, 5), F(3, 5)], [[F(2, 3)], [F(2, 3)]]),
    "nonunique_n3": (
        [F(1, 2), F(3, 10), F(1, 5)],
        [[1, 1], [0, 1], [1, 0]],
    ),
    "circle4": (
        [F(1, 4)] * 4,
        [[1, 1, 0, 1], [1, 1, 1, 0], [0, 1, 1, 1], [1, 0, 1, 1]],
    ),
    "elim_example": (
        [F(1, 2), F(1, 5), F(3, 10)],
        [[F(2, 5), F(3, 10)], [F(1, 2), F(3, 5)], [F(9, 20), F(7, 10)]],
    ),
}

# Ladder sizes (users, resources, instances per pass): from 5x5 to 60x30,
# with the ROADMAP's 20x10, 20x40 and 60x30. Neighbouring sizes overlap in
# cost, so the median and the tail latency fall inside a dense run of
# operations instead of at a jump between two sizes.
LADDER = (
    (5, 5, 5),
    (8, 5, 5),
    (10, 8, 5),
    (12, 10, 5),
    (15, 10, 4),
    (20, 10, 4),
    (15, 15, 3),
    (25, 15, 3),
    (20, 20, 3),
    (30, 15, 2),
    (40, 20, 2),
    (20, 40, 2),
    (60, 30, 2),
)

# Separates the random streams of the workloads for one --seed.
_STREAM = {name: k for k, name in enumerate(WORKLOADS)}


@dataclass(frozen=True, eq=False)
class Op:
    """One operation: solve (or enumerate) one instance."""

    name: str
    kind: str  # "solve" | "enumerate"
    entitlements: np.ndarray
    requirements: np.ndarray
    fixture: str | None = None


def fixture_arrays(name: str) -> tuple[np.ndarray, np.ndarray]:
    e, r = FIXTURES[name]
    return (
        np.array([float(v) for v in e]),
        np.array([[float(v) for v in row] for row in r]),
    )


def draw(rng: np.random.Generator, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Entitlements uniform on [0.1, 1] and normalised; requests uniform on
    [0, 1], with every column whose total demand is below 1 scaled up to 1."""
    e = rng.uniform(0.1, 1.0, n)
    e = e / e.sum()
    r = rng.uniform(0.0, 1.0, (n, m))
    sums = r.sum(axis=0)
    return e, r / np.minimum(sums, 1.0)


def build(workload: str, seed: int) -> list[Op]:
    """The fixed operation list of ``workload`` for ``seed``."""
    if workload not in _STREAM:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([seed % 2**64, _STREAM[workload]])
    kind = "enumerate" if workload == "enumerate" else "solve"
    ops: list[Op] = []
    if workload == "small":
        # The acceptance suite's shape cycle: N = 1..5, m' = 1..5.
        for k in range(200):
            n, m = 1 + k % 5, 1 + (k * 7) % 5
            ops.append(Op(f"rand{k}-{n}x{m}", kind, *draw(rng, n, m)))
    elif workload == "ladder":
        for n, m, count in LADDER:
            for k in range(count):
                ops.append(Op(f"{n}x{m}-{k}", kind, *draw(rng, n, m)))
    else:
        # Every shape N, m' <= 4. The costly ones (N * m' >= 12, hundreds of
        # ms each) get two instances and the rest three, so that with circle4
        # only seven operations stand above the tail percentile's cut and the
        # tail is read among many mid-sized enumerations.
        for n in range(1, 5):
            for m in range(1, 5):
                for k in range(2 if n * m >= 12 else 3):
                    ops.append(Op(f"rand{k}-{n}x{m}", kind, *draw(rng, n, m)))
    if workload != "ladder":
        for name in FIXTURES:
            ops.append(Op(name, kind, *fixture_arrays(name), fixture=name))
    return ops
