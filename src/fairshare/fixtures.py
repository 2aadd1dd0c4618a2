"""Bundled worked instances, entered as exact rationals.

These small instances exercise every interesting regime: a single saturated
resource, competing saturation candidates, users granted in full beside
others, and families of equally fair answers. They back the test suite and
are available to the CLI by name in place of a file path.
"""
from __future__ import annotations

from fractions import Fraction as F

from .model import ProblemInstance

__all__ = ["FIXTURES", "fixture_names", "load_fixture"]


def _instance(entitlements, requirements) -> ProblemInstance:
    return ProblemInstance(
        entitlements=[float(v) for v in entitlements],
        requirements=[[float(v) for v in row] for row in requirements],
    )


_SPECS: dict[str, tuple[list, list]] = {
    # Three users, three resources; shows why granting users one at a time
    # paints the allocator into a corner.
    "greedy3": (
        [F(1, 2), F(3, 8), F(1, 8)],
        [
            [F(1, 2), F(1, 2), F(2, 3)],
            [F(1, 2), F(5, 8), F(1, 2)],
            [F(1, 1), F(1, 1), F(1, 3)],
        ],
    ),
    # Two users dominant on resource 1, one on resource 2; the bottleneck
    # answer and the dominant-share answer differ.
    "drf_compare": (
        [F(1, 3), F(1, 3), F(1, 3)],
        [
            [F(1, 1), F(1, 5)],
            [F(1, 1), F(1, 5)],
            [F(2, 5), F(4, 5)],
        ],
    ),
    # Two users, four resources; utilization comparison with two middle
    # resources used by only one user.
    "utilization": (
        [F(1, 2), F(1, 2)],
        [
            [F(1, 2), F(0), F(0), F(1, 1)],
            [F(1, 1), F(1, 1), F(1, 1), F(0)],
        ],
    ),
    # Single shared resource, both users request 2/3; the unique fair split
    # for entitlements (0.4, 0.6) is x = (0.6, 0.9).
    "slope2": (
        [F(2, 5), F(3, 5)],
        [
            [F(2, 3)],
            [F(2, 3)],
        ],
    ),
    # Three users, two resources; both resources saturate and a whole segment
    # (z, 1-z, 1-z), 0.5 <= z <= 0.7, is fair.
    "nonunique_n3": (
        [F(1, 2), F(3, 10), F(1, 5)],
        [
            [F(1), F(1)],
            [F(0), F(1)],
            [F(1), F(0)],
        ],
    ),
    # Four users and resources in a ring; each user wants its own resource
    # and its neighbors'. Distinct fair answers saturate distinct subsets.
    "circle4": (
        [F(1, 4), F(1, 4), F(1, 4), F(1, 4)],
        [
            [F(1), F(1), F(0), F(1)],
            [F(1), F(1), F(1), F(0)],
            [F(0), F(1), F(1), F(1)],
            [F(1), F(0), F(1), F(1)],
        ],
    ),
    # User 1 requests below its 0.5 entitlement everywhere, so it is granted
    # outright; the survivors' entitlements renormalize to (0.4, 0.6) and the
    # resource-1 requests scale by 5/3.
    "elim_example": (
        [F(1, 2), F(1, 5), F(3, 10)],
        [
            [F(2, 5), F(3, 10)],
            [F(1, 2), F(3, 5)],
            [F(9, 20), F(7, 10)],
        ],
    ),
}

FIXTURES: dict[str, ProblemInstance] = {
    name: _instance(e, r) for name, (e, r) in _SPECS.items()
}


def fixture_names() -> list[str]:
    return sorted(FIXTURES)


def load_fixture(name: str) -> ProblemInstance:
    try:
        return FIXTURES[name]
    except KeyError:
        raise KeyError(
            f"unknown fixture {name!r}; available: {', '.join(fixture_names())}"
        ) from None
