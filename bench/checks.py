"""Correctness checks computed from the instance arrays alone.

Nothing here calls fairshare: capacity and the no-justified-complaints
condition are evaluated in numpy, and the worked examples are compared with
the answers stated for them, so a fault in the program's own verifier cannot
hide a wrong answer.
"""
from __future__ import annotations

import numpy as np

CAPACITY_TOL = 1e-9  # overshoot allowed on a resource, and on x_i in [0, 1]
NJC_TOL = 1e-6  # slack on "saturated" and on "received the entitlement"
ANSWER_TOL = 1e-5  # distance allowed from a stated answer

# Unique fair allocations stated for the worked examples.
STATED_ANSWERS = {
    "drf_compare": (1 / 3, 1 / 3, 5 / 6),
    "slope2": (0.6, 0.9),
    "utilization": (1.0, 0.5),
}


def complaining_users(e: np.ndarray, r: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Users who get less than everything and less than their entitlement on
    every saturated resource: those with a justified complaint."""
    saturated = x @ r >= 1.0 - NJC_TOL
    entitled = x[:, None] * r >= e[:, None] - NJC_TOL
    justified = (entitled & saturated[None, :]).any(axis=1)
    return np.flatnonzero(~justified & (x < 1.0 - NJC_TOL))


def fairness_problems(e: np.ndarray, r: np.ndarray, x) -> list[str]:
    """Why ``x`` is not a fair allocation of (e, r); empty when it is."""
    x = np.asarray(x, dtype=float)
    if x.shape != e.shape or not np.all(np.isfinite(x)):
        return [f"allocation of shape {x.shape} is not {e.shape} finite values"]
    problems = []
    if x.min() < -CAPACITY_TOL or x.max() > 1.0 + CAPACITY_TOL:
        problems.append(f"allocation leaves [0, 1]: min {x.min():.3g}, max {x.max():.3g}")
    excess = x @ r - 1.0
    if excess.max() > CAPACITY_TOL:
        j = int(np.argmax(excess))
        problems.append(f"resource {j + 1} over capacity by {excess[j]:.3g}")
    for i in complaining_users(e, r, x):
        problems.append(f"user {i + 1} has a justified complaint")
    return problems


def stated_answer_problems(fixture: str | None, x) -> list[str]:
    """Differences from the answer stated for a worked example."""
    x = np.asarray(x, dtype=float)
    if fixture in STATED_ANSWERS:
        want = np.array(STATED_ANSWERS[fixture])
        if np.max(np.abs(x - want)) > ANSWER_TOL:
            return [f"{fixture}: {x.tolist()} is not the stated {want.tolist()}"]
    elif fixture == "nonunique_n3":
        # The fair answers form the segment (z, 1-z, 1-z), 0.5 <= z <= 0.7.
        z = x[0]
        on_line = np.max(np.abs(x[1:] - (1.0 - z))) <= ANSWER_TOL
        if not (on_line and 0.5 - ANSWER_TOL <= z <= 0.7 + ANSWER_TOL):
            return [f"{fixture}: {x.tolist()} is off the segment (z, 1-z, 1-z)"]
    return []


def check(op, output) -> list[str]:
    """Problems with one operation's output: a solve's allocation, or an
    enumeration's list of witnesses (which must not be empty)."""
    allocations = [output] if op.kind == "solve" else list(output)
    if not allocations:
        return ["enumeration found no fair allocation, though one always exists"]
    problems = []
    for x in allocations:
        problems += fairness_problems(op.entitlements, op.requirements, x)
        problems += stated_answer_problems(op.fixture, x)
    return problems
