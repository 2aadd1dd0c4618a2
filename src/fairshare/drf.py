"""Entitlement-weighted dominant-resource-fairness comparator.

Water-fills a common share level s with x_i = min(1, s * e_i / d_i), where
d_i is user i's largest request over the real resources, until some resource
saturates or every user is capped. With equal entitlements this reproduces
the classic equalize-the-dominant-share allocation; weights enter through
e_i. Used for side-by-side reports against the bottleneck-fair solver.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eg import water_fill
from .model import ProblemInstance, usages

__all__ = ["DrfResult", "solve_drf"]


@dataclass(frozen=True, eq=False)
class DrfResult:
    x: np.ndarray
    dominant_shares: np.ndarray  # x_i * d_i per user
    saturating_resource: int | None  # first resource to reach capacity
    utilizations: np.ndarray


def solve_drf(inst: ProblemInstance) -> DrfResult:
    """Maximal common share level such that every resource stays within capacity.

    With rate_i = e_i / d_i, column j carries sum_i r_ij min(1, rate_i s),
    the column that ``eg.water_fill`` fills at the price p = 1 / s with
    weights rate_i r_ij. Each column that can saturate is filled once, in
    O(N) per round; the highest-priced one saturates first and binds, and
    x_i = rate_i / max(rate_i, p) = min(1, rate_i / p), a quotient that cannot
    overflow where p is subnormal. Users requesting nothing are granted x_i = 1
    outright; users with zero entitlement receive nothing.
    """
    r = inst.requirements
    d = r.max(axis=1)
    active = d > 0.0
    ra = r[active]
    rate = inst.entitlements[active] / d[active]
    price, saturating = 0.0, None
    everyone = np.ones(rate.size, dtype=bool)
    for j in np.flatnonzero((rate > 0.0) @ ra >= 1.0):
        fill = water_fill(rate * ra[:, j], ra[:, j], everyone)
        if fill is not None and fill[0] > price:
            price, saturating = fill[0], int(j)
    x = np.ones(inst.n_users)  # nothing requested: fully satisfied, loads nothing
    x[active] = rate / np.maximum(rate, price) if saturating is not None else rate > 0.0
    shares = x * d
    u = usages(inst, x)
    x.setflags(write=False)
    shares.setflags(write=False)
    u.setflags(write=False)
    return DrfResult(
        x=x,
        dominant_shares=shares,
        saturating_resource=saturating,
        utilizations=u,
    )
