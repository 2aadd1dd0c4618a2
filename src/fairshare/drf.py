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

from .model import ProblemInstance, usages

__all__ = ["DrfResult", "solve_drf"]


@dataclass(frozen=True, eq=False)
class DrfResult:
    x: np.ndarray
    dominant_shares: np.ndarray  # x_i * d_i per user
    saturating_resource: int | None  # first resource to reach capacity
    utilizations: np.ndarray
    share_level: float  # final common level s


def solve_drf(inst: ProblemInstance) -> DrfResult:
    """Maximal common share level such that every resource stays within capacity.

    Between cap events usage is linear in s, so each segment's saturation
    level solves in closed form; the scan walks the (at most N) cap
    breakpoints instead of bisecting. Users requesting nothing are granted
    x_i = 1 outright; users with zero entitlement receive nothing.
    """
    r = inst.requirements
    e = inst.entitlements
    n = inst.n_users
    d = r.max(axis=1)

    rate = np.zeros(n)  # dx_i/ds while uncapped
    active = d > 0.0
    rate[active] = e[active] / d[active]
    x = np.zeros(n)
    x[~active] = 1.0  # nothing requested: fully satisfied, loads nothing

    # Cap breakpoints: s at which x_i reaches 1.
    caps = np.full(n, np.inf)
    caps[rate > 0.0] = 1.0 / rate[rate > 0.0]
    order = [int(i) for i in np.argsort(caps) if np.isfinite(caps[i])]

    s = 0.0
    capped = np.zeros(n, dtype=bool)
    capped[~active] = True
    saturating: int | None = None
    pos = 0
    while True:
        base = np.where(capped, x, 0.0) @ r
        slope = (np.where(capped, 0.0, rate)) @ r
        s_next_cap = caps[order[pos]] if pos < len(order) else np.inf
        s_saturate = np.inf
        j_saturate: int | None = None
        for j in range(inst.n_real_resources):
            if slope[j] > 0.0:
                sj = (1.0 - base[j]) / slope[j]
                if sj < s_saturate - 1e-15:
                    s_saturate = sj
                    j_saturate = j
        if s_saturate <= s_next_cap:
            s = s_saturate if np.isfinite(s_saturate) else s
            saturating = j_saturate
            break
        if pos >= len(order):
            break
        i = order[pos]
        s = float(s_next_cap)
        x[i] = 1.0
        capped[i] = True
        pos += 1

    x = np.where(capped, x, np.minimum(1.0, s * rate))
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
        share_level=float(s),
    )
