"""The Eisenberg-Gale program, solved by a primal-dual interior point.

The barrier trajectory of ``solver.integrate_trajectory`` satisfies
x_i * sum_j r_ij / s_j = kappa * e_i, which is the stationarity condition of
max sum_i e_i log x_i + (1/kappa) sum_j log s_j. The trajectory is therefore
the central path of the Eisenberg-Gale program

    maximize  sum_i e_i log x_i   subject to  sum_i x_i r_ij <= 1  for all j,

and its limit is the program's optimum (unique when every e_i > 0; the
artificial unit columns of a lifted instance supply x_i <= 1). The optimum's
KKT prices p >= 0 vanish off saturated columns and satisfy
x_i (R p)_i = e_i, so every user short of x_i = 1 holds at least their
entitlement on some priced, hence saturated, column: no justified
complaints (Eisenberg & Gale 1959).

The interior point keeps x, the slacks s and the prices p positive and
drives the primal residual 1 - x R - s, the complementarity p s and the
stationarity residual e / x - R p to zero together. Eliminating ds and dp
reduces each Newton step to one N x N symmetric positive definite system,
diag(e / x^2) + R diag(p / s) R^T.
"""
from __future__ import annotations

import numpy as np

from .model import LiftedInstance

__all__ = ["solve_eg"]

_MAX_ITERATIONS = 100  # 11-30 iterations on the test and benchmark instances
# Stop once complementarity and primal infeasibility are below the first
# and the per-user relative stationarity residual |x_i (R p)_i - e_i| / e_i
# is below the second. Pushing further buys nothing: where a saturated column
# carries no price the Newton step's round-off grows like eps / sqrt(mu).
_COMPLEMENTARITY_TOL = 1e-11
_STATIONARITY_TOL = 1e-10
_STEP_TO_BOUNDARY = 0.99


def solve_eg(inst: LiftedInstance) -> tuple[np.ndarray, np.ndarray, str]:
    """Optimum ``x`` of the Eisenberg-Gale program on ``inst``, its prices
    ``p`` (one per column) and a stop flag.

    The flag is "optimal", "iteration_limit" when the iteration cap is
    reached, or "singular" when a Newton system cannot be solved; in the
    last two cases the current iterate is returned. Users with e_i = 0 are
    left out of the program and get x_i = 0, the trajectory's answer for
    them.
    """
    e_all = inst.entitlements
    n, m = inst.requirements.shape
    x_all = np.zeros(n)
    users = e_all > 0.0
    if not users.any():
        return x_all, np.zeros(m), "optimal"
    e = e_all[users]
    r = inst.requirements[users]
    k = e.shape[0]

    # Infeasible start: x, s and p need only be positive. The optimum's
    # prices sum to about 1 (sum_j p_j (1 - s_j) = sum_i e_i = 1), so start
    # there, with x meeting the stationarity equations x_i (R p)_i = e_i.
    # The iterate (x, s, p) and the step (dx, ds, dp) are views into one
    # buffer each, so the ratio test and the update act on z and dz whole.
    z = np.empty(k + 2 * m)
    dz = np.empty_like(z)
    x, s, p = z[:k], z[k : k + m], z[k + m :]
    dx, ds, dp = dz[:k], dz[k : k + m], dz[k + m :]
    p[:] = 1.0 / m
    x[:] = e / (r @ p)
    s[:] = 1.0
    status = "iteration_limit"
    for _ in range(_MAX_ITERATIONS):
        dual = e / x - r @ p
        primal = 1.0 - x @ r - s
        comp = p * s
        relative = float((np.abs(x * dual) / e).max())
        if (
            max(comp.max(), np.abs(primal).max()) <= _COMPLEMENTARITY_TOL
            and relative <= _STATIONARITY_TOL
        ):
            status = "optimal"
            break
        # The stationarity equations are nonlinear in x, so the centering
        # weight never drops below their relative residual: a user whose
        # residual lags would otherwise be left behind as mu shrinks (with
        # entitlements spanning eight decades, one user then stalls at
        # relative residual 1).
        sigma = min(1.0, max(0.1, relative))
        centering = (sigma * (float(comp.sum()) / m) - comp) / s
        d = p / s
        hess = (r * d) @ r.T
        hess.flat[:: k + 1] += e / (x * x)
        try:
            dx[:] = np.linalg.solve(hess, dual + r @ (d * primal - centering))
        except np.linalg.LinAlgError:
            status = "singular"
            break
        dp[:] = d * (dx @ r - primal) + centering
        ds[:] = (centering - dp) * s / p
        if not np.isfinite(dz).all():
            status = "singular"
            break
        # One step length for all three, since the stationarity equations
        # couple x and p nonlinearly.
        shrinking = dz < 0.0
        step = 1.0
        if shrinking.any():
            step = min(step, _STEP_TO_BOUNDARY * float((z[shrinking] / -dz[shrinking]).min()))
        z += step * dz
    x_all[users] = x
    return x_all, p, status
