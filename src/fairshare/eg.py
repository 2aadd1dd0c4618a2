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

The interior point does not run its barrier down to the end. Its centering
floor cuts mu by at most 10x per iteration, yet the columns that will carry
the optimum's prices show up as the face A = {j : s_j < p_j} within two or
three iterations. Once an iterate sees the same nonempty A as the one
before it, ``face_newton`` solves the optimality equations restricted to A
from that iterate, and ``solve_eg`` returns the Newton point if it carries
the program's KKT certificate: face residual at most 1e-15, p_A >= 0,
x >= 0, capacity within the complementarity bound on every column and
relative stationarity within the stationarity bound for every user. The
converged Newton point of a face does not depend on where Newton starts, so
a face whose point fails the certificate would fail again: each face is
tried once until the iterate's face changes. A solve that never finishes
on a face takes exactly the interior-point iterates it would take without
this exit. This is finite termination by a certified crossover (Ye, Math.
Programming 57, 1992; Wright, Primal-Dual Interior-Point Methods, 1997,
ch. 7).

Where the interior point stops without such an exit, the face of the
iterate it stops at is tried once more. Newton from an early iterate can
miss a face's point by stopping after six steps or on a step that fails to
halve the residual; from the converged iterate, next to that point, it
rarely does, so an "optimal" answer is nearly always a certified face
point. ``solve_eg`` reports whether it is.
"""
from __future__ import annotations

import numpy as np

from .model import LiftedInstance

__all__ = ["face_newton", "solve_eg"]

_MAX_ITERATIONS = 100  # about 3-5 on average with the face exit, 11-30 without
# Stop once complementarity and primal infeasibility are below the first
# and the per-user relative stationarity residual |x_i (R p)_i - e_i| / e_i
# is below the second. Pushing further buys nothing: where a saturated column
# carries no price the Newton step's round-off grows like eps / sqrt(mu).
_COMPLEMENTARITY_TOL = 1e-11
_STATIONARITY_TOL = 1e-10
_STEP_TO_BOUNDARY = 0.99
# Face Newton converges in one or two steps from a point near the face's
# optimum; its residual then sits at round-off (below 1e-15).
_FACE_NEWTON_ITERATIONS = 6
_FACE_NEWTON_TOL = 1e-15


def face_newton(
    e: np.ndarray, ra: np.ndarray, x: np.ndarray, pa: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Newton on the program's optimality equations restricted to a face A.

    ``ra`` holds the columns of A for users with e_i > 0, and the equations
    are x_i (R_A p_A)_i = e_i for each of these users and (x R_A)_j = 1 for
    each j in A. The Jacobian's x-block diag(R_A p_A) is diagonal, so each
    step eliminates dx and solves the |A| x |A| Schur complement
    R_A^T diag(x / (R_A p_A)) R_A for dp by least squares (a saturated
    column with zero price, more columns than users or repeated columns
    make it singular), then recovers dx.

    The residual is the larger of max_i |x_i (R_A p_A)_i - e_i| / (R_A p_A)_i,
    how far x_i lies from the value that meets its equation at these prices,
    and max_j |(x R_A)_j - 1|. Both are in units of x, so a user with a
    small price sum is held to the same accuracy as any other (a plain
    residual of 1e-15 leaves x_i up to 1e-15 / (R_A p_A)_i off).

    Stops at residual at most 1e-15, after six steps, after a step that
    fails to halve the residual, where an entry of R_A p_A is not positive
    (the residual is then inf, and nothing is divided by it) or where least
    squares raises. Returns the last point and its residual; the inputs are
    not modified.
    """
    residual = np.inf
    for step in range(_FACE_NEWTON_ITERATIONS + 1):
        rp = ra @ pa
        if not rp.min() > 0.0:
            residual = np.inf
            break
        r1 = x * rp - e
        r2 = x @ ra - 1.0
        previous, residual = residual, max((np.abs(r1) / rp).max(), np.abs(r2).max())
        if (
            residual <= _FACE_NEWTON_TOL
            or not residual <= 0.5 * previous
            or step == _FACE_NEWTON_ITERATIONS
        ):
            break
        schur = (ra.T * (x / rp)) @ ra
        try:
            dp = np.linalg.lstsq(schur, r2 - (r1 / rp) @ ra, rcond=None)[0]
        except np.linalg.LinAlgError:
            break
        x = x - (r1 + x * (ra @ dp)) / rp
        pa = pa + dp
    return x, pa, float(residual)


def _finish_on_face(
    e: np.ndarray, r: np.ndarray, x: np.ndarray, s: np.ndarray, p: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """Face Newton from the iterate ``(x, s, p)`` on its face
    A = {j : s_j < p_j}: the point and its prices if they carry the
    program's KKT certificate, else None."""
    face = s < p
    ra = r[:, face]
    # A user who requests nothing on the face cannot meet stationarity on it.
    if not (ra > 0.0).any(axis=1).all():
        return None
    x, pa, residual = face_newton(e, ra, x, p[face])
    if not (residual <= _FACE_NEWTON_TOL and pa.min() >= 0.0 and x.min() >= 0.0):
        return None
    prices = np.zeros_like(p)
    prices[face] = pa
    if not (
        (x @ r).max() <= 1.0 + _COMPLEMENTARITY_TOL
        and (np.abs(x * (r @ prices) - e) / e).max() <= _STATIONARITY_TOL
    ):
        return None
    return x, prices


def solve_eg(inst: LiftedInstance) -> tuple[np.ndarray, np.ndarray, str, bool]:
    """Optimum ``x`` of the Eisenberg-Gale program on ``inst``, its prices
    ``p`` (one per column), a stop flag and whether the answer is a face
    Newton point that carries the KKT certificate.

    The flag is "optimal" when the interior point converges or a face Newton
    point carries the certificate, "iteration_limit" when the iteration cap
    is reached, or "singular" when a Newton system cannot be solved; in the
    last two cases the current iterate is returned unless its face
    certifies. Users with e_i = 0 are left out of the program and get
    x_i = 0, the trajectory's answer for them.
    """
    e_all = inst.entitlements
    n, m = inst.requirements.shape
    x_all = np.zeros(n)
    users = e_all > 0.0
    if not users.any():
        return x_all, np.zeros(m), "optimal", False
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
    face = np.zeros(m, dtype=bool)
    tried = False
    finished = None
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
        # Try each face once it has held for two iterates in a row.
        current = s < p
        if not np.array_equal(current, face):
            face, tried = current, False
        elif not tried and face.any():
            tried = True
            finished = _finish_on_face(e, r, x, s, p)
            if finished is not None:
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
    if finished is None and (s < p).any():
        # Finish on the face of the iterate where the interior point
        # stopped, even if an earlier iterate's Newton failed on it.
        finished = _finish_on_face(e, r, x, s, p)
    if finished is None:
        x_all[users] = x
        return x_all, p, status, False
    x_all[users] = finished[0]
    return x_all, finished[1], "optimal", True
