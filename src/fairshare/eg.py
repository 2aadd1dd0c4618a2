"""The Eisenberg-Gale program, solved by an interior point on its prices.

The barrier trajectory of ``solver.integrate_trajectory`` satisfies
x_i * sum_j r_ij / s_j = kappa * e_i, which is the stationarity condition of
max sum_i e_i log x_i + (1/kappa) sum_j log s_j. The trajectory is therefore
the central path of the Eisenberg-Gale program

    maximize  sum_i e_i log x_i   subject to  x R <= 1,  x <= 1,

and its limit is the program's optimum (unique when every e_i > 0). The
optimum's prices p >= 0 vanish off saturated columns, and every user short
of x_i = 1 pays x_i (R p)_i = e_i, so they hold at least their entitlement
on some priced, hence saturated, column: no justified complaints (Eisenberg
& Gale 1959). The optimum is the equilibrium of a Leontief Fisher market
(Codenotti & Varadarajan, ICALP 2004), and its m column prices fix it.

Eliminating x and the multipliers of x <= 1 from the Lagrangian leaves a
convex program in the prices alone (Cole et al., EC 2017):

    minimize  phi(p) = sum_j p_j + sum_i h_i((R p)_i)   over p >= 0,

with h_i(u) = -u for u <= e_i and -e_i - e_i log(u / e_i) beyond. Its
gradient is the column slack s(p) = 1 - x(p) R at the allocation
x_i(p) = min(1, e_i / (R p)_i), and its Hessian is R^T diag(w) R with
w_i = e_i / (R p)_i^2 for users short of 1 and 0 for the full users, those
with (R p)_i <= e_i. A primal-dual interior point on (p, lambda), where
lambda stands in for s, solves one m x m system R^T W R + diag(lambda / p)
per step, and takes 0.99 of the longest step that keeps p and lambda
positive, as in Mehrotra's method (SIAM J. Optim. 2, 1992). That system is
positive definite, so its direction descends the convex barrier function
phi(p) - mu sum_j log p_j; a backtracking line search on that function
keeps the step where w jumps as a user turns full. It runs only where
u + step du > e differs from u > e; elsewhere each h_i keeps its branch,
(R p)_i being linear in the step, and the function is smooth. The skip
rests on a record, not a proof: run at every step, the search halved only
at such crossings on the suite, the benchmark's programs of seeds 1-10
(no halving) and 400 degenerate draws (84 halvings). On 400 draws with
normal entitlements down to 1e-301 it also halves without one in 14, and
ends 5 more at the iteration cap (377 certify with the skip, 372 without).
The start is a measured point, as in Mehrotra's rule:
p = (R^T e / sum_j (R^T e)_j + 1/m) / 2 > 0 sums to 1 = sum_i e_i,
the bound on the optimum's prices below. Six damped tatonnement steps p <-
max(p (x(p) R), p / 2) follow, a mirror descent on phi in a Leontief
Fisher market (Cheung, Cole & Devanur, Games Econ. Behav. 123, 2020), two
O(Nm) products each; as a step at most halves a price, p stays > 0 on a
column no entitled user requests. Of 0-12 steps, 6 took the fewest linear
solves on ladder (4.92 per program, 6.50 at 0) of those that verify all 400
tiny-entitlement draws. lambda = max(s(p), 1e-3) is the slack
on columns with room and 1e-3 on the rest; of floors 1e-1 to 1e-6, 1e-3
took the fewest face passes before the steps. Each step aims at mu = 0.1
p . lambda / m (Wright, Primal-Dual Interior-Point Methods, 1997, ch. 5).

The interior point does not run its barrier down to the end. Once an
iterate sees the same tight columns A = {j : lambda_j < p_j} as the one
before it, Newton solves the face equations x_i (R_A p_A)_i = e_i for the
users short of 1 and (x R)_A = 1, with the full users F = {i : (R p)_i <=
e_i} read off the iterate's prices on A and held at x_i = 1; a column that
only full users request is left out of A, as no price on it enters the
equations. Eliminating x leaves one |A| x |A| system R_A^T diag(x / (R_A
p_A)) R_A per Newton step. Its rank is at most the number of users short
of 1, so a face with more distinct columns than that is declined before it
is factorised. Where repeated columns make it singular, the least-norm step
splits one price among them; a face singular otherwise, or whose step is
not finite, as a subnormal (R p)_i can make it, is declined. Each step's
right-hand side is the fill residual x(p) . r_j - 1 on the face columns, at
x = x(p) itself; Newton's linearised x enters only as the Hessian's weight.
The loop stops on that residual alone, and ``solve_eg`` returns (x(p), p)
at the last prices if it carries the certificate: every face column filled
to within 1e-15; p_A >= 0; usage at most 1 + 1e-11 on every column; and the
same F read off those prices, so that x(p) keeps the full users at 1. Here
and in stage 2, a fill x . r_j is tested against 1 within 1e-15 by its
float64 sum where ``_float64_decides`` finds its error bound settles the
test, else by ``_fill_residual``, whatever order BLAS sums in. A try stops
at the first Newton step that prices a column below zero, as such tries
nearly always fail: those columns leave A, and the next try starts from
the prices this one began with, so p_A >= 0 holds by construction. A face
that fails on an overrun column or a changed F is repaired: the overrun
columns join A, and F is read again. This is finite termination by a
certified crossover (Ye, Math. Programming 57, 1992; Wright, Primal-Dual
Interior-Point Methods, 1997, ch. 7).

``solve_eg`` runs four stages, each of 2-3 only where the one before declines:

1. The empty face p = 0 certifies x = 1 where every user fits at once.
2. The faces of one or two columns, from the most-demanded column j. Where
   j is the only bottleneck, every user short of 1 gets a one-price
   weighted water-fill of j, as under DRF. The optimum's prices sum to at
   most sum_i e_i, as sum_j p_j (x R)_j = sum_i x_i (R p)_i and x_i (R p)_i
   is e_i short of 1 and at most e_i at x_i = 1, and so does j's
   water-filled price, as the fill sum_i min(r_ij, e_i / sum_k e_k) at p_j
   = sum_k e_k is at most 1. ``water_fill`` prices j from the only users
   that can be short, those with r_ij sum_k e_k > e_i. Where x(p) overruns
   more than three columns, the stage declines; x(p) is at least x_i =
   min(1, e_i / (r_ij sum_k e_k)), so no O(Nm) bound there declines sooner.
   Where x(p) overruns other columns, at most three, the most overrun one k
   joins j: the face is {j, k}, or {k}. Over the short set S, x_i (R p)_i =
   e_i gives p_j c_j + p_k c_k = E_S = sum_S e_i where both columns fill, c
   being the capacity the full users leave: p_j = (1 - t) E_S / c_j and p_k
   = t E_S / c_k for a t in [0, 1], and the two fills collapse into F(t) =
   sum_S e_i r_ik / (E_S (a_i + b_i t)) - 1 = 0, a_i = r_ij c_k / c_j, b_i
   = r_ik - a_i, convex on (0, 1) (see ``_root``). S starts as the users
   who can be short and is read again until it holds, at most 8 times. If
   x(p) then fits every column and fills each priced one to within 1e-15,
   the point carries the certificate as it is (x is x(p), p > 0 on the
   face, and the full users are read off p); where only a fill misses, face
   Newton on the priced columns finishes it, and where x(p) still overruns
   columns, face Newton on the priced and the overrun columns, from the
   pair's prices.
   The stage settles 1,574 of small's 2,070 programs (seeds 1-10) and 125
   of ladder's 450; 524 and 90 of them price two or more columns, and face
   Newton finishes 51 and 25.
3. Tatonnement, then the interior point and its face exit, for the rest:
   2% of small's programs and 72% of ladder's.
4. The users entitled to nothing, or to less than float64's smallest
   normal number, 2.2e-308, left out of stages 1-3, are settled last on the
   entitled users' answer (see ``solve_eg``).
"""
from __future__ import annotations

import math

import numpy as np

from .model import DEFAULT_TOLERANCES

__all__ = ["solve_eg", "water_fill"]

_MAX_ITERATIONS = 100  # 1.6 (small) to 2.7 (ladder) steps precede a face, on average
_STEP_TO_BOUNDARY = 0.99
_START_SHARE = 0.5  # the starting p's share of the demand-weighted prices
_START_SLACK = 1e-3  # the floor of the starting lambda
_TATONNEMENT = 6  # damped price steps before the interior point
_CENTERING = 0.1  # sigma, the share of p . lambda / m each step aims at
# Armijo's sufficient-decrease fraction and the halvings it may take.
_ARMIJO = 1e-4
_BACKTRACKS = 30
# Face Newton converges in one or two steps from near the face's optimum.
_FACE_NEWTON_ITERATIONS = 6
_FACE_NEWTON_TOL = 1e-15
# Capacity tolerance of the certificate, on every column and on A.
_CAPACITY_TOL = 1e-11
# A face is tried, then cut or repaired at most twice.
_FACE_TRIES = 3
# Stage 2 declines where more than 3 columns overrun: a cut at 2 left 76 of
# small's 2,070 programs to stage 3, against 42, and took longer; one at 4
# left 41 and took no less time.
_OVERRUNS = 3
# Stage 2 reads the pair's S up to 8 times (1.06 on small) and takes up to
# 30 steps per root (3.8); a Halley step below 1e-6 t leaves about 1e-18 t,
# and ends it.
_PAIR_ROUNDS = 8
_PAIR_STEPS = 30
_PAIR_STOP = 1e-6
# A root's F is summed on Python floats up to 24 users of S, and by numpy
# above: the measured crossover (see _root).
_PAIR_GATE = 24
_EXTENDED = np.finfo(np.longdouble).nmant >= 63  # x86's 80 bits, or IEEE quad
_NORMAL = np.finfo(float).tiny  # an entitlement below it counts as none


def _largest(v: np.ndarray) -> float:
    """The largest entry of the non-empty ``v``, or NaN if it holds one.
    argmax is a plain method, cheaper on the short vectors here than the
    reduction that max runs."""
    return float(v[v.argmax()])


def _smallest(v: np.ndarray) -> float:
    """The smallest entry of the non-empty ``v``, or NaN if it holds one."""
    return float(v[v.argmin()])


def _change(e, u, v, du, dp, q, step, mu) -> float:
    """phi(p + step dp) - mu sum log(p + step dp) less the same at p, with
    u = R p, v = max(u, e), du = R dp and q = dp / p. Each term is formed
    from the step itself, never as the difference of two function values,
    so the change keeps its relative accuracy where it is many decades
    below phi."""
    t = step * du
    gap = e - u
    shrink = np.minimum(t, gap) - np.minimum(0.0, gap)  # change in min(u, e)
    return float(
        step * np.add.reduce(dp)
        - np.add.reduce(shrink)
        - e.dot(np.log1p((t - shrink) / v))
        - mu * np.add.reduce(np.log1p(step * q))
    )


def _float64_decides(worst: float, n: int) -> bool:
    """Whether ``worst``, the largest |d_j| of float64's fill residuals over
    n users, decides the test max_j |rho_j| <= 1e-15 in any BLAS order.

    d_j = fl(s - fl(1 - t)), s and t BLAS sums of x_i r_ij over the users
    short of 1 and of r_ij over the rest (or t = 0). n terms >= 0 summed in
    any order are off by at most gamma_n = n u / (1 - n u) of their sum, u
    = 2^-53 (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., ch. 3). As |1 - t| <= S + |rho| + gamma_n T and each subtraction
    rounds once, |d - rho| <= g (f_j + |rho|) <= g (1 + 2 |d| + 2 |d -
    rho|) with g = gamma_{n+2}: a bound g (1 + 2 |d|) / (1 - 2 g) that
    grows with |d|, so ``worst`` decides where it lies further than that
    from 1e-15."""
    g = (n + 2) * 2.0**-53 / (1.0 - (n + 2) * 2.0**-53)
    return abs(worst - _FACE_NEWTON_TOL) > g * (1.0 + 2.0 * worst) / (1.0 - 2.0 * g)


def _fill_residual(x, r):
    """rho_j = f_j - 1 for the fill f_j = x . r_j of each column of ``r``
    (x, r >= 0; a scalar where ``r`` is 1-D), within u (|rho_j| + f_j + 1)
    in any BLAS summation order, for the tests ``_float64_decides`` leaves.
    The products are formed in long double (unit <= 2^-64) and summed by
    dots over blocks of 1024 users, then pairwise, less 1: each term takes
    at most 1025 + log2 n roundings, u (f_j + 1) in all for n < 2^1000.
    Where long double is float64, math.fsum rounds the float64 products (u
    f_j in all) and -1 once (Shewchuk, Discrete Comput. Geom. 18, 1997)."""
    if not _EXTENDED:
        sums = [math.fsum(np.append(c, -1.0).data) for c in np.atleast_2d(x * r.T)]
        return np.reshape(sums, r.shape[1:])
    xl = x.astype(np.longdouble)
    s = [xl[i : i + 1024].dot(r[i : i + 1024]) for i in range(0, x.size, 1024)]
    while len(s) > 1:
        s = [a + b for a, b in zip(s[::2], s[1::2])] + s[len(s) // 2 * 2 :]
    return (s[0] - 1.0).astype(float)


# A subnormal (R p)_i overflows the Hessian's weight x_i / (R p)_i; the step
# is then not finite, and the face is declined without a warning.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _face(
    e: np.ndarray, r: np.ndarray, a: np.ndarray, p: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """Face Newton on the columns ``a`` from the prices ``p`` >= 0: the point
    ``(x(p), p)`` at its last prices if it carries the certificate, else
    None. The arguments are not modified."""
    for _ in range(_FACE_TRIES):
        u = r.compress(a, axis=1).dot(p[a])
        full = u <= e
        short = ~full
        a = a & (short.dot(r) > 0.0)
        ra = r.compress(a, axis=1)
        rs, es, pa = ra[short], e[short], p[a]
        xs = es / u[short]  # Newton's linearised x, the Hessian's weight
        target = 1.0 - full.dot(ra)
        x = np.ones(e.size)
        residual, negative = np.inf, None
        for step in range(_FACE_NEWTON_ITERATIONS + 1):
            if not xs.size:  # no user short of 1: nothing to solve
                residual = 0.0
                break
            u = rs.dot(pa)
            if not _smallest(u) > 0.0:
                residual = np.inf
                break
            xp = es / u  # x(p) of the users short of 1
            x[short] = xp
            fill = xp.dot(rs) - target
            worst = _largest(np.abs(fill))
            if not _float64_decides(worst, e.size):
                fill = _fill_residual(x, ra)
                worst = _largest(np.abs(fill))
            previous, residual = residual, worst
            if (
                residual <= _FACE_NEWTON_TOL
                or not residual <= 0.5 * previous
                or step == _FACE_NEWTON_ITERATIONS
            ):
                break
            if rs.shape[1] > xs.size and len({c.tobytes() for c in rs.T}) > xs.size:
                break
            w = xs / u
            hess = (rs.T * w).dot(rs)
            try:
                dp = np.linalg.solve(hess, fill)
            except np.linalg.LinAlgError:
                if len({c.tobytes() for c in rs.T}) == rs.shape[1]:
                    break
                dp = np.linalg.lstsq(hess, fill, rcond=None)[0]
            if not math.isfinite(_largest(np.abs(dp))):
                break
            xs = xp - w * rs.dot(dp)
            pa = pa + dp
            if _smallest(pa) < 0.0:
                negative = pa < 0.0
                break
        if negative is not None:
            a[a] = ~negative
            continue
        if not residual <= _FACE_NEWTON_TOL:
            return None
        p = np.zeros(p.size)
        p[a] = pa
        usage = x.dot(r)
        if (
            _largest(usage) <= 1.0 + _CAPACITY_TOL
            and (r.dot(p) <= e).tobytes() == full.tobytes()
        ):
            return x, p
        # Repair the face: drop the columns priced at zero, add the columns
        # that overrun, and read F off the new point.
        a = (p > 0.0) | (usage > 1.0 + _CAPACITY_TOL)
    return None


def solve_eg(
    e: np.ndarray, r: np.ndarray, eps_bottleneck: float = DEFAULT_TOLERANCES.eps_bottleneck
) -> tuple[np.ndarray, np.ndarray, str]:
    """Optimum ``x`` of the Eisenberg-Gale program with entitlements ``e``
    and requests ``r`` (N x m), its prices ``p`` (one per column) and a stop
    flag.

    On the entitled users x is always x(p) = min(1, e / (R p)), the
    allocation of the returned prices. The flag is "optimal" exactly when
    that pair carries a face's certificate, "iteration_limit" when the
    iteration cap is reached, or "singular" when a Newton system cannot be
    solved; in the last two cases p are the interior point's last prices.

    Under the paper's rule any bottleneck justifies a user with e_i = 0, so
    what such users get is chosen here and nowhere else, after the program
    of the entitled users. An entitlement below float64's smallest normal
    number, 2.2e-308, counts as none: float64 cannot weigh it, as e_i r_ij,
    e_i / (R p)_i and the Hessian weight e_i / u_i^2 underflow, lose their
    bits or overflow; and ``verify`` sees such a user as entitled to nothing
    whenever eps_njc >= 2.2e-308, as any bottleneck then justifies them.
    These users get x_i = 1 if they request nothing; for the k
    who request only columns with room, usage below 1 - ``eps_bottleneck``
    (the caller's tolerance), a share of that room in one more program, each
    entitled to 1/k with requests scaled by 1 / (1 - usage), which leaves
    each of them at 1 or on a column it saturates; and x_i = 0, pinned by a
    saturated column, for the rest. ``p`` holds the entitled users' prices;
    the flag is the last program's where theirs is "optimal".
    """
    if not e.size or _smallest(e) >= _NORMAL:
        return _solve(e, r)
    users = e >= _NORMAL
    requests = r.any(axis=1)
    x = np.where(requests, 0.0, 1.0)
    x[users], p, status = _solve(e[users], r[users])
    usage = x.dot(r)
    room = ~(usage >= 1.0 - eps_bottleneck)
    tier = requests & ~users & ~r[:, ~room].any(axis=1)
    if tier.any():
        k = int(tier.sum())
        x[tier], _, tier_status = _solve(
            np.full(k, 1.0 / k), r[np.ix_(tier, room)] / (1.0 - usage[room])
        )
        if status == "optimal":
            status = tier_status
    return x, p, status


def water_fill(
    w: np.ndarray, c: np.ndarray, short: np.ndarray
) -> tuple[float, np.ndarray] | None:
    """The price p > 0 at which users of weight ``w`` fill the column ``c``,
    sum_i min(c_i, w_i / p) = 1, and the short set {i : c_i p > w_i}; None
    where no positive price fills it. ``short`` must hold every user short
    at that price.

    p(S) = sum_S w_i / (1 - sum_{i not in S} c_i) solves the equation with S
    short and the rest full. It is at least the price wherever S holds the
    short users, since sum_{i not in S} c_i + sum_S w_i / p bounds sum_i
    min(c_i, w_i / p) from above. Each round keeps the users of S short at
    p(S), again such a set; a user full at p(S) stays full, since dropping
    such users only lowers p(S). The sets are nested, so the fill cannot
    cycle, even at subnormal prices, and it ends on the exact set within
    |S| + 1 rounds of O(N). Where the full users fill the column by
    themselves, as when its demand is exactly 1, the last price is
    returned. The free capacity is what the full users leave: adding the
    short users' requests back to 1 - sum_i c_i cancels on an overloaded
    column.
    """
    p = 0.0
    while True:
        free = 1.0 - c.dot(~short)
        if not free > 0.0:
            break
        p = w.dot(short) / free
        now = (c * p > w) & short
        if now.tobytes() == short.tobytes():
            break
        short = now
    return (p, short) if p > 0.0 else None


def _few_columns(
    e: np.ndarray, r: np.ndarray, j: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """The optimum if it prices the column ``j`` alone, or ``j`` and one
    other column ``k``, or ``k`` alone, or the face of that pair and the
    columns it overruns, else None: stage 2 of the module's docstring,
    finished by face Newton where a fill misses or the pair overruns."""
    rj = r[:, j]
    total = np.add.reduce(e)
    fill = water_fill(e, rj, rj * total > e)
    if fill is None:
        return None
    # The face is {k} where pj = 0, else {j, k}; j alone is {k} with k = j.
    k, pj, pk = j, 0.0, fill[0]
    u = rj * pk
    while True:
        x = e / np.maximum(u, e)
        usage = x.dot(r)
        over = int(usage.argmax())
        fits = not usage[over] > 1.0 + _CAPACITY_TOL
        if fits or k != j:
            break
        if over == j or np.count_nonzero(usage > 1.0 + _CAPACITY_TOL) > _OVERRUNS:
            return None
        k = over
        rk = r[:, k]
        short = np.maximum(rj, rk) * total > e
        t = 0.0
        for _ in range(_PAIR_ROUNDS):
            cj, ck = 1.0 - rj.dot(~short), 1.0 - rk.dot(~short)
            if not (cj > 0.0 and ck > 0.0):
                return None
            sj, sk, es = rj[short], rk[short], e[short]
            budget = np.add.reduce(es)
            a = sj * (ck / cj)
            # F(1) = 0 where every user of S requests k, and then 1 is the
            # root, k alone priced, where F'(1) <= 0: where x(p) at k's
            # price fits j.
            alone = _smallest(sk) > 0.0 and es.dot(1.0 - a / sk) >= 0.0
            t = 1.0 if alone else _root(a, sk - a, es / budget * sk, t)
            if t is None:
                return None
            pj, pk = (1.0 - t) * budget / cj, t * budget / ck
            u = rj * pj + rk * pk
            if (u > e).tobytes() == short.tobytes():
                break
            short = u > e
        else:
            return None
    p = np.zeros(r.shape[1])
    p[j], p[k] = pj, pk
    if not fits:  # the pair overruns more columns: they join its face
        return _face(e, r, (p > 0.0) | (usage > 1.0 + _CAPACITY_TOL), p)
    worst = abs(usage[k] - 1.0)
    if pj > 0.0:
        worst = max(worst, abs(usage[j] - 1.0))
    if not _float64_decides(worst, e.size):
        worst = _largest(np.abs(_fill_residual(x, r[:, p > 0.0])))
    return (x, p) if worst <= _FACE_NEWTON_TOL else _face(e, r, p > 0.0, p)


def _root(a, b, w, t):
    """The root on (0, 1) of F(t) = sum_i w_i / (a_i + b_i t) - 1 from ``t``,
    where each a_i + b_i t > 0, so F is convex, and F(1) <= 0: Halley steps
    inside the bracket F(lo) > 0 >= F(hi), bisection where a step leaves it;
    None where the bracket keeps lo = 0 through its 30 steps, as where F > 0
    nowhere or only below 2^-30, which 30 halvings of (0, 1] do not reach.

    F, -F' and F''/2 are formed in one pass over the terms: on Python floats
    up to _PAIR_GATE = 24 of them, F summed exactly by math.fsum over the
    terms and -1 (Shewchuk, Discrete Comput. Geom. 18, 1997), and by numpy
    above, which keeps a pass at O(1) calls however many terms there are.
    Best of 9 under one BLAS thread on an x86-64 VM, a numpy pass took
    4.6-5.1 us for 5 to 60 terms; the Python pass 1.0-1.5, 1.6, 3.1, 4.4,
    5.8 and 8.6 us at 5, 10, 20, 30, 40 and 60, after turning the arrays
    into (a_i, b_i, w_i) tuples once per root (0.9, 1.2, 2.0, 2.8, 3.6 and
    5.2 us). The pass costs cross near 30 terms, and a root of 3.8 passes
    near 25. Where a denominator rounds to 0, or the exact sum overflows,
    the step is numpy's, whose inf and NaN the bracket takes as they come."""
    if not (0.0 < t < 1.0 or (t == 0.0 and _smallest(a) > 0.0)):
        t = 0.5  # F has a pole at 0, or the last root is no start
    if a.size > _PAIR_GATE:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return _halley(a, b, w, t, None)
    return _halley(a, b, w, t, list(zip(a.tolist(), b.tolist(), w.tolist())))


def _halley(a, b, w, t, terms):
    """``_root``'s steps from ``t``, on the (a_i, b_i, w_i) ``terms`` as
    Python floats, or on the arrays where ``terms`` is None."""
    lo, hi = 0.0, 1.0
    for _ in range(_PAIR_STEPS):
        try:
            f, g, h = _terms(a, b, w, t, terms)
        except (ZeroDivisionError, OverflowError):
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                f, g, h = _terms(a, b, w, t, None)
        lo, hi = (t, hi) if f > 0.0 else (lo, t)
        nxt = 0.5 * (lo + hi)
        if g > 0.0:
            # Halley's divisor can round to 0 even where g^2 > f h, and f / 0
            # would raise.
            den = g - f * h / g if f > 0.0 and g * g > f * h else g
            step = f / den if den else math.inf
            if abs(step) <= _PAIR_STOP * t:
                return t + step
            if lo < t + step < hi:
                nxt = t + step
        if not lo < nxt < hi:
            break
        t = nxt
    return t if lo > 0.0 else None


def _terms(a, b, w, t, terms):
    """F(t), -F'(t) and F''(t)/2 for ``_root``, on the ``terms`` as Python
    floats (F summed exactly), or by numpy where ``terms`` is None."""
    if terms is None:
        d = a + b * t
        q, y = w / d, b / d
        return float(np.add.reduce(q)) - 1.0, float(q.dot(y)), float((q * y).dot(y))
    qs, g, h = [-1.0], 0.0, 0.0
    for ai, bi, wi in terms:
        d = ai + bi * t
        q = wi / d
        y = bi / d
        qs.append(q)
        qy = q * y
        g += qy
        h += qy * y
    return math.fsum(qs), g, h


def _solve(e: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, str]:
    n, m = r.shape
    demand = np.add.reduce(r)
    # The empty face: p = 0 certifies where every user fits at x = 1.
    if not m or demand[j := int(demand.argmax())] <= 1.0 + _CAPACITY_TOL:
        return np.ones(n), np.zeros(m), "optimal"
    # The faces of one or two columns, from the most-demanded column.
    finished = _few_columns(e, r, j)
    if finished is not None:
        return *finished, "optimal"
    weights = e.dot(r)
    p = _START_SHARE * weights / float(np.add.reduce(weights))
    p += (1.0 - _START_SHARE) / m
    for _ in range(_TATONNEMENT):
        p = p * np.maximum((e / np.maximum(r.dot(p), e)).dot(r), 0.5)
    u = r.dot(p)
    v = np.maximum(u, e)
    x = e / v
    s = 1.0 - x.dot(r)
    lam = np.maximum(s, _START_SLACK)
    status = "iteration_limit"
    face = b""  # the tight columns of the iterate before, as bytes
    for _ in range(_MAX_ITERATIONS):
        tight = lam < p
        current = tight.tobytes()
        if current == face and tight[tight.argmax()]:
            finished = _face(e, r, tight, p)
            if finished is not None:
                return *finished, "optimal"
        face = current
        mu = _CENTERING * float(p.dot(lam)) / m
        d = lam / p
        mup = mu / p
        # w_i = e_i / u_i^2 = x_i / u_i short of 1, and 0 for the full users.
        short = u > e
        hess = (r.T * (x / v * short)).dot(r)
        hess.reshape(-1)[:: m + 1] += d
        descent = mup - s
        try:
            dp = np.linalg.solve(hess, descent)
        except np.linalg.LinAlgError:
            status = "singular"
            break
        slope = -float(descent.dot(dp))
        if not math.isfinite(slope):
            status = "singular"
            break
        dlam = mup - lam - d * dp
        q = dp / p
        shrink = -min(_smallest(q), _smallest(dlam / lam))
        step = _STEP_TO_BOUNDARY / max(shrink, _STEP_TO_BOUNDARY)
        # Backtrack on the convex barrier function phi(p) - mu sum log p
        # where the step changes who is full.
        du = r.dot(dp)
        if (u + step * du > e).tobytes() != short.tobytes():
            for _ in range(_BACKTRACKS):
                if _change(e, u, v, du, dp, q, step, mu) <= _ARMIJO * step * slope:
                    break
                step *= 0.5
        p = p + step * dp
        lam = lam + step * dlam
        u = r.dot(p)
        v = np.maximum(u, e)
        x = e / v
        s = 1.0 - x.dot(r)
    # Finish on the face of the iterate where the interior point stopped.
    finished = _face(e, r, lam < p, p)
    if finished is not None:
        return *finished, "optimal"
    return x, p, status
