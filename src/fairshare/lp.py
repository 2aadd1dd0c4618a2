"""Dense two-phase simplex for small linear programs over x >= 0.

Problems in this library have at most a couple of dozen variables and
constraints, so a plain tableau with Bland's anti-cycling rule is exact
enough and keeps basic (vertex) solutions, which the enumeration oracle
relies on. A program is a list of rows ``(coefficients, rhs, relation)``,
where the relation is "<=" or "==" (encode a >= row by negating it), and one
upper bound per variable, None for none; every variable is nonnegative.

Phase one does not see the objective, so ``maximize_each`` runs it once,
prices every objective against its basis in one pass, and runs phase two,
on a copy of the tableau, only for an objective with an improving column;
the others end at the phase-one vertex. ``maximize`` is ``maximize_each``
of one objective, and each result equals a separate solve bitwise. The
tableau is filled with one array operation. A pivot is one rank-1 update
of the whole tableau (a row with a zero factor subtracts an exact zero, so
every entry gets the value a row-by-row update gives it). Bland's entering
scan runs in numpy; the ratio test is one Python loop over the entering
column and the right-hand side as lists, the same IEEE divisions a
vectorized one makes.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Constraint",
    "LpResult",
    "PHASE_ONE_TOL",
    "SimplexIterationLimit",
    "maximize",
    "maximize_each",
]

_PIVOT_TOL = 1e-11
_MAX_ITER = 10_000
# Phase one declares the system infeasible when the least sum of the
# artificial variables it reaches exceeds this.
PHASE_ONE_TOL = 1e-8

Constraint = tuple[np.ndarray, float, str]  # (coefficients, rhs, "<=" or "==")


@dataclass(frozen=True, eq=False)
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: float | None
    x: np.ndarray | None
    infeasibility: float = 0.0  # phase one's least artificial sum, if "infeasible"


class SimplexIterationLimit(RuntimeError):
    """The simplex made ``_MAX_ITER`` pivots without terminating."""


def _pivot(T: np.ndarray, basis: list[int], row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col, None].copy()
    factors[row] = 0.0
    T -= factors * T[row]
    basis[row] = col


def _run_simplex(T: np.ndarray, basis: list[int], ncols: int) -> str:
    """Pivot until the objective row has no positive reduced cost (maximize).

    The objective row is T[-1, :ncols]; Bland's rule picks the lowest-index
    entering column and the lowest-index basic variable on ratio ties, which
    guarantees termination.
    """
    m = T.shape[0] - 1
    for _ in range(_MAX_ITER):
        improving = T[-1, :ncols] > _PIVOT_TOL
        enter = int(improving.argmax())
        if not improving[enter]:
            return "optimal"
        leave = -1
        best_ratio = np.inf
        for i, (a, b) in enumerate(zip(T[:m, enter].tolist(), T[:m, -1].tolist())):
            if a > _PIVOT_TOL:
                ratio = b / a
                if ratio < best_ratio - _PIVOT_TOL or (
                    abs(ratio - best_ratio) <= _PIVOT_TOL
                    and (leave < 0 or basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            return "unbounded"
        _pivot(T, basis, leave, enter)
    raise SimplexIterationLimit(
        f"simplex iteration limit exceeded ({_MAX_ITER} pivots)"
    )


def maximize(
    objective: np.ndarray, constraints: Sequence[Constraint], upper: Sequence[float | None]
) -> LpResult:
    """Solve the LP to optimality; infeasible/unbounded are return states."""
    return maximize_each(constraints, upper, [objective])[0]


def maximize_each(
    constraints: Sequence[Constraint],
    upper: Sequence[float | None],
    objectives: Sequence[np.ndarray],
) -> list[LpResult]:
    """Maximize each objective subject to ``constraints``, ``x >= 0`` and
    ``x_j <= upper[j]`` (no bound where ``upper[j]`` is None). Entry k equals
    ``maximize`` of objective k."""
    n = len(upper)
    objectives = [np.asarray(c, dtype=float) for c in objectives]
    if any(c.shape != (n,) for c in objectives):
        raise ValueError("objective dimension does not match the bounds")
    for coeffs, _, rel in constraints:
        if np.shape(coeffs) != (n,):
            raise ValueError("constraint dimension does not match the bounds")
        if rel not in ("<=", "=="):
            raise ValueError(f"unsupported relation {rel!r}")
    caps = [(j, float(h)) for j, h in enumerate(upper) if h is not None]
    if not all(h >= 0.0 for _, h in caps):  # written so that NaN fails too
        raise ValueError("an upper bound is negative or NaN")
    if not objectives:
        return []

    # Finite upper bounds become rows x_j <= h. A row with a negative
    # right-hand side is negated: a "<=" row turns ">=", with slack -1 and
    # an artificial.
    rows = [(rel, float(b)) for _, b, rel in constraints]
    mc, m = len(rows), len(rows) + len(caps)
    n_slack = len(caps) + sum(rel == "<=" for rel, _ in rows)
    art_rows = [i for i, (rel, b) in enumerate(rows) if rel == "==" or b < 0.0]
    total = n + n_slack + len(art_rows)
    T = np.zeros((m + 1, total + 1))
    if mc:
        signs = np.array([[-1.0 if b < 0.0 else 1.0] for _, b in rows])
        np.multiply([c for c, _, _ in constraints], signs, out=T[:mc, :n])
    T[:m, -1] = [abs(b) for _, b in rows] + [h for _, h in caps]
    basis = [-1] * m
    s = n
    for i, (rel, b) in enumerate(rows):
        if rel == "<=":
            T[i, s] = -1.0 if b < 0.0 else 1.0
            basis[i] = s
            s += 1
    for i, (j, _) in enumerate(caps, mc):
        T[i, j] = T[i, s] = 1.0
        basis[i] = s
        s += 1
    for a, i in enumerate(art_rows, s):
        T[i, a] = 1.0
        basis[i] = a

    # Phase one: maximize -(sum of artificials).
    if art_rows:
        T[-1, n + n_slack : total] = -1.0
        for i in art_rows:
            T[-1] += T[i]
        status = _run_simplex(T, basis, total)
        # The corner cell carries -z; an infeasible system leaves the
        # artificial sum positive, i.e. a positive corner cell.
        if status != "optimal" or T[-1, -1] > PHASE_ONE_TOL:
            return [LpResult("infeasible", None, None, float(T[-1, -1])) for _ in objectives]
        # Drive leftover artificials out of the basis; a row with no
        # eligible pivot is redundant and can safely keep its zero-valued
        # artificial (its coefficients on real columns are all ~0).
        for i in range(m):
            if basis[i] >= n + n_slack:
                eligible = np.flatnonzero(np.abs(T[i, : n + n_slack]) > _PIVOT_TOL)
                if eligible.size:
                    _pivot(T, basis, i, int(eligible[0]))

    # Phase two. Every objective is expressed in the feasible basis at once,
    # one basic row at a time as a single-objective restore would; only a
    # basic real variable can carry a nonzero cost, and other rows would
    # subtract exact zeros. Only objectives with an improving column pivot.
    Z = np.zeros((len(objectives), total + 1))
    Z[:, :n] = objectives
    for i, col in enumerate(basis):
        if col < n:
            Z -= Z[:, col, None] * T[i]
    Z[:, n + n_slack : total] = -np.inf  # artificials never re-enter
    improving = (Z[:, : n + n_slack] > _PIVOT_TOL).any(axis=1).tolist()

    results = []
    start = _vertex(T, basis, n)
    for objective, row, pivots in zip(objectives, Z, improving):
        if not pivots:
            x = start.copy()
        else:
            T2, basis2 = T.copy(), basis.copy()
            T2[-1] = row
            if _run_simplex(T2, basis2, n + n_slack) == "unbounded":
                results.append(LpResult("unbounded", None, None))
                continue
            x = _vertex(T2, basis2, n)
        results.append(LpResult("optimal", float(objective @ x), x))
    return results


def _vertex(T: np.ndarray, basis: list[int], n: int) -> np.ndarray:
    """The first ``n`` coordinates (the real variables) of tableau ``T``'s
    basic solution."""
    y = np.zeros(T.shape[1] - 1)
    y[basis] = T[:-1, -1]
    return y[:n]
