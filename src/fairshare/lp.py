"""Dense two-phase simplex for small box-bounded linear programs.

Problems in this library have at most a couple of dozen variables and
constraints, so a plain tableau with Bland's anti-cycling rule is exact
enough and keeps basic (vertex) solutions, which the enumeration oracle
relies on. Relations are "<=" or "=="; encode a >= row by negating it.

Phase one does not see the objective, so ``maximize_each`` runs it once,
prices every objective against its basis in one pass, and runs phase two,
on a copy of the tableau, only for an objective with an improving column;
the others end at the phase-one vertex. ``maximize`` is its one-objective
case, and each result equals a separate solve bitwise. The tableau is
filled with one array operation. A pivot is one rank-1 update of the whole
tableau (a row with a zero factor subtracts an exact zero, so every entry
gets the value a row-by-row update gives it). Bland's entering scan runs in
numpy; the ratio test is one Python loop over the entering column and the
right-hand side as lists, the same IEEE divisions a vectorized one makes.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Constraint",
    "LinearProgram",
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
class LinearProgram:
    """maximize objective @ x subject to constraints and per-variable bounds."""

    objective: np.ndarray
    constraints: tuple[Constraint, ...]
    bounds: tuple[tuple[float, float | None], ...]

    def __post_init__(self) -> None:
        obj = np.asarray(self.objective, dtype=float)
        n = obj.shape[0]
        rows = []
        for coeffs, rhs, rel in self.constraints:
            coeffs = np.asarray(coeffs, dtype=float)
            if coeffs.shape != (n,):
                raise ValueError("constraint dimension does not match the objective")
            if rel not in ("<=", "=="):
                raise ValueError(f"unsupported relation {rel!r}")
            rows.append((coeffs, float(rhs), rel))
        bounds = tuple((float(lo), None if hi is None else float(hi)) for lo, hi in self.bounds)
        if len(bounds) != n:
            raise ValueError("bounds length does not match the objective")
        for lo, hi in bounds:
            if hi is not None and lo > hi:
                raise ValueError("lower bound exceeds upper bound")
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "constraints", tuple(rows))
        object.__setattr__(self, "bounds", bounds)


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


def maximize(lp: LinearProgram) -> LpResult:
    """Solve the LP to optimality; infeasible/unbounded are return states."""
    return maximize_each(lp, [lp.objective])[0]


def maximize_each(lp: LinearProgram, objectives: Sequence[np.ndarray]) -> list[LpResult]:
    """Maximize each objective over ``lp``'s feasible set (its own objective
    is not used). Entry k equals ``maximize`` of the LP with objective k."""
    n = lp.objective.shape[0]
    objectives = [np.asarray(c, dtype=float) for c in objectives]
    if any(c.shape != (n,) for c in objectives):
        raise ValueError("objective dimension does not match the constraints")
    if not objectives:
        return []
    lo = np.array([b[0] for b in lp.bounds])

    # Shift variables so every lower bound is zero; finite upper bounds
    # become rows x_j <= h - l. A row with a negative right-hand side is
    # negated: a "<=" row turns ">=", with slack -1 and an artificial.
    shift = lo.any()
    rows = [(rel, b - float(c @ lo) if shift else b) for c, b, rel in lp.constraints]
    upper = [(j, h - l) for j, (l, h) in enumerate(lp.bounds) if h is not None]
    mc, m = len(rows), len(rows) + len(upper)
    n_slack = len(upper) + sum(rel == "<=" for rel, _ in rows)
    art_rows = [i for i, (rel, b) in enumerate(rows) if rel == "==" or b < 0.0]
    total = n + n_slack + len(art_rows)
    T = np.zeros((m + 1, total + 1))
    if mc:
        signs = np.array([[-1.0 if b < 0.0 else 1.0] for _, b in rows])
        np.multiply([c for c, _, _ in lp.constraints], signs, out=T[:mc, :n])
    T[:m, -1] = [abs(b) for _, b in rows] + [h for _, h in upper]
    basis = [-1] * m
    s = n
    for i, (rel, b) in enumerate(rows):
        if rel == "<=":
            T[i, s] = -1.0 if b < 0.0 else 1.0
            basis[i] = s
            s += 1
    for i, (j, _) in enumerate(upper, mc):
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
    start = _vertex(T, basis, lo)
    for objective, row, pivots in zip(objectives, Z, improving):
        if not pivots:
            x = start.copy()
        else:
            T2, basis2 = T.copy(), basis.copy()
            T2[-1] = row
            if _run_simplex(T2, basis2, n + n_slack) == "unbounded":
                results.append(LpResult("unbounded", None, None))
                continue
            x = _vertex(T2, basis2, lo)
        results.append(LpResult("optimal", float(objective @ x), x))
    return results


def _vertex(T: np.ndarray, basis: list[int], lo: np.ndarray) -> np.ndarray:
    """The basic solution of tableau ``T``, shifted back by ``lo``."""
    y = np.zeros(T.shape[1] - 1)
    y[basis] = T[:-1, -1]
    return y[: lo.shape[0]] + lo
