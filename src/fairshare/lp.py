"""Dense two-phase simplex for small box-bounded linear programs.

Problems in this library have at most a couple of dozen variables and
constraints, so a plain tableau with Bland's anti-cycling rule is exact
enough and keeps basic (vertex) solutions, which the enumeration oracle
relies on. Relations are "<=" or "=="; encode a >= row by negating it.

Phase one does not see the objective, so ``maximize_each`` runs it once
and then phase two on a copy of the tableau for each objective;
``maximize`` is its one-objective case, and each result equals a separate
solve bitwise. A pivot is one rank-1 update of the whole tableau (a row
with a zero factor subtracts an exact zero, so every entry gets the value
a row-by-row update gives it), and Bland's scans pick their candidates
with numpy, leaving only the ratio-tie loop in Python.
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


class SimplexIterationLimit(RuntimeError):
    """The simplex made ``_MAX_ITER`` pivots without terminating."""


def _pivot(T: np.ndarray, basis: list[int], row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
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
        column = T[:m, enter]
        rows = np.nonzero(column > _PIVOT_TOL)[0]
        if rows.size == 0:
            return "unbounded"
        ratios = T[rows, -1] / column[rows]
        leave = -1
        best_ratio = np.inf
        for i, ratio in zip(rows.tolist(), ratios.tolist()):
            if ratio < best_ratio - _PIVOT_TOL or (
                abs(ratio - best_ratio) <= _PIVOT_TOL
                and (leave < 0 or basis[i] < basis[leave])
            ):
                best_ratio = ratio
                leave = i
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
    lo = np.array([b[0] for b in lp.bounds])

    # Shift variables so every lower bound is zero; finite upper bounds
    # become explicit rows.
    rows: list[tuple[np.ndarray, float, str]] = []
    for coeffs, rhs, rel in lp.constraints:
        rows.append((coeffs.copy(), rhs - float(coeffs @ lo), rel))
    for j, (l, h) in enumerate(lp.bounds):
        if h is not None:
            unit = np.zeros(n)
            unit[j] = 1.0
            rows.append((unit, h - l, "<="))

    m = len(rows)
    kinds: list[str] = []  # per row: "le", "ge" or "eq" after rhs sign fix
    A = np.zeros((m, n))
    b = np.zeros(m)
    for i, (coeffs, rhs, rel) in enumerate(rows):
        if rhs < 0.0:
            coeffs = -coeffs
            rhs = -rhs
            rel = {"<=": ">=", "==": "=="}[rel]
        A[i] = coeffs
        b[i] = rhs
        kinds.append({"<=": "le", ">=": "ge", "==": "eq"}[rel])

    n_slack = sum(1 for k in kinds if k in ("le", "ge"))
    n_art = sum(1 for k in kinds if k in ("ge", "eq"))
    total = n + n_slack + n_art
    T = np.zeros((m + 1, total + 1))
    T[:m, :n] = A
    T[:m, -1] = b

    basis = [-1] * m
    s = n
    a = n + n_slack
    art_cols: list[int] = []
    for i, kind in enumerate(kinds):
        if kind == "le":
            T[i, s] = 1.0
            basis[i] = s
            s += 1
        elif kind == "ge":
            T[i, s] = -1.0
            s += 1
            T[i, a] = 1.0
            basis[i] = a
            art_cols.append(a)
            a += 1
        else:
            T[i, a] = 1.0
            basis[i] = a
            art_cols.append(a)
            a += 1

    # Phase one: maximize -(sum of artificials).
    if art_cols:
        for col in art_cols:
            T[-1, col] = -1.0
        for i in range(m):
            if basis[i] in art_cols:
                T[-1] += T[i]
        status = _run_simplex(T, basis, total)
        # The corner cell carries -z; an infeasible system leaves the
        # artificial sum positive, i.e. a positive corner cell.
        if status != "optimal" or T[-1, -1] > PHASE_ONE_TOL:
            return [LpResult("infeasible", None, None) for _ in objectives]
        # Drive leftover artificials out of the basis; a row with no
        # eligible pivot is redundant and can safely keep its zero-valued
        # artificial (its coefficients on real columns are all ~0).
        for i in range(m):
            if basis[i] in art_cols:
                for j in range(n + n_slack):
                    if abs(T[i, j]) > _PIVOT_TOL:
                        _pivot(T, basis, i, j)
                        break

    # Phase two, once per objective, from a copy of the feasible basis.
    results = []
    for objective in objectives:
        T2, basis2 = T.copy(), basis.copy()
        # Restore the real objective expressed in the current basis.
        T2[-1, :] = 0.0
        T2[-1, :n] = objective
        for i in range(m):
            coef = T2[-1, basis2[i]]
            if coef != 0.0:
                T2[-1] -= coef * T2[i]
        for col in art_cols:
            T2[-1, col] = -np.inf  # never re-enter

        if _run_simplex(T2, basis2, n + n_slack) == "unbounded":
            results.append(LpResult("unbounded", None, None))
            continue
        y = np.zeros(total)
        for i in range(m):
            y[basis2[i]] = T2[i, -1]
        x = y[:n] + lo
        results.append(LpResult("optimal", float(objective @ x), x))
    return results
