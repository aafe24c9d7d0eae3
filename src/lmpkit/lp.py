"""Dense simplex for small standard-form linear programs.

Solves  min c.x  s.t.  A x = b, x >= 0.  Problem sizes here are tiny (tens
of rows), so the solver keeps the full dense tableau T = B^-1 [A | b] of the
current basis B.

* Starting basis.  Rows with b < 0 are negated.  A column with a single
  nonzero entry (a slack, surplus or box column) starts basic in its row
  when that entry is positive, or when it is negative and the row has
  b = 0 (the row is then negated).  Only rows left without one get an
  artificial column, and only then does a phase 1 minimise the sum of the
  artificials.  Artificials still basic at zero afterwards are pivoted out,
  or their rows dropped as redundant.
* Array pivots.  Each iteration prices every column at once (c - c_B T) and
  runs the ratio test over the whole pivot column; the pivot is a rank-1
  update of T.  Bland's rule picks the lowest-index entering column and,
  among the tied minimal ratios, the row whose basic variable has the
  lowest index, so cycling is impossible.
* Fresh check.  When a phase stops, B^-1 [A | b] is solved afresh from the
  columns of A by Gauss-Jordan elimination with partial pivoting, so
  rounding accumulated in T does not reach the result.
  The phase ends only when x_B = B^-1 b >= 0 and the reduced costs are
  nonnegative, both within tolerance; otherwise the fresh tableau replaces
  T and the phase continues, at most ``_REFRESHES`` times before
  ``NumericalError`` is raised.  The returned x is the fresh x_B.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

__all__ = ["LpResult", "solve_standard_form"]

_PIVOT_TOL = 1e-11
_COST_TOL = 1e-11
_FEAS_TOL = 1e-9
_REFRESHES = 3


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal", "infeasible", "unbounded"
    x: np.ndarray | None
    objective: float | None


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factor = tableau[:, col].copy()
    factor[row] = 0.0
    tableau -= factor[:, None] * tableau[row]
    basis[row] = col


def _iterate(tableau: np.ndarray, basis: np.ndarray, cost: np.ndarray) -> str:
    """Run simplex iterations in place; returns 'optimal' or 'unbounded'."""
    for _ in range(50_000 + 200 * (tableau.shape[0] + cost.size)):
        reduced = cost - cost[basis] @ tableau[:, :-1]
        eligible = (reduced < -_COST_TOL).nonzero()[0]
        if eligible.size == 0:
            return "optimal"
        col = eligible[0]
        rows = (tableau[:, col] > _PIVOT_TOL).nonzero()[0]
        if rows.size == 0:
            return "unbounded"
        ratios = tableau[rows, -1] / tableau[rows, col]
        best = ratios.min()
        tied = rows[ratios <= best + 1e-10 * (1.0 + abs(best))]
        _pivot(tableau, basis, tied[basis[tied].argmin()], col)
    raise NumericalError("simplex iteration limit exceeded")


def _fresh_tableau(full: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """B^-1 [A | b] from ``full`` = [A | b], by Gauss-Jordan elimination with
    partial pivoting; it shares no code with the pivots it checks."""
    tableau = full.copy()
    order = np.empty(basis.size, dtype=int)
    free = np.ones(basis.size, dtype=bool)
    for i, col in enumerate(basis):
        column = np.where(free, np.abs(tableau[:, col]), 0.0)
        r = order[i] = column.argmax()
        if column[r] == 0.0:
            raise NumericalError("simplex basis became singular")
        free[r] = False
        tableau[r] /= tableau[r, col]
        factor = tableau[:, col].copy()
        factor[r] = 0.0
        tableau -= factor[:, None] * tableau[r]
    return tableau[order]


def _solve_phase(tableau, basis, cost, full):
    """Iterate to a basis that the fresh check confirms optimal, where
    ``full`` is [A | b].  Returns the fresh tableau, or None when the
    program is unbounded."""
    for _ in range(_REFRESHES + 1):
        if _iterate(tableau, basis, cost) == "unbounded":
            return None
        tableau = _fresh_tableau(full, basis)
        reduced = cost - cost[basis] @ tableau[:, :-1]
        if tableau[:, -1].min(initial=0.0) >= -_FEAS_TOL and reduced.min() >= -_COST_TOL:
            return tableau
    raise NumericalError("simplex basis fails its fresh check after refreshes")


def solve_standard_form(
    c: np.ndarray, A: np.ndarray, b: np.ndarray
) -> LpResult:
    """Dense simplex on min c.x, A x = b, x >= 0."""
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float).reshape(-1)
    c = np.asarray(c, dtype=float).reshape(-1)
    if A.ndim != 2 or A.shape != (b.size, c.size):
        raise NumericalError("inconsistent LP dimensions")
    m, n = A.shape
    A[b < 0] *= -1.0
    b = np.abs(b)

    # Starting basis: in each row the lowest single-nonzero column with a
    # positive entry, else with a negative entry on a row with b = 0; the
    # division by the basic entries below negates such a row.
    single = np.ones(m) @ (A != 0) == 1.0  # nonzeros per column == 1
    basis = np.zeros(m, dtype=int)
    found = np.zeros(m, dtype=bool)
    for candidate in (A > 0, (A < 0) & (b == 0)[:, None]):
        candidate &= single
        pick = ~found & candidate.any(axis=1)
        if pick.any():
            basis[pick] = candidate[pick].argmax(axis=1)
        found |= pick
    missing = np.flatnonzero(~found)
    basis[missing] = n + np.arange(missing.size)
    full = np.column_stack([A, np.eye(m)[:, missing], b])
    tableau = full / full[np.arange(m), basis][:, None]

    if missing.size:
        cost = np.concatenate([np.zeros(n), np.ones(missing.size)])
        tableau = _solve_phase(tableau, basis, cost, full)
        if tableau is None:  # cannot happen: the phase-1 cost is bounded
            raise NumericalError("phase-1 simplex reported unbounded")
        if cost[basis] @ tableau[:, -1] > 1e-8 * (1.0 + b.max(initial=0.0)):
            return LpResult(status="infeasible", x=None, objective=None)
        for i in np.flatnonzero(cost[basis]):
            nonzero = np.flatnonzero(np.abs(tableau[i, :n]) > _PIVOT_TOL)
            if nonzero.size:
                _pivot(tableau, basis, i, nonzero[0])
        # An artificial still basic marks its own row as redundant.
        keep = cost[basis] == 0.0
        kept_rows = np.ones(m, dtype=bool)
        kept_rows[missing[basis[~keep] - n]] = False
        columns = np.r_[:n, -1]
        full = full[kept_rows][:, columns]
        tableau = tableau[keep][:, columns]
        basis = basis[keep]

    tableau = _solve_phase(tableau, basis, c, full)
    if tableau is None:
        return LpResult(status="unbounded", x=None, objective=None)
    x = np.zeros(n)
    x[basis] = tableau[:, -1]
    return LpResult(status="optimal", x=x, objective=float(c @ x))
