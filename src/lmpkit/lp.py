"""Dense simplex for small standard-form linear programs.

Solves  min c.x  s.t.  A x = b, x >= 0, for finite data (else
``NumericalError`` before any pivot).  Problem sizes here are tiny (tens of
rows), so the solver keeps the full dense tableau T = B^-1 [A | b] of the
current basis B; each pivot is a rank-1 update of T.

* Starting basis.  Rows with b < 0 are negated.  One vectorised pass gives
  each row its lowest column with a single nonzero entry (a slack, surplus
  or box column) where that entry is positive, else where it is negative on
  a row with b = 0 (the row is then negated).  There is no phase 1: a row
  left without such a column is refused with ``NumericalError`` naming the
  row.  The cone LPs give every row a unit column.
* Pricing.  The reduced costs c - c_B T are computed when pivoting starts
  and updated by each pivot's rank-1 step; the most negative enters
  (Dantzig).  After ``_DEGENERATE_RUN`` degenerate pivots in a row (ratio
  at most 1e-12 (1 + largest rhs when pivoting starts), so that rounding
  residue such as 1e-18 counts as zero) the lowest-index eligible column
  enters (Bland) until one makes progress; as ratio ties go to the
  lowest-index basic variable, Bland cannot cycle.
* Fresh check.  When the pivots stop, B X = [A | b | I] is solved afresh
  from the columns of A by one LU solve with partial pivoting (one LAPACK
  call), sharing no code with the pivots.  The solve ends only when the
  fresh x_B (the returned x) is nonnegative within tolerance and the fresh
  tableau confirms the stop: no negative reduced cost (optimal), or one
  whose column has no positive entry (unbounded).  Else the fresh tableau
  replaces T, up to ``_REFRESHES`` times before ``NumericalError``.
* Multipliers.  An optimal result carries y = B^-T c_B for its final basis
  B, from the B^-1 of the check that confirmed it, in the rows as the
  caller gave them: y of a row negated for b < 0 is negated back.  Then
  c - A^T y is the reduced cost, >= 0 at the optimum, and b.y the objective.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

__all__ = ["LpResult", "solve_standard_form"]

log = logging.getLogger(__name__)
_PIVOT_TOL = 1e-11
_COST_TOL = 1e-11
_FEAS_TOL = 1e-9
_REFRESHES = 3
_DEGENERATE_RUN = 10


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" or "unbounded"
    x: np.ndarray | None
    objective: float | None
    iterations: int  # pivots
    y: np.ndarray | None = None  # row multipliers of an optimal result


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    pivot_row = tableau[row] / tableau[row, col]
    tableau -= tableau[:, col, None] * pivot_row
    tableau[row] = pivot_row
    basis[row] = col


def _iterate(tableau: np.ndarray, basis: np.ndarray, cost: np.ndarray):
    """Pivot in place; returns 'optimal' or 'unbounded', and the pivot count."""
    if not cost.size:  # no columns: the empty x is the only point
        return "optimal", 0
    rhs, reduced = tableau[:, -1], cost - cost[basis] @ tableau[:, :-1]
    flat = 1e-12 * (1.0 + rhs.max(initial=0.0))
    ratios = np.empty(rhs.size)
    degenerate = 0
    for pivots in range(50_000 + 200 * (tableau.shape[0] + cost.size)):
        col = reduced.argmin()
        if reduced[col] >= -_COST_TOL:
            return "optimal", pivots
        if degenerate >= _DEGENERATE_RUN:
            col = (reduced < -_COST_TOL).argmax()
        column = tableau[:, col]  # rhs and column: views of T, pivoted in place
        eligible = column > _PIVOT_TOL
        if not np.count_nonzero(eligible):
            return "unbounded", pivots
        ratios.fill(np.inf)
        np.divide(rhs, column, out=ratios, where=eligible)
        row = ratios.argmin()
        best = float(ratios[row])
        degenerate = degenerate + 1 if best <= flat else 0
        tied = ratios <= best + 1e-10 * (1.0 + abs(best))
        if np.count_nonzero(tied) > 1:  # the lowest-index basic variable leaves
            rows = tied.nonzero()[0]
            row = rows[basis[rows].argmin()]
        _pivot(tableau, basis, row, col)
        reduced -= reduced[col] * tableau[row, :-1]
    raise NumericalError("simplex iteration limit exceeded")


def _fresh_tableau(full: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """B^-1 [A | b | I] from ``full`` = [A | b | I], by one LU solve (LAPACK)."""
    try:
        return np.linalg.solve(full[:, basis], full)
    except np.linalg.LinAlgError:
        raise NumericalError("simplex basis became singular") from None


def _solve_phase(tableau, basis, cost, full):
    """Iterate to a basis the fresh check confirms optimal or unbounded
    (``full`` is [A | b | I]); returns the fresh B^-1 full, or None if
    unbounded, and the pivot count."""
    width = tableau.shape[1]
    pivots = 0
    for _ in range(_REFRESHES + 1):
        status, count = _iterate(tableau, basis, cost)
        pivots += count
        fresh = _fresh_tableau(full, basis)
        tableau = fresh[:, :width]  # B^-1 [A | b]; pivots go on in this view
        reduced = cost - cost[basis] @ tableau[:, :-1]
        if tableau[:, -1].min(initial=0.0) < -_FEAS_TOL:
            continue
        improving = reduced < -_COST_TOL
        if status == "optimal" and not improving.any():
            return fresh, pivots
        ray = improving & (tableau[:, :-1] <= _PIVOT_TOL).all(axis=0)
        if status == "unbounded" and ray.any():
            return None, pivots
    raise NumericalError("simplex basis fails its fresh check after refreshes")


def solve_standard_form(c: np.ndarray, A: np.ndarray, b: np.ndarray) -> LpResult:
    """Dense simplex on min c.x, A x = b, x >= 0."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    c = np.asarray(c, dtype=float).reshape(-1)
    if A.ndim != 2 or A.shape != (b.size, c.size):
        raise NumericalError("inconsistent LP dimensions")
    m, n = A.shape
    sign = np.where(b < 0, -1.0, 1.0)  # rows with b < 0 are negated
    A, b = A * sign[:, None], np.abs(b)
    data = np.zeros((m + 1, n + 1 + m))  # [A | b | I] over c
    full = data[:m]
    full[:, :n], full[:, n], data[m, :n] = A, b, c
    if not np.isfinite(data).all():
        raise NumericalError("LP data must be finite")
    full.ravel()[n + 1 :: n + m + 2] = 1.0  # the diagonal of I

    # Starting basis: per row the lowest single-nonzero column that is positive
    # (priority 2), else negative on a b = 0 row (1; the division negates it).
    priority = np.where(A > 0, 2, (A < 0) & (b == 0)[:, None])
    priority *= (A != 0).sum(axis=0) == 1
    missing = np.flatnonzero(priority.max(axis=1, initial=0) == 0)
    if missing.size:
        raise NumericalError(f"LP row {missing[0]} has no start column")
    basis = priority.argmax(axis=1) if n else np.zeros(m, dtype=int)
    tableau = full[:, : n + 1] / full[np.arange(m), basis][:, None]

    fresh, pivots = _solve_phase(tableau, basis, c, full)
    status = "unbounded" if fresh is None else "optimal"
    log.debug("simplex on %d x %d: %s after %d pivots", m, n, status, pivots)
    if fresh is None:
        return LpResult(status, None, None, pivots)
    x = np.zeros(n)
    x[basis] = fresh[:, n]  # fresh is B^-1 [A | b | I]
    y = c[basis] @ fresh[:, n + 1 :]  # B^-T c_B
    return LpResult(status, x, float(c @ x), pivots, y * sign)
