"""Dense simplex for small standard-form linear programs.

Solves  min c.x  s.t.  A x = b, x >= 0, for finite data (else
``NumericalError`` before any pivot), from a feasible basis of unit columns
that the caller names, one column per row.  Problem sizes here are tiny
(tens of rows), so the solver keeps the full dense tableau T = B^-1 [A | b]
of the current basis B; each pivot is a rank-1 update of T.

* Starting basis.  Each row is divided by its basis entry.  A basis column
  with a nonzero entry outside its row, or an entry whose sign differs from
  that of a nonzero b, is refused with ``NumericalError``; there is no
  phase 1.
* Pricing.  The reduced costs c - c_B T are computed when pivoting starts
  and updated by each pivot's rank-1 step; the most negative enters
  (Dantzig).  After ``_DEGENERATE_RUN`` degenerate pivots in a row (ratio
  at most 1e-12 (1 + largest rhs when pivoting starts), so that rounding
  residue such as 1e-18 counts as zero) the lowest-index eligible column
  enters (Bland) until one makes progress; as ratio ties go to the
  lowest-index basic variable, Bland cannot cycle.
* Fresh check.  When the pivots stop, B X = [A | b | I] is solved afresh
  from the columns of A by one LU solve with partial pivoting (one LAPACK
  call), sharing no code with the pivots.  The solve ends when the fresh
  x_B (the returned x) is nonnegative within tolerance and no fresh reduced
  cost is negative; an improving column with no positive entry is a ray,
  and the LP is refused as unbounded.  Else the fresh tableau replaces T,
  up to ``_REFRESHES`` times before ``NumericalError``.
* Multipliers.  y = B^-T c_B for the final basis B, from the B^-1 of the
  check that confirmed it.  Then c - A^T y is the reduced cost, >= 0 at the
  optimum, and b.y the objective.
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
    x: np.ndarray
    objective: float
    iterations: int  # pivots
    y: np.ndarray  # row multipliers


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    pivot_row = tableau[row] / tableau[row, col]
    tableau -= tableau[:, col, None] * pivot_row
    tableau[row] = pivot_row
    basis[row] = col


def _iterate(tableau: np.ndarray, basis: np.ndarray, cost: np.ndarray) -> int:
    """Pivot in place until no reduced cost is negative or the entering
    column has no positive entry; returns the pivot count."""
    rhs, reduced = tableau[:, -1], cost - cost[basis] @ tableau[:, :-1]
    flat = 1e-12 * (1.0 + rhs.max(initial=0.0))
    ratios = np.empty(rhs.size)
    degenerate = 0
    for pivots in range(50_000 + 200 * (tableau.shape[0] + cost.size)):
        col = reduced.argmin()
        if reduced[col] >= -_COST_TOL:
            return pivots
        if degenerate >= _DEGENERATE_RUN:
            col = (reduced < -_COST_TOL).argmax()
        column = tableau[:, col]  # rhs and column: views of T, pivoted in place
        eligible = column > _PIVOT_TOL
        if not np.count_nonzero(eligible):
            return pivots
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
    """Pivot to a basis the fresh check confirms optimal; returns B^-1 full and the pivots."""
    width = tableau.shape[1]
    pivots = 0
    for _ in range(_REFRESHES + 1):
        pivots += _iterate(tableau, basis, cost)
        fresh = _fresh_tableau(full, basis)
        tableau = fresh[:, :width]  # B^-1 [A | b]; pivots go on in this view
        if tableau[:, -1].min(initial=0.0) < -_FEAS_TOL:
            continue
        improving = cost - cost[basis] @ tableau[:, :-1] < -_COST_TOL
        if not improving.any():
            return fresh, pivots
        if (improving & (tableau[:, :-1] <= _PIVOT_TOL).all(axis=0)).any():
            raise NumericalError("LP is unbounded: the fresh check confirms an improving ray")
    raise NumericalError("simplex basis fails its fresh check after refreshes")


def solve_standard_form(c, A, b, basis) -> LpResult:
    """Dense simplex on min c.x, A x = b, x >= 0, from the feasible basis of
    unit columns ``basis`` (one column index per row)."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    c = np.asarray(c, dtype=float).reshape(-1)
    basis = np.array(basis, dtype=int).reshape(-1)  # a copy: the pivots change it
    m, n = b.size, c.size
    in_range = 0 <= basis.min(initial=0) <= basis.max(initial=0) < n  # false if n = 0
    if A.shape != (m, n) or basis.shape != (m,) or not in_range:
        raise NumericalError("inconsistent LP dimensions")
    data = np.zeros((m + 1, n + 1 + m))  # [A | b | I] over c
    full = data[:m]
    full[:, :n], full[:, n], data[m, :n] = A, b, c
    if not np.isfinite(data).all():
        raise NumericalError("LP data must be finite")
    full.ravel()[n + 1 :: n + m + 2] = 1.0  # the diagonal of I
    start = A[:, basis]  # B, diagonal for a basis of unit columns
    entries = start.diagonal()
    if np.count_nonzero(start) != m or not entries.all() or (b * np.sign(entries) < 0).any():
        raise NumericalError("the start basis is not unit columns of its rows that keep b >= 0")
    tableau = full[:, : n + 1] / entries[:, None]

    fresh, pivots = _solve_phase(tableau, basis, c, full)
    log.debug("simplex on %d x %d: optimal after %d pivots", m, n, pivots)
    x = np.zeros(n)
    x[basis] = fresh[:, n]  # fresh is B^-1 [A | b | I]
    y = c[basis] @ fresh[:, n + 1 :]  # B^-T c_B
    return LpResult(x, float(c @ x), pivots, y)
