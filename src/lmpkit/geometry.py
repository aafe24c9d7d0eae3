"""Contact geometry: the contact set, jump-direction sets, and convex-hull
distances.

For the representable class of controls (piecewise smooth with declared
jumps) the closure in measure at a node is a finite set: the single control
value at continuity nodes, the two one-sided values at a declared jump, and
the one-sided value at the horizon ends.  :class:`~lmpkit.samples.Samples`
lays these points out per node, with the problem data evaluated at them;
the contact set and the jump-direction sets take that Samples as their
first argument and read that layout.  A phase point is a pair (x, u) with
G = 0 and G_u = 0; membership is always tested through the relaxed set
{-delta <= G <= 0, |G_u| <= eps} because exact equalities are measure-zero
in floating point, with the tolerances delta and eps the Samples was built
with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import InputError

if TYPE_CHECKING:
    from .samples import Samples

__all__ = [
    "ContactSet",
    "JumpDirectionSet",
    "contact_set",
    "jump_directions_at_node",
    "jump_directions_at_cell_mid",
    "dist_to_convex_hull",
    "MinNormPoint",
    "min_norm_point",
]


@dataclass(frozen=True)
class ContactSet:
    """Per grid node: some closure-in-measure value meets the phase set; plus
    the maximal closed runs of flagged nodes as (first, last) node pairs."""

    flags: np.ndarray
    intervals: tuple[tuple[int, int], ...]

    @property
    def cell_flags(self) -> np.ndarray:
        """Per cell: it belongs to the contact region, i.e. both its nodes do."""
        return self.flags[:-1] & self.flags[1:]


@dataclass(frozen=True)
class JumpDirectionSet:
    """Constraint-gradient rows G_x at the phase points reachable at time t;
    empty exactly when t is outside the (tolerance-level) contact set."""

    t: float
    generators: tuple[np.ndarray, ...]


def contact_set(samples: Samples) -> ContactSet:
    """Flag the nodes where some closure-in-measure point is a relaxed phase
    point; assemble maximal runs of flagged nodes as closed intervals."""
    flags = samples.node_flags
    edges = np.diff(np.concatenate(([0], flags.astype(np.int8), [0])))
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1) - 1
    return ContactSet(
        flags=flags,
        intervals=tuple(zip(starts.tolist(), ends.tolist())),
    )


def jump_directions_at_node(samples: Samples, k: int) -> JumpDirectionSet:
    """Generators {G_x(x_k, u)} over the closure-in-measure points u of node
    k that pass the relaxed phase test; the costate may jump at node k only
    into their convex hull.  The rows are views of row k of
    :attr:`Samples.node_gradients`, which batch readers index directly."""
    row = samples.node_gradients[k]
    return JumpDirectionSet(
        t=float(samples.trajectory.grid.nodes[k]),
        generators=tuple(row[~np.isnan(row[:, 0])]),
    )


def jump_directions_at_cell_mid(samples: Samples, k: int) -> JumpDirectionSet:
    """The generator G_x at the midpoint of cell k if that is a relaxed phase
    point, none otherwise."""
    mid = samples.mid
    gens = (mid.phase_gradients[k],) if mid.phase[k] else ()
    return JumpDirectionSet(t=float(samples.trajectory.grid.midpoints[k]), generators=gens)


# -- distance to a convex hull -------------------------------------------------


def dist_to_convex_hull(
    s: np.ndarray, generators
) -> tuple[float, np.ndarray]:
    """Euclidean distance from s to conv{generators} and optimal weights:
    the minimum-norm point of the generators shifted by -s.  A distance
    below 1e-9 certifies membership.
    """
    vs = np.asarray(generators, dtype=float)
    if vs.ndim == 1:
        vs = vs.reshape(1, -1)
    if vs.size == 0 or vs.shape[0] == 0:
        raise InputError("empty generator set")
    s = np.asarray(s, dtype=float).reshape(-1)
    if vs.shape[1] != s.size:
        raise InputError("generator dimension does not match the point")
    w = min_norm_point((vs - s).T).w
    return float(np.linalg.norm(w @ vs - s)), w


# -- minimum-norm point of a polytope ------------------------------------------


@dataclass(frozen=True)
class MinNormPoint:
    """Simplex weights ``w`` of the point ``x = P w`` of least norm in the
    convex hull of the columns of ``P``, with the Wolfe gap
    ``|x|^2 - min_j <x, P_j>`` (zero exactly at the minimum), the number of
    major iterations, how the loop ended: ``optimal``, ``degenerate`` (the
    entering point is numerically in the affine hull of the corral) or
    ``iteration_cap``, and the size of the start corral the loop began from
    (0 when none was given or it was refused)."""

    w: np.ndarray
    gap: float
    iterations: int
    status: str
    start: int


def min_norm_point(P, start=0) -> MinNormPoint:
    """Wolfe's algorithm (Math. Programming 11, 1976) for the point of least
    norm in conv{P_j}, the columns of a (d, r) array; finite and exact.

    The corral S is a set of affinely independent points whose affine
    minimiser is ``v = (G_S + 1 1^T)^{-1} 1`` normalised to sum 1, with
    ``G = P^T P``.  That inverse is kept up to date by bordering when a point
    enters and by a Schur-complement downdate when one leaves, and each solve
    takes one step of iterative refinement.  Ties go to the lowest index, so
    the result is deterministic.

    The loop starts from the column of least norm, or from the first
    ``start`` columns when those are affinely independent (every Cholesky
    pivot ``L_kk^2`` of their ``G_S + 1 1^T`` exceeds ``1e-14`` times its
    diagonal entry, the test bordering applies) and their affine minimiser
    has all weights positive.  A taken start is read in place, as the
    leading block of ``P``: its weights come from linear solves, and the
    corral's own copy of its points and the inverse are formed only when the
    loop first borders.  Either way the result is optimal only by the Wolfe
    gap over all of ``P``.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[1] == 0:
        raise InputError("min_norm_point needs a (d, r) array of r >= 1 points")
    d, r = P.shape
    if not 0 <= start <= r:
        raise InputError("the start corral reaches a column outside the array")
    points = P.T
    sq = np.einsum("ij,ij->i", points, points)
    gap_tol = 1e-15 * float(np.max(sq))
    # The corral lives in the leading s slots of buffers that double when
    # full, up to min(r, d + 1): no more points are affinely independent.
    limit = min(r, d + 1)
    cap = min(limit, max(32, start))
    idx = np.arange(cap)  # a taken start holds the slots in column order
    w = np.empty(cap)
    B = np.empty((cap, cap))  # G_S + 1 1^T
    rows = B_inv = None  # the corral's points and B^{-1}, once it borders
    taken = s = _load_start(P[:, :start], B, w) if start <= cap else 0
    if not taken:
        j = int(np.argmin(sq))
        s = 1
        idx[0], w[0] = j, 1.0
        B[0, 0] = sq[j] + 1.0
        rows, B_inv = np.empty((cap, d)), np.empty((cap, cap))
        rows[0], B_inv[0, 0] = points[j], 1.0 / B[0, 0]
    in_corral = np.zeros(r, dtype=bool)
    in_corral[idx[:s]] = True
    max_iterations = 50 * r + 100
    iterations = 0
    while True:
        x = P[:, :s] @ w[:s] if rows is None else w[:s] @ rows[:s]
        scores = points @ x
        j = int(np.argmin(scores))
        gap = float(x @ x - scores[j])
        if gap <= gap_tol or in_corral[j]:
            status = "optimal"
            break
        if s == limit:
            # d + 1 affinely independent points with positive weights: their
            # affine minimiser x is the origin, and the gap is rounding
            status = "optimal"
            break
        if iterations == max_iterations:
            status = "iteration_cap"
            break
        iterations += 1
        if rows is None:  # the first bordering of the taken start
            rows, B_inv = np.empty((cap, d)), np.empty((cap, cap))
            rows[:s] = points[:s]
            B_inv[:s, :s] = np.linalg.inv(B[:s, :s])
        b = rows[:s] @ points[j] + 1.0
        u = B_inv[:s, :s] @ b
        beta = sq[j] + 1.0
        schur = float(beta - b @ u)
        if schur <= 1e-14 * beta:
            status = "degenerate"
            break
        if s == cap:
            grow = min(cap, limit - cap)
            cap += grow
            idx, w = np.pad(idx, (0, grow)), np.pad(w, (0, grow))
            rows = np.pad(rows, ((0, grow), (0, 0)))
            B, B_inv = (np.pad(M, ((0, grow), (0, grow))) for M in (B, B_inv))
        # bordering: the inverse of [[B, b], [b^T, beta]]
        B_inv[:s, :s] += np.outer(u / schur, u)
        B_inv[:s, s] = B_inv[s, :s] = -u / schur
        B_inv[s, s] = 1.0 / schur
        B[:s, s] = B[s, :s] = b
        B[s, s] = beta
        idx[s], rows[s], w[s] = j, points[j], 0.0
        in_corral[j] = True
        s += 1
        while True:  # minor cycle: move toward the affine minimiser
            v = _affine_minimiser(B[:s, :s], B_inv[:s, :s])
            if np.all(v > 0.0):
                w[:s] = v
                break
            ws = w[:s]
            drop = np.flatnonzero(v <= 0.0)
            ratios = ws[drop] / np.maximum(ws[drop] - v[drop], np.finfo(float).tiny)
            theta = float(np.min(ratios))
            ws *= 1.0 - theta
            ws += theta * v
            ws[drop[np.argmin(ratios)]] = 0.0
            # from the top down, so that the slot moved into a freed one
            # is never one still to drop
            for i in np.flatnonzero(ws <= 0.0)[::-1]:
                in_corral[idx[i]] = False
                s = _remove(i, s, B, B_inv, idx, rows, w)
    weights = np.zeros(r)
    weights[idx[:s]] = w[:s]
    return MinNormPoint(
        w=weights, gap=gap, iterations=iterations, status=status, start=taken
    )


def _affine_minimiser(B: np.ndarray, B_inv: np.ndarray) -> np.ndarray:
    """Weights, summing to 1, of the affine minimiser of a corral: ``B^{-1} 1``
    with one step of iterative refinement."""
    v = B_inv.sum(axis=1)
    v += B_inv @ (1.0 - B @ v)
    return v / v.sum()


def _load_start(S, B, w) -> int:
    """Load ``G_S + 1 1^T`` of the columns of ``S``, a view of the leading
    columns of ``P``, into the leading block of ``B``, and their affine
    minimiser into ``w``, as ``_affine_minimiser`` forms it but by linear
    solves; return their count, or 0 when there are none, they are affinely
    dependent or a weight is nonpositive."""
    s = S.shape[1]
    if not s:
        return 0
    G = B[:s, :s]
    np.matmul(S.T, S, out=G)  # syrk: S^T S from the view, with no gathered copy
    G += 1.0
    try:
        pivots = np.linalg.cholesky(G).diagonal() ** 2
    except np.linalg.LinAlgError:
        return 0
    if np.any(pivots <= 1e-14 * G.diagonal()):
        return 0
    v = np.linalg.solve(G, np.ones(s))
    v += np.linalg.solve(G, 1.0 - G @ v)
    w[:s] = v / v.sum()
    return s if np.all(w[:s] > 0.0) else 0


def _remove(i, s, B, B_inv, idx, rows, w) -> int:
    """Drop slot i of an s-point corral: downdate the inverse through the
    Schur complement of its pivot, then move the last slot into slot i."""
    col = B_inv[:s, i].copy()
    B_inv[:s, :s] -= np.outer(col / col[i], col)
    last = s - 1
    for M in (B, B_inv):
        M[i, :s] = M[last, :s]
        M[:s, i] = M[:s, last]
    idx[i], rows[i], w[i] = idx[last], rows[last], w[last]
    return last
