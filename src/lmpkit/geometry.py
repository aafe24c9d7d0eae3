"""Contact geometry: closure in measure of the control, phase-point sets,
the contact set, and jump-direction sets with convex-hull distances.

For the representable class of controls (piecewise smooth with declared
jumps) the closure in measure at time t is a finite set: the single control
value at continuity times, the two one-sided values at a declared jump, and
the one-sided value at the horizon ends.  A phase point is a pair (x, u)
with G = 0 and G_u = 0; membership is always tested through the relaxed set
{-delta <= G <= 0, |G_u| <= eps} because exact equalities are measure-zero
in floating point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .problem import ProblemDef, Trajectory
from .samples import Samples

__all__ = [
    "ClmValue",
    "ContactSet",
    "JumpDirectionSet",
    "clm_at",
    "in_phase_set",
    "contact_set",
    "jump_directions",
    "jump_directions_at_node",
    "jump_directions_at_cell_mid",
    "dist_to_convex_hull",
]


@dataclass(frozen=True)
class ClmValue:
    """The finite set of control values reachable through the closure in
    measure at one time; nonempty for every t in the horizon."""

    t: float
    points: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.points:
            raise NumericalError("closure in measure produced an empty value set")


@dataclass(frozen=True)
class ContactSet:
    """Grid nodes whose closure-in-measure values meet the phase set, plus
    the maximal closed runs of flagged nodes as (first, last) node pairs."""

    grid_nodes: np.ndarray
    flags: np.ndarray
    intervals: tuple[tuple[int, int], ...]

    @property
    def is_empty(self) -> bool:
        return not bool(np.any(self.flags))

    def node_in(self, k: int) -> bool:
        return bool(self.flags[k])

    @property
    def cell_flags(self) -> np.ndarray:
        """Per cell: it belongs to the contact region, i.e. both its nodes do."""
        return self.flags[:-1] & self.flags[1:]

    def interval_times(self) -> tuple[tuple[float, float], ...]:
        return tuple(
            (float(self.grid_nodes[a]), float(self.grid_nodes[b]))
            for a, b in self.intervals
        )


@dataclass(frozen=True)
class JumpDirectionSet:
    """Constraint-gradient rows G_x at the phase points reachable at time t;
    empty exactly when t is outside the (tolerance-level) contact set."""

    t: float
    generators: tuple[np.ndarray, ...]

    @property
    def is_empty(self) -> bool:
        return not self.generators


def clm_at(trajectory: Trajectory, t: float) -> ClmValue:
    """Closure-in-measure value of the control at time t."""
    grid = trajectory.grid
    if t < grid.t0 or t > grid.t1:
        raise InputError(f"time {t!r} outside the horizon")
    try:
        k = grid.node_index(t)
    except InputError:
        cell = grid.cell_of(t)
        return ClmValue(t=t, points=(trajectory.u_in_cell(cell, t),))
    return ClmValue(t=t, points=trajectory.control_points(k))


def in_phase_set(
    problem: ProblemDef, x: np.ndarray, u: np.ndarray, delta: float, eps: float
) -> bool:
    """Relaxed phase-point test: -delta <= G(x,u) <= 0 and |G_u(x,u)| <= eps."""
    if delta < 0 or eps < 0:
        raise InputError("tolerances must be nonnegative")
    g = problem.G_at(x, u)
    if g < -delta or g > 0.0:
        return False
    return float(np.linalg.norm(problem.Gu_at(x, u))) <= eps


def contact_set(
    problem: ProblemDef,
    trajectory: Trajectory,
    delta: float,
    eps: float,
    samples: Samples | None = None,
) -> ContactSet:
    """Flag the nodes where some closure-in-measure point is a relaxed phase
    point; assemble maximal runs of flagged nodes as closed intervals."""
    samples = samples or Samples(problem, trajectory)
    flags = samples.node_flags(delta, eps)
    edges = np.diff(np.concatenate(([0], flags.astype(np.int8), [0])))
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1) - 1
    return ContactSet(
        grid_nodes=trajectory.grid.nodes,
        flags=flags,
        intervals=tuple(zip(starts.tolist(), ends.tolist())),
    )


def _directions(problem, x, clm_points, delta, eps) -> tuple[np.ndarray, ...]:
    gens = []
    for u in clm_points:
        if in_phase_set(problem, x, u, delta, eps):
            gens.append(problem.Gx_at(x, u))
    return tuple(gens)


def jump_directions(
    problem: ProblemDef,
    trajectory: Trajectory,
    t: float,
    delta: float,
    eps: float,
) -> JumpDirectionSet:
    """Generators {G_x(x(t), u)} over closure-in-measure points u that pass
    the relaxed phase test; the costate may jump only into their convex hull.
    Evaluates at the single time t; the grid-wide forms read from Samples."""
    value = clm_at(trajectory, t)
    gens = _directions(problem, trajectory.x_at(t), value.points, delta, eps)
    return JumpDirectionSet(t=t, generators=gens)


def jump_directions_at_node(
    problem: ProblemDef,
    trajectory: Trajectory,
    k: int,
    delta: float,
    eps: float,
    samples: Samples | None = None,
) -> JumpDirectionSet:
    samples = samples or Samples(problem, trajectory)
    return JumpDirectionSet(
        t=float(trajectory.grid.nodes[k]),
        generators=samples.node_generators(k, delta, eps),
    )


def jump_directions_at_cell_mid(
    problem: ProblemDef,
    trajectory: Trajectory,
    k: int,
    delta: float,
    eps: float,
    samples: Samples | None = None,
) -> JumpDirectionSet:
    samples = samples or Samples(problem, trajectory)
    mid = samples.mid
    gens = (mid.phase_gradients(delta, eps)[k],) if mid.phase(delta, eps)[k] else ()
    return JumpDirectionSet(t=float(trajectory.grid.midpoints[k]), generators=gens)


# -- distance to a convex hull -------------------------------------------------

_FW_TOL = 1e-10
_FW_MAX_ITER = 100_000


def dist_to_convex_hull(
    s: np.ndarray, generators
) -> tuple[float, np.ndarray]:
    """Euclidean distance from s to conv{generators} and optimal weights.

    Exact active-set search (enumeration of faces) for small generator
    counts, Frank-Wolfe with exact line search otherwise.  A distance below
    1e-9 certifies membership.
    """
    vs = np.asarray(generators, dtype=float)
    if vs.ndim == 1:
        vs = vs.reshape(1, -1)
    if vs.size == 0 or vs.shape[0] == 0:
        raise InputError("empty generator set")
    s = np.asarray(s, dtype=float).reshape(-1)
    if vs.shape[1] != s.size:
        raise InputError("generator dimension does not match the point")
    r, d = vs.shape
    if r == 1:
        return float(np.linalg.norm(vs[0] - s)), np.array([1.0])
    if r <= d + 2 or r <= 6:
        return _hull_distance_exact(s, vs)
    return _hull_distance_frank_wolfe(s, vs)


def _hull_distance_exact(s: np.ndarray, vs: np.ndarray) -> tuple[float, np.ndarray]:
    r = vs.shape[0]
    best: tuple[float, np.ndarray] | None = None
    for size in range(1, r + 1):
        for subset in itertools.combinations(range(r), size):
            sub = vs[list(subset)]
            w = _affine_least_squares(s, sub)
            if w is None or np.any(w < -1e-10):
                continue
            w = np.clip(w, 0.0, None)
            w = w / np.sum(w)
            dist = float(np.linalg.norm(w @ sub - s))
            if best is None or dist < best[0] - 1e-15:
                full = np.zeros(r)
                full[list(subset)] = w
                best = (dist, full)
    if best is None:  # numerically degenerate face solves; fall back
        return _hull_distance_frank_wolfe(s, vs)
    return best


def _affine_least_squares(s: np.ndarray, sub: np.ndarray) -> np.ndarray | None:
    """Minimise |w @ sub - s| subject to sum(w) = 1 (signs unconstrained)."""
    k = sub.shape[0]
    if k == 1:
        return np.array([1.0])
    # KKT system of the equality-constrained least-squares problem
    gram = sub @ sub.T
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = 2.0 * gram
    kkt[:k, k] = 1.0
    kkt[k, :k] = 1.0
    rhs = np.concatenate([2.0 * (sub @ s), [1.0]])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    w = sol[:k]
    if not np.all(np.isfinite(w)) or abs(float(np.sum(w)) - 1.0) > 1e-8:
        return None
    return w


def _hull_distance_frank_wolfe(
    s: np.ndarray, vs: np.ndarray
) -> tuple[float, np.ndarray]:
    """Away-step Frank-Wolfe with exact line search; the away steps give
    linear convergence on polytopes, so the duality-gap tolerance is
    actually reachable within the iteration budget."""
    r = vs.shape[0]
    start = int(np.argmin(np.linalg.norm(vs - s, axis=1)))
    w = np.zeros(r)
    w[start] = 1.0
    x = vs[start].copy()
    for _ in range(_FW_MAX_ITER):
        grad = x - s
        scores = vs @ grad
        j_fw = int(np.argmin(scores))
        gap_fw = float(grad @ x - scores[j_fw])
        if gap_fw <= _FW_TOL:
            break
        support = np.flatnonzero(w > 0.0)
        j_aw = int(support[np.argmax(scores[support])])
        gap_aw = float(scores[j_aw] - grad @ x)
        if gap_fw >= gap_aw:
            direction = vs[j_fw] - x
            gamma_max = 1.0
            toward, away = j_fw, None
        else:
            direction = x - vs[j_aw]
            w_a = w[j_aw]
            gamma_max = w_a / (1.0 - w_a) if w_a < 1.0 else 1e12
            toward, away = None, j_aw
        denom = float(direction @ direction)
        if denom <= 0.0:
            break
        gamma = min(gamma_max, max(0.0, float(-(grad @ direction)) / denom))
        if gamma <= 0.0:
            break
        x = x + gamma * direction
        if toward is not None:
            w *= 1.0 - gamma
            w[toward] += gamma
        else:
            w *= 1.0 + gamma
            w[away] -= gamma
            if w[away] < 1e-15:
                w[away] = 0.0
        np.clip(w, 0.0, None, out=w)
    total = float(np.sum(w))
    if total > 0.0:
        w = w / total
    return float(np.linalg.norm(x - s)), w
