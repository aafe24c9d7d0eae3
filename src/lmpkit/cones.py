"""Finite-dimensional approximate separation of polyhedral convex cones.

Cones are given from the predual side: H = cone{g_1..g_r} induces the closed
cone {x : <g_j, x> >= 0 for all j} whose interior is the open variant.  Two
linear programs realise the two faces of the separation equivalence:

* ``intersection_nonempty`` maximises the margin t with <g, x> >= t over the
  open-cone generators (>= 0 for the closed cone) inside the unit box; the
  intersection of the open cones with the closed one is nonempty iff the
  optimal margin is positive.

* ``approx_separate`` searches nonnegative generator coefficients giving
  h_i in H_i with the normalisation sum_i <x0_i, h_i> = 1 over the open
  cones and a 1-norm of h_0 + sum h_i below a user epsilon (an approximate
  Euler-Lagrange condition).  For polyhedral data the optimum is exactly
  zero in the separable case, so any epsilon above solver tolerance works.

Both verdicts are invariant under positive scaling of the generators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .lp import solve_standard_form

__all__ = [
    "PolyCone",
    "IntersectionResult",
    "SeparationResult",
    "intersection_nonempty",
    "approx_separate",
]


@dataclass(frozen=True)
class PolyCone:
    """A polyhedral cone given by predual generators.

    ``open`` marks the induced cone as the open variant (strict
    inequalities); open cones may carry a strictly interior point ``x0``
    of the induced cone, verified on construction.
    """

    generators: np.ndarray
    open: bool = True
    x0: np.ndarray | None = None

    def __post_init__(self):
        gens = np.asarray(self.generators, dtype=float)
        if gens.ndim == 1:
            gens = gens.reshape(1, -1) if gens.size else gens.reshape(0, 0)
        object.__setattr__(self, "generators", gens)
        if gens.shape[0] and np.any(np.linalg.norm(gens, axis=1) == 0.0):
            raise InputError("zero generator vectors are not allowed")
        if self.x0 is not None:
            x0 = np.asarray(self.x0, dtype=float).reshape(-1)
            object.__setattr__(self, "x0", x0)
            if gens.shape[0] == 0:
                return
            if x0.size != gens.shape[1]:
                raise InputError("x0 dimension does not match the generators")
            if np.min(gens @ x0) <= 0.0:
                raise InputError(
                    "x0 is not strictly interior: some generator pairing is <= 0"
                )

    @property
    def dim(self) -> int:
        return self.generators.shape[1] if self.generators.size else 0

    @property
    def ngens(self) -> int:
        return self.generators.shape[0]


_MARGIN_TOL = 1e-9


@dataclass(frozen=True)
class IntersectionResult:
    """``margin`` is the optimal LP value t*.  Because x = 0 is always
    feasible, t* is never negative: robustly empty families report exactly
    0.  The margin comes from a fresh solve of the optimal basis and is
    accurate to about 1e-14 on unit-scale data, so a value in (0, 1e-9] is
    an intersection too thin to count as nonempty, not rounding noise: the
    degenerate band callers may want to log."""

    nonempty: bool
    witness: np.ndarray | None
    margin: float


@dataclass(frozen=True)
class SeparationResult:
    separated: bool
    objective: float | None
    h: tuple[np.ndarray, ...] | None
    coefficients: tuple[np.ndarray, ...] | None


def _check_family(cones) -> tuple[int, int]:
    if not cones:
        raise InputError("at least one cone is required")
    dims = {c.generators.shape[1] for c in cones if c.generators.size}
    if len(dims) != 1:
        raise InputError("all cones must share one ambient dimension")
    d = dims.pop()
    closed = [i for i, c in enumerate(cones) if not c.open]
    if len(closed) > 1:
        raise InputError("at most one cone may be closed")
    return d, closed[0] if closed else -1


def intersection_nonempty(cones) -> IntersectionResult:
    """LP test whether the open cones and the (optional) closed cone meet.

    Maximises t subject to <g, x> >= 0 over closed-cone generators,
    <g, x> >= t over open-cone generators, and |x|_inf <= 1; a positive
    optimal margin yields a witness.
    """
    d, _ = _check_family(cones)
    for c in cones:
        if c.ngens == 0:
            raise InputError("degenerate input: a cone has no generators")
    closed = [c.generators for c in cones if not c.open]
    opened = [c.generators for c in cones if c.open]
    if not opened:
        raise InputError("at least one open cone is required")
    G = np.vstack(closed + opened)
    k = G.shape[0]
    n_closed = k - sum(g.shape[0] for g in opened)

    # Standard-form layout: x = xp - xm (2d), t = tp - tm (2), one surplus s
    # per generator row (g.x - s = 0 closed, g.x - t - s = 0 open), then one
    # slack per box face (x_j + slack = 1 and -x_j + slack = 1, row by row).
    nvar = 2 * d + 2 + k + 2 * d
    eye = np.eye(d)
    rows = np.zeros((k + 2 * d, nvar))
    rows[:k, :d] = G
    rows[:k, d : 2 * d] = -G
    rows[n_closed:k, 2 * d : 2 * d + 2] = [-1.0, 1.0]
    rows[:k, 2 * d + 2 : 2 * d + 2 + k] = -np.eye(k)
    rows[k::2, : 2 * d] = np.hstack([eye, -eye])
    rows[k + 1 :: 2, : 2 * d] = np.hstack([-eye, eye])
    rows[k::2, 2 * d + 2 + k : 2 * d + 2 + k + d] = eye
    rows[k + 1 :: 2, 2 * d + 2 + k + d :] = eye
    rhs = np.zeros(k + 2 * d)
    rhs[k:] = 1.0

    cost = np.zeros(nvar)
    cost[2 * d] = -1.0  # maximise t
    cost[2 * d + 1] = 1.0
    result = solve_standard_form(cost, rows, rhs)
    if result.status != "optimal":
        # The box keeps the LP bounded and x = 0, t <= 0 is always feasible.
        raise InputError(f"intersection LP ended with status {result.status}")
    x = result.x[:d] - result.x[d : 2 * d]
    margin = float(result.x[2 * d] - result.x[2 * d + 1])
    if abs(margin) <= 1e-12:
        # pivot roundoff on a structurally zero optimum (data are O(1))
        margin = 0.0
    if margin > _MARGIN_TOL:
        return IntersectionResult(nonempty=True, witness=x, margin=margin)
    return IntersectionResult(nonempty=False, witness=None, margin=margin)


def approx_separate(cones, eps: float) -> SeparationResult:
    """Search an approximate separating family {h_i in H_i}.

    One LP: minimise |h_0 + sum h_i|_1 over nonnegative generator
    coefficients subject to the normalisation sum over open cones of
    <x0_i, h_i> = 1.  Separation succeeds when the optimum is below eps.
    """
    if not (np.isfinite(eps) and eps > 0):
        raise InputError(f"eps must be positive and finite, not {eps!r}")
    d, _ = _check_family(cones)
    offsets = []
    total = 0
    pairing = []
    for c in cones:
        offsets.append(total)
        total += c.ngens
        if c.open:
            if c.ngens and c.x0 is None:
                raise InputError("every open cone needs an interior point x0")
            pairing.extend(
                np.asarray(c.generators) @ c.x0 if c.ngens else np.zeros(0)
            )
        else:
            pairing.extend([0.0] * c.ngens)
    pairing = np.asarray(pairing, dtype=float)

    # Variables: coefficients (total), then z+ and z- (d each) with
    # z+ - z- = sum of coefficient-weighted generators.
    nvar = total + 2 * d
    rows = np.zeros((d + 1, nvar))
    rhs = np.zeros(d + 1)
    if total:
        rows[:d, :total] = -np.vstack([c.generators for c in cones if c.ngens]).T
    rows[:d, total : total + d] = np.eye(d)
    rows[:d, total + d :] = -np.eye(d)
    rows[d, :total] = pairing
    rhs[d] = 1.0
    cost = np.zeros(nvar)
    cost[total:] = 1.0

    result = solve_standard_form(cost, rows, rhs)
    if result.status == "infeasible":
        return SeparationResult(separated=False, objective=None, h=None, coefficients=None)
    if result.status != "optimal":
        raise InputError(f"separation LP ended with status {result.status}")
    objective = float(result.objective)
    if objective >= eps:
        return SeparationResult(
            separated=False, objective=objective, h=None, coefficients=None
        )
    coeffs = []
    hs = []
    for c, off in zip(cones, offsets):
        ci = result.x[off : off + c.ngens]
        coeffs.append(ci)
        hs.append(ci @ np.asarray(c.generators) if c.ngens else np.zeros(d))
    return SeparationResult(
        separated=True,
        objective=objective,
        h=tuple(hs),
        coefficients=tuple(coeffs),
    )


def random_family(rng: np.random.Generator, dim: int | None = None) -> list[PolyCone]:
    """A random instance: one closed cone plus 1-3 open cones with interior
    points, each with up to 5 generators.  Open-cone generators are sampled
    conditioned on a positive pairing with the cone's interior point, so the
    construction invariant holds for every instance."""
    d = int(dim) if dim is not None else int(rng.integers(2, 7))
    n_open = int(rng.integers(1, 4))

    def open_cone() -> PolyCone:
        x0 = rng.normal(size=d)
        x0 /= np.linalg.norm(x0)
        gens = []
        count = int(rng.integers(1, 6))
        while len(gens) < count:
            g = rng.normal(size=d)
            norm = np.linalg.norm(g)
            if norm == 0.0:
                continue
            if g @ x0 > 0.1 * norm:
                gens.append(g)
        return PolyCone(generators=np.array(gens), open=True, x0=x0)

    closed_gens = rng.normal(size=(int(rng.integers(1, 6)), d))
    cones: list[PolyCone] = [PolyCone(generators=closed_gens, open=False)]
    cones.extend(open_cone() for _ in range(n_open))
    return cones
