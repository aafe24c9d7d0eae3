"""Finite-dimensional approximate separation of polyhedral convex cones.

Cones are given from the predual side: H = cone{g_1..g_r} induces the closed
cone {x : <g_j, x> >= 0 for all j} whose interior is the open variant.  The
open cones and the closed one fail to meet exactly when nonnegative
combinations h_i of their generators, not all zero, sum to zero (the
Dubovitskii-Milyutin alternative).  For polyhedral cones both sides of that
alternative are one primal-dual pair of linear programs.  With weights w >= 0
on the generators (all stacked as g_1..g_k), let

    LP(w):  minimise |sum_j c_j g_j|_1  over c >= 0  subject to  w.c = 1,

in standard form with z+ - z- = sum_j c_j g_j (d rows) and cost sum(z+ + z-).
Its LP dual is: maximise t over x with <g_j, x> >= w_j t and |x|_inf <= 1.

* ``intersection_nonempty`` solves LP(w) with w = 1 on the open-cone
  generators and 0 on the closed ones.  Its dual is the margin LP: maximise
  t with <g, x> >= t (open) and >= 0 (closed) in the unit box, so the
  optimum is the margin t*, and the multipliers y of the d generator rows
  are a witness x: at an optimal basis the reduced costs <g_j, y> - w_j t*
  of c_j and 1 -+ y_i of z+-_i are nonnegative.  The intersection is
  nonempty iff t* is positive.

* ``approx_separate`` solves LP(w) with w_j = <x0_i, g_j> / |x0_i| for a
  generator of an open cone i (0 for the closed cone): nonnegative generator
  coefficients giving h_i in H_i with sum_i <x0_i, h_i> / |x0_i| = 1 over the
  open cones and |h_0 + sum h_i|_1 below a user epsilon (an approximate
  Euler-Lagrange condition).  For polyhedral data the optimum is exactly
  zero in the separable case, so any epsilon above solver tolerance works.

The builder writes LP(w) by index into one zeroed array, [A | b] over the
cost row.  It eliminates the coefficient c_j* of largest weight a = w_j*
from the generator rows by c_j* = (1 - sum_{j != j*} w_j c_j) / a, so c_j*
is the normalisation row's slack and z+, z- are unit columns of the
generator rows.  Each test is then one simplex solve, in about four pivots,
from the feasible basis of unit columns that `_solve_dual` passes: z+_i on a
generator row with b_i >= 0, z-_i where b_i < 0, and c_j* on the
normalisation row, read off like any other coefficient.

Both verdicts are invariant under positive scaling of the generators, and
the separation verdict under positive scaling of each x0 too.
"""

from __future__ import annotations

import math
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
        if not np.isfinite(gens).all():
            raise InputError("generators must be finite")
        if not gens.any(axis=1).all():
            raise InputError("zero generator vectors are not allowed")
        if self.x0 is not None:
            x0 = np.asarray(self.x0, dtype=float).reshape(-1)
            object.__setattr__(self, "x0", x0)
            if not np.isfinite(x0).all():
                raise InputError("x0 must be finite")
            if gens.shape[0] == 0:
                return
            if x0.size != gens.shape[1]:
                raise InputError("x0 dimension does not match the generators")
            # the signs of the pairings, from rows scaled to a largest entry
            # of 1 so that the products cannot overflow
            if not np.min(_unit_rows(gens) @ _unit_rows(x0)) > 0.0:
                raise InputError("x0 is not strictly interior: some generator pairing is <= 0")

    @property
    def dim(self) -> int:
        return self.generators.shape[1] if self.generators.size else 0

    @property
    def ngens(self) -> int:
        return self.generators.shape[0]


def _unit_rows(a: np.ndarray) -> np.ndarray:
    """``a`` with each row (the last axis) divided by its largest absolute
    entry; zero rows stay zero."""
    scale = np.abs(a).max(axis=-1, keepdims=True)
    return a / np.where(scale > 0.0, scale, 1.0)


_MARGIN_TOL = 1e-9


@dataclass(frozen=True)
class IntersectionResult:
    """``margin`` is the optimal value t* of the margin LP, the optimum of
    LP(w) (a 1-norm), so it is never negative: robustly empty families
    report exactly 0.  The margin comes from a fresh solve of the optimal
    basis and is accurate to about 1e-14 on unit-scale data, so a value in
    (0, 1e-9] is an intersection too thin to count as nonempty, not
    rounding noise: the degenerate band callers may want to log."""

    nonempty: bool
    witness: np.ndarray | None
    margin: float


@dataclass(frozen=True)
class SeparationResult:
    separated: bool
    objective: float | None
    h: tuple[np.ndarray, ...] | None = None
    coefficients: tuple[np.ndarray, ...] | None = None


def _check_family(cones) -> int:
    """The ambient dimension of a valid family."""
    if not cones:
        raise InputError("at least one cone is required")
    dims = {c.generators.shape[1] for c in cones if c.generators.size}
    if len(dims) != 1:
        raise InputError("all cones must share one ambient dimension")
    if sum(not c.open for c in cones) > 1:
        raise InputError("at most one cone may be closed")
    return dims.pop()


def _solve_dual(G: np.ndarray, w: np.ndarray):
    """LP(w) of the module docstring for generators G (k, d), with the
    coefficient of largest weight eliminated; columns c (k), z+ (d), z- (d)."""
    k, d = G.shape
    j, width = w.argmax(), k + 2 * d + 1
    lp = np.zeros((d + 2, width))  # [A | b] over the cost row
    A, b = lp[: d + 1, :-1], lp[: d + 1, -1]
    np.divide(G[j], w[j], out=b[:d])
    np.multiply(b[:d, None], w, out=A[:d, :k])
    A[:d, :k] -= G.T
    A[:d, j] = 0.0  # exactly, so that c_j* is the normalisation's slack
    flat = lp.ravel()  # z+ and z-: +1 and -1 on the generator rows
    flat[k : k + d * (width + 1) : width + 1] = 1.0
    flat[k + d : k + d + d * (width + 1) : width + 1] = -1.0
    A[d, :k], b[d], lp[-1, k:-1] = w, 1.0, 1.0  # w.c = 1, and the cost
    basis = np.append(k + np.arange(d) + d * (b[:d] < 0), j)  # z+ or z-, then c_j*
    return solve_standard_form(lp[-1, :-1], A, b, basis)


def intersection_nonempty(cones) -> IntersectionResult:
    """LP test whether the open cones and the (optional) closed cone meet.

    The margin t* (maximise t subject to <g, x> >= 0 over closed-cone
    generators, <g, x> >= t over open-cone generators, and |x|_inf <= 1) is
    the optimum of its dual LP(w), w = 1 on the open generators; a positive
    margin yields the witness x, the multipliers of LP(w)'s generator rows.
    """
    if any(c.ngens == 0 for c in cones):
        raise InputError("degenerate input: a cone has no generators")
    d = _check_family(cones)
    if not any(c.open for c in cones):
        raise InputError("at least one open cone is required")
    G = np.concatenate([c.generators for c in cones])
    w = np.repeat([float(c.open) for c in cones], [c.ngens for c in cones])
    result = _solve_dual(G, w)
    margin = result.objective
    if abs(margin) <= 1e-12:
        # pivot roundoff on a structurally zero optimum (data are O(1))
        margin = 0.0
    if margin > _MARGIN_TOL:
        return IntersectionResult(nonempty=True, witness=result.y[:d], margin=margin)
    return IntersectionResult(nonempty=False, witness=None, margin=margin)


def approx_separate(cones, eps: float) -> SeparationResult:
    """Search an approximate separating family {h_i in H_i}.

    One LP, LP(w) with w_j = <x0_i, g_j> / |x0_i| on open cone i's
    generators and 0 on the closed cone's: minimise |h_0 + sum h_i|_1 over
    nonnegative generator coefficients subject to sum over open cones of
    <x0_i, h_i> / |x0_i| = 1.  Dividing by |x0_i| keeps the optimum, which
    is compared with the absolute eps, from scaling as 1 / |x0_i|.  LP(w)
    is solved over the generators scaled to a largest entry of 1, which
    leaves its optimum as it is and keeps its data finite.
    Separation succeeds when the optimum is below eps; with no open-cone
    generator the normalisation cannot hold and no LP is solved.
    """
    if not (np.isfinite(eps) and eps > 0):
        raise InputError(f"eps must be positive and finite, not {eps!r}")
    d = _check_family(cones)
    if any(c.open and c.ngens and c.x0 is None for c in cones):
        raise InputError("every open cone needs an interior point x0")
    # rows scaled to a largest entry of 1, so that neither the pairing nor
    # LP(w) overflows; LP(w)'s optimum does not change
    G = np.concatenate([c.generators.reshape(-1, d) for c in cones])
    scale = np.abs(G).max(axis=1)
    G = G / scale[:, None]
    splits = np.cumsum([c.ngens for c in cones])[:-1]
    # math.hypot takes the norm of x0 without overflow or underflow
    pairing = np.concatenate([
        g @ (c.x0 / math.hypot(*c.x0)) if c.open and c.ngens else np.zeros(c.ngens)
        for g, c in zip(np.split(G, splits), cones)
    ])
    if pairing.max() <= 0.0:
        return SeparationResult(separated=False, objective=None)
    result = _solve_dual(G, pairing)
    if result.objective >= eps:
        return SeparationResult(separated=False, objective=result.objective)
    # the coefficients of the scaled rows, divided back by the scales
    coeffs = np.split(result.x[: pairing.size] / scale, splits)
    hs = [ci @ c.generators if c.ngens else np.zeros(d) for ci, c in zip(coeffs, cones)]
    return SeparationResult(True, result.objective, tuple(hs), tuple(coeffs))


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
            if g @ x0 > 0.1 * np.linalg.norm(g):  # never true for g = 0
                gens.append(g)
        return PolyCone(generators=np.array(gens), open=True, x0=x0)

    closed_gens = rng.normal(size=(int(rng.integers(1, 6)), d))
    cones: list[PolyCone] = [PolyCone(generators=closed_gens, open=False)]
    cones.extend(open_cone() for _ in range(n_open))
    return cones
