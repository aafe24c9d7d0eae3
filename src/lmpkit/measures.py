"""Bounded-variation functions and measures on a grid, with the
left-continuity and closed-interval endpoint conventions.

A BV function stores node values that are its left limits (v(tau_k - 0) =
v(tau_k) everywhere, so values[0] is also the exterior value v(t0-)), plus a
sparse map of jumps; the exterior right value is v(tau_N) + jump(tau_N).
A measure is a sparse map of node atoms plus a piecewise-constant density;
integrals over node-aligned [a, b] include the atoms at BOTH endpoints,
matching the relation "integral of dp over [a,b] = p(b+0) - p(a-0)".

Singular-continuous parts are not representable: atoms live only at nodes,
and the absolutely continuous part is cellwise constant.  All values are
immutable and every operation here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import InputError
from .problem import TimeGrid

__all__ = [
    "BVFunction",
    "SignedMeasure",
    "stieltjes_integral",
    "cumulative",
    "total_variation",
    "convention_sensitive_nodes",
]


def _as_row(value, dim: int) -> np.ndarray:
    row = np.atleast_1d(np.asarray(value, dtype=float))
    if row.shape != (dim,):
        raise InputError(f"expected a value of dimension {dim}, got shape {row.shape}")
    return row


def _dense(atoms: Mapping[int, np.ndarray], shape: tuple[int, int]) -> np.ndarray:
    """Sparse node rows as a dense array, zero rows elsewhere."""
    out = np.zeros(shape)
    for k, row in atoms.items():
        out[k] = row
    return out


@dataclass(frozen=True)
class BVFunction:
    """Left-continuous function of bounded variation with exterior values.

    ``values[k]`` is v(tau_k) = v(tau_k - 0); ``atoms[k]`` is the jump
    v(tau_k + 0) - v(tau_k - 0).  Within a cell the absolutely continuous
    part is the linear segment from the right limit at the left node to the
    left limit at the right node.
    """

    grid: TimeGrid
    values: np.ndarray
    atoms: Mapping[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values.reshape(-1, 1)
        object.__setattr__(self, "values", values)
        nnodes = self.grid.ncells + 1
        if values.shape[0] != nnodes:
            raise InputError("values must have one row per grid node")
        dim = values.shape[1]
        atoms = {}
        for k, jump in dict(self.atoms).items():
            k = int(k)
            if not 0 <= k < nnodes:
                raise InputError(f"atom node {k} outside the grid")
            atoms[k] = _as_row(jump, dim)
        object.__setattr__(self, "atoms", atoms)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def exterior_left(self) -> np.ndarray:
        """v(t0 - 0); equals the first node value by left-continuity."""
        return self.values[0]

    @property
    def exterior_right(self) -> np.ndarray:
        return self.values[-1] + self.jump(self.grid.ncells)

    def jump(self, k: int) -> np.ndarray:
        return self.atoms.get(int(k), np.zeros(self.dim))

    def left_limit(self, k: int) -> np.ndarray:
        return self.values[k]

    def right_limit(self, k: int) -> np.ndarray:
        return self.values[k] + self.jump(k)

    def right_limits(self) -> np.ndarray:
        """:meth:`right_limit` at every node, one row per node."""
        return self.values + _dense(self.atoms, self.values.shape)

    def within_cell(self, k: int, theta: float) -> np.ndarray:
        """Value at tau_k + theta*h_k for theta in (0, 1)."""
        a = self.right_limit(k)
        bv = self.left_limit(k + 1)
        return (1.0 - theta) * a + theta * bv

    def value(self, t: float, side: str = "left") -> np.ndarray:
        """One-sided value at time t ('left' or 'right')."""
        grid = self.grid
        if abs(t - grid.t0) <= 0 and side == "left":
            return self.exterior_left
        try:
            k = grid.node_index(t)
        except InputError:
            k = grid.cell_of(t)
            theta = (t - grid.nodes[k]) / grid.widths[k]
            return self.within_cell(k, theta)
        return self.left_limit(k) if side == "left" else self.right_limit(k)

    def total_variation(self) -> float:
        tv = sum(float(np.linalg.norm(j)) for j in self.atoms.values())
        for k in range(self.grid.ncells):
            tv += float(np.linalg.norm(self.left_limit(k + 1) - self.right_limit(k)))
        return tv


@dataclass(frozen=True)
class SignedMeasure:
    """Measure on the grid: node atoms plus a cellwise-constant density.

    ``density[k]`` is the density value on cell k, so its mass contribution
    is density[k] * h_k.  A nonnegative-flagged measure must have all atoms
    and density values >= 0.
    """

    grid: TimeGrid
    dim: int
    atoms: Mapping[int, np.ndarray] = field(default_factory=dict)
    density: np.ndarray | None = None
    nonnegative: bool = False

    def __post_init__(self):
        ncells = self.grid.ncells
        density = self.density
        if density is None:
            density = np.zeros((ncells, self.dim))
        density = np.asarray(density, dtype=float)
        if density.ndim == 1:
            density = density.reshape(-1, 1)
        if density.shape != (ncells, self.dim):
            raise InputError(
                f"density must have shape ({ncells}, {self.dim}), got {density.shape}"
            )
        object.__setattr__(self, "density", density)
        atoms = {}
        for k, weight in dict(self.atoms).items():
            k = int(k)
            if not 0 <= k <= ncells:
                raise InputError(f"atom node {k} outside the grid")
            atoms[k] = _as_row(weight, self.dim)
        object.__setattr__(self, "atoms", atoms)
        if self.nonnegative:
            if any(np.any(w < 0) for w in atoms.values()) or np.any(density < 0):
                raise InputError("measure flagged nonnegative has negative parts")

    @classmethod
    def scalar(
        cls,
        grid: TimeGrid,
        atoms: Mapping[int, float] | None = None,
        density: np.ndarray | None = None,
        nonnegative: bool = False,
    ) -> "SignedMeasure":
        atom_map = {int(k): np.array([float(v)]) for k, v in (atoms or {}).items()}
        dens = None if density is None else np.asarray(density, dtype=float).reshape(-1, 1)
        return cls(grid=grid, dim=1, atoms=atom_map, density=dens, nonnegative=nonnegative)

    def atom(self, k: int) -> np.ndarray:
        return self.atoms.get(int(k), np.zeros(self.dim))

    def scalar_atom(self, k: int) -> float:
        return float(self.atom(k)[0])

    def dense_atoms(self) -> np.ndarray:
        """:meth:`atom` at every node, one row per node."""
        return _dense(self.atoms, (self.grid.ncells + 1, self.dim))

    def mass(self, a: int = 0, b: int | None = None) -> np.ndarray:
        """Closed-interval mass over [tau_a, tau_b]: atoms at both ends included."""
        a, b = self._bounds(a, b)
        atoms = self.dense_atoms()[a : b + 1]
        cells = self.density[a:b] * self.grid.widths[a:b, None]
        return np.sum(atoms, axis=0) + np.sum(cells, axis=0)

    def _bounds(self, a, b) -> tuple[int, int]:
        if b is None:
            b = self.grid.ncells
        a = a if isinstance(a, (int, np.integer)) else self.grid.node_index(a)
        b = b if isinstance(b, (int, np.integer)) else self.grid.node_index(b)
        a, b = int(a), int(b)
        if not 0 <= a <= b <= self.grid.ncells:
            raise InputError(f"misaligned or reversed bounds ({a}, {b})")
        return a, b

    def total_variation(self) -> float:
        tv = sum(float(np.linalg.norm(w)) for w in self.atoms.values())
        tv += float(
            np.sum(np.linalg.norm(self.density, axis=1) * self.grid.widths)
        )
        return tv

    def scaled(self, c: float) -> "SignedMeasure":
        return SignedMeasure(
            grid=self.grid,
            dim=self.dim,
            atoms={k: c * w for k, w in self.atoms.items()},
            density=c * self.density,
            nonnegative=self.nonnegative and c >= 0,
        )

    def __add__(self, other: "SignedMeasure") -> "SignedMeasure":
        if other.grid is not self.grid and not np.array_equal(
            other.grid.nodes, self.grid.nodes
        ):
            raise InputError("measures live on different grids")
        if other.dim != self.dim:
            raise InputError("measure dimensions differ")
        atoms = {k: w.copy() for k, w in self.atoms.items()}
        for k, w in other.atoms.items():
            atoms[k] = atoms.get(k, np.zeros(self.dim)) + w
        return SignedMeasure(
            grid=self.grid,
            dim=self.dim,
            atoms=atoms,
            density=self.density + other.density,
        )


def _phi_sides(
    phi: np.ndarray,
    k: int,
    phi_jumps: Mapping[int, tuple[float, float]] | None,
) -> tuple[float, float]:
    if phi_jumps and k in phi_jumps:
        left, right = phi_jumps[k]
        return float(left), float(right)
    return float(phi[k]), float(phi[k])


def stieltjes_integral(
    phi,
    dmu: SignedMeasure,
    a: int = 0,
    b: int | None = None,
    phi_jumps: Mapping[int, tuple[float, float]] | None = None,
):
    """Integral of a node-sampled scalar phi against dmu over closed [a, b].

    Atoms pair with phi at their node; where phi itself jumps (declared via
    ``phi_jumps[node] = (left, right)``) the atom uses the two-sided average
    and the node is reported by :func:`convention_sensitive_nodes`.  The
    density part is integrated by the trapezoidal rule, which is exact here
    because the density is constant on each cell.
    """
    a, b = dmu._bounds(a, b)
    phi = np.asarray(phi, dtype=float)
    if phi.ndim != 1 or phi.size != dmu.grid.ncells + 1:
        raise InputError("phi must be sampled at every grid node")
    # accumulate in node order (atom, then the following cell) so the result
    # reproduces the cumulative construction term by term
    total = np.zeros(dmu.dim)
    for k in range(a, b + 1):
        if k in dmu.atoms:
            left, right = _phi_sides(phi, k, phi_jumps)
            total = total + 0.5 * (left + right) * dmu.atoms[k]
        if k < b:
            _, phi_a = _phi_sides(phi, k, phi_jumps)
            phi_b, _ = _phi_sides(phi, k + 1, phi_jumps)
            total = total + 0.5 * (phi_a + phi_b) * (
                dmu.density[k] * dmu.grid.widths[k]
            )
    if dmu.dim == 1:
        return float(total[0])
    return total


def convention_sensitive_nodes(
    dmu: SignedMeasure,
    phi_jumps: Mapping[int, tuple[float, float]] | None,
    a: int = 0,
    b: int | None = None,
) -> list[int]:
    """Nodes in [a, b] where an atom of dmu meets a jump of the integrand."""
    if not phi_jumps:
        return []
    a, b = dmu._bounds(a, b)
    nodes = []
    for k in sorted(dmu.atoms):
        if a <= k <= b and k in phi_jumps and np.any(dmu.atom(k) != 0.0):
            left, right = phi_jumps[k]
            if left != right:
                nodes.append(k)
    return nodes


def cumulative(dmu: SignedMeasure, base=None) -> BVFunction:
    """The BV function p with dp = dmu and p(t0-) = base.

    Atoms of p equal atoms of dmu; the absolutely continuous part is the
    running integral of the density.  Left-continuity holds by construction,
    and p(b+0) - p(a-0) reproduces the closed-interval mass exactly.
    """
    if base is None:
        base = np.zeros(dmu.dim)
    base = _as_row(base, dmu.dim)
    nnodes = dmu.grid.ncells + 1
    values = np.empty((nnodes, dmu.dim))
    values[0] = base
    for k in range(dmu.grid.ncells):
        right = values[k] + dmu.atom(k)
        values[k + 1] = right + dmu.density[k] * dmu.grid.widths[k]
    atoms = {k: w.copy() for k, w in dmu.atoms.items() if np.any(w != 0.0)}
    return BVFunction(grid=dmu.grid, values=values, atoms=atoms)


def total_variation(dmu: SignedMeasure) -> float:
    """Total variation norm: atom norms plus density mass."""
    return dmu.total_variation()
