"""Bounded-variation functions and measures on a grid, with the
left-continuity and closed-interval endpoint conventions.

A BV function stores node values that are its left limits (v(tau_k - 0) =
v(tau_k) everywhere, so values[0] is also the exterior value v(t0-)), plus a
sparse map of jumps; the exterior right value is v(tau_N) + jump(tau_N).
A measure is a sparse map of node atoms plus a piecewise-constant density;
its mass over node-aligned [a, b] includes the atoms at BOTH endpoints,
matching the relation "integral of dp over [a,b] = p(b+0) - p(a-0)".
:func:`running_sum` adds node atoms and cell masses in node order, the
order in which the checker accumulates the costate balance.

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

__all__ = ["BVFunction", "SignedMeasure", "running_sum"]


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

    def right_limits(self) -> np.ndarray:
        """The right limit ``v(t_k + 0) = values[k] + jump(k)`` at every node,
        one row per node; ``values[k]`` is the left limit."""
        return self.values + _dense(self.atoms, self.values.shape)


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

    def scaled(self, c: float) -> "SignedMeasure":
        return SignedMeasure(
            grid=self.grid,
            dim=self.dim,
            atoms={k: c * w for k, w in self.atoms.items()},
            density=c * self.density,
            nonnegative=self.nonnegative and c >= 0,
        )


def running_sum(base, atoms: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Running sum of base, atoms[0], cells[0], atoms[1], ..., atoms[-1],
    added one after another: for one row of ``atoms`` per node and of
    ``cells`` per cell, entry 2k is the sum up to node k, its atom excluded,
    and entry 2k + 1 the sum over the closed interval through node k."""
    steps = np.empty((2 * atoms.shape[0], atoms.shape[1]))
    steps[0] = base
    steps[1::2] = atoms
    steps[2::2] = cells
    return np.cumsum(steps, axis=0)
