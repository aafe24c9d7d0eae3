"""Bounded-variation functions and measures on a grid, with the
left-continuity and closed-interval endpoint conventions.

A BV function stores node values that are its left limits (v(tau_k - 0) =
v(tau_k) everywhere, so values[0] is also the exterior value v(t0-)), plus
its jumps as rows, one per node, zero where it does not jump; the exterior
right value is v(tau_N) + jump(tau_N).  A measure stores its node atoms the
same way, one row per node, plus a piecewise-constant density; its mass
over the closed horizon [t0, t1] includes the atoms at BOTH ends, matching
the relation "integral of dp over [t0, t1] = p(t1+0) - p(t0-0)".
:func:`running_sum` adds node atoms and cell masses in node order, the
order in which the checker accumulates the costate balance.

Singular-continuous parts are not representable: atoms live only at nodes,
and the absolutely continuous part is cellwise constant.  All values are
immutable and every operation here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .problem import TimeGrid

__all__ = ["BVFunction", "SignedMeasure", "running_sum"]


def _rows(value, shape: tuple[int, int], what: str) -> np.ndarray:
    """``value`` as a float array of ``shape``, zeros where it is None; a
    single column may be given as a flat array."""
    if value is None:
        return np.zeros(shape)
    rows = np.asarray(value, dtype=float)
    if rows.ndim == 1:
        rows = rows.reshape(-1, 1)
    if rows.shape != shape:
        raise InputError(f"{what} must have shape {shape}, got {rows.shape}")
    return rows


@dataclass(frozen=True)
class BVFunction:
    """Left-continuous function of bounded variation with exterior values.

    ``values[k]`` is v(tau_k) = v(tau_k - 0); ``atoms[k]`` is the jump
    v(tau_k + 0) - v(tau_k - 0), a zero row where v is continuous.  Within a
    cell the absolutely continuous part is the linear segment from the right
    limit at the left node to the left limit at the right node.
    """

    grid: TimeGrid
    values: np.ndarray
    atoms: np.ndarray | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values.reshape(-1, 1)
        if values.shape[0] != self.grid.ncells + 1:
            raise InputError("values must have one row per grid node")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "atoms", _rows(self.atoms, values.shape, "atoms"))

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def exterior_left(self) -> np.ndarray:
        """v(t0 - 0); equals the first node value by left-continuity."""
        return self.values[0]

    @property
    def exterior_right(self) -> np.ndarray:
        return self.values[-1] + self.atoms[-1]

    def right_limits(self) -> np.ndarray:
        """The right limit ``v(t_k + 0) = values[k] + atoms[k]`` at every
        node, one row per node; ``values[k]`` is the left limit."""
        return self.values + self.atoms


@dataclass(frozen=True)
class SignedMeasure:
    """Measure on the grid: node atoms plus a cellwise-constant density.

    ``atoms[k]`` is the atom at node k, a zero row where there is none;
    ``density[k]`` is the density value on cell k, so its mass contribution
    is density[k] * h_k.  A scalar measure (``dim`` 1) may be given flat
    arrays.  A nonnegative-flagged measure must have all atoms and density
    values >= 0.
    """

    grid: TimeGrid
    dim: int = 1
    atoms: np.ndarray | None = None
    density: np.ndarray | None = None
    nonnegative: bool = False

    def __post_init__(self):
        ncells = self.grid.ncells
        atoms = _rows(self.atoms, (ncells + 1, self.dim), "atoms")
        density = _rows(self.density, (ncells, self.dim), "density")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "density", density)
        if self.nonnegative and (np.any(atoms < 0) or np.any(density < 0)):
            raise InputError("measure flagged nonnegative has negative parts")

    def mass(self) -> np.ndarray:
        """Mass over the closed horizon [t0, t1]: every atom, the end atoms
        included, plus the density mass of every cell."""
        cells = self.density * self.grid.widths[:, None]
        return np.sum(self.atoms, axis=0) + np.sum(cells, axis=0)


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
