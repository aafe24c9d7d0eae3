"""Problem data evaluated once per trajectory, over arrays of sample points.

A :class:`Samples` is built from a problem and a trajectory and holds three
point sets, each with one point per grid cell k:

* ``left``: (x_k, u_left_k), the cell's left end;
* ``right``: (x_{k+1}, u_right_k), the cell's right end;
* ``mid``: the midpoints of both, the cell's midpoint.

Every table of the problem (f, f_x, f_u, G, G_x, G_u) is evaluated over a
whole point set the first time it is read, with
:func:`lmpkit.expr.evaluate_many`.  The relaxed phase test, the constraint
gradients at phase points and the node contact flags are cached per
tolerance pair (delta, eps).  The phase test evaluates G_u only where
-delta <= G <= 0 holds, and G_x is evaluated for the generators only at
phase points, so data that are undefined off the phase set do not raise.
Geometry, the checker and recovery all read their data from one Samples.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from . import expr
from .errors import EvalError, InputError

if TYPE_CHECKING:
    from .problem import ProblemDef, Trajectory

__all__ = ["PointSet", "Samples"]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class PointSet:
    """One point per grid cell; tables are evaluated lazily over all points.

    Table shapes: ``f`` (K, n), ``f_x`` (K, n, n), ``f_u`` (K, n, m),
    ``G`` (K,), ``G_x`` (K, n), ``G_u`` (K, m) for K points.
    """

    def __init__(self, problem: "ProblemDef", x: np.ndarray, u: np.ndarray):
        self.problem = problem
        self.size = x.shape[0]
        self.columns = {f"x{i + 1}": x[:, i] for i in range(x.shape[1])}
        self.columns.update({f"u{j + 1}": u[:, j] for j in range(u.shape[1])})
        self._phase: dict[tuple[float, float], np.ndarray] = {}
        self._gradients: dict[tuple[float, float], np.ndarray] = {}

    def evaluate(self, table, where: np.ndarray | None = None) -> np.ndarray:
        """Evaluate a tuple (or a tuple of tuples) of expressions at every
        point, or only at the points a boolean mask selects.

        An EvalError names the first failing point, as evaluating point by
        point in order would: its ``sample`` is the point's cell index.
        """
        index = np.arange(self.size) if where is None else np.flatnonzero(where)
        columns = self.columns
        if where is not None:
            columns = {name: col[index] for name, col in columns.items()}
        nested = isinstance(table[0], tuple)
        flat = [e for row in table for e in row] if nested else list(table)
        values = []
        first: EvalError | None = None
        for e in flat:
            try:
                values.append(expr.evaluate_many(e, columns))
            except EvalError as err:
                if err.sample is None:
                    raise
                if first is None or err.sample < first.sample:
                    first = err
        if first is not None:
            raise EvalError(first.reason, sample=int(index[first.sample])) from first
        shape = (len(table), len(table[0])) if nested else (len(table),)
        return np.stack(values, axis=-1).reshape(index.size, *shape)

    @cached_property
    def f(self) -> np.ndarray:
        return _frozen(self.evaluate(self.problem.f))

    @cached_property
    def f_x(self) -> np.ndarray:
        return _frozen(self.evaluate(self.problem.f_x))

    @cached_property
    def f_u(self) -> np.ndarray:
        return _frozen(self.evaluate(self.problem.f_u))

    @cached_property
    def G(self) -> np.ndarray:
        return _frozen(self.evaluate((self.problem.G,))[:, 0])

    @cached_property
    def G_x(self) -> np.ndarray:
        return _frozen(self.evaluate(self.problem.G_x))

    @cached_property
    def G_u(self) -> np.ndarray:
        return _frozen(self.evaluate(self.problem.G_u))

    def phase(self, delta: float, eps: float) -> np.ndarray:
        """Relaxed phase test -delta <= G <= 0 and |G_u| <= eps per point."""
        key = (delta, eps)
        if key not in self._phase:
            if delta < 0 or eps < 0:
                raise InputError("tolerances must be nonnegative")
            band = (self.G >= -delta) & (self.G <= 0.0)
            flags = np.zeros(self.size, dtype=bool)
            if band.any():
                gu = self.evaluate(self.problem.G_u, band)
                flags[band] = np.linalg.norm(gu, axis=1) <= eps
            self._phase[key] = _frozen(flags)
        return self._phase[key]

    def phase_gradients(self, delta: float, eps: float) -> np.ndarray:
        """G_x at the relaxed phase points; NaN rows at the other points."""
        key = (delta, eps)
        if key not in self._gradients:
            flags = self.phase(delta, eps)
            rows = np.full((self.size, self.problem.n), np.nan)
            if flags.any():
                rows[flags] = self.evaluate(self.problem.G_x, flags)
            self._gradients[key] = _frozen(rows)
        return self._gradients[key]


class Samples:
    """The point sets of one (problem, trajectory) pair, plus the node
    structure of the closure in measure of the control.

    At node k the closure in measure holds the right limit u(tau_k + 0),
    which is left point k (right point N-1 at the last node), and at a
    declared jump whose sides differ also the left limit u(tau_k - 0),
    right point k-1, listed first.
    """

    def __init__(self, problem: "ProblemDef", trajectory: "Trajectory"):
        if trajectory.n != problem.n or trajectory.m != problem.m:
            raise InputError("trajectory dimensions do not match the problem")
        x, ul, ur = trajectory.x, trajectory.u_left, trajectory.u_right
        self.left = PointSet(problem, x[:-1], ul)
        self.right = PointSet(problem, x[1:], ur)
        self.mid = PointSet(problem, 0.5 * (x[:-1] + x[1:]), 0.5 * (ul + ur))
        jumps = np.asarray(trajectory.jumps, dtype=np.intp)
        self.two_sided = _frozen(jumps[np.any(ur[jumps - 1] != ul[jumps], axis=1)])
        self._node_flags: dict[tuple[float, float], np.ndarray] = {}

    def node_flags(self, delta: float, eps: float) -> np.ndarray:
        """Per node: some closure-in-measure point is a relaxed phase point."""
        key = (delta, eps)
        if key not in self._node_flags:
            left = self.left.phase(delta, eps)
            right = self.right.phase(delta, eps)
            flags = np.append(left, right[-1])
            flags[self.two_sided] |= right[self.two_sided - 1]
            self._node_flags[key] = _frozen(flags)
        return self._node_flags[key]

    def at_nodes(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Per node, the value at its first closure-in-measure point, from
        arrays over the left and right point sets."""
        out = np.concatenate([left, right[-1:]])
        out[self.two_sided] = right[self.two_sided - 1]
        return out

    def node_generators(self, k: int, delta: float, eps: float) -> tuple[np.ndarray, ...]:
        """G_x rows at the relaxed phase points among the closure-in-measure
        points of node k, in the order of the class docstring."""
        points = [(self.left, k) if k < self.left.size else (self.right, k - 1)]
        if k in self.two_sided:
            points.insert(0, (self.right, k - 1))
        return tuple(
            point_set.phase_gradients(delta, eps)[i]
            for point_set, i in points
            if point_set.phase(delta, eps)[i]
        )
