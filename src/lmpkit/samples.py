"""Problem data evaluated once per trajectory, over arrays of sample points.

A :class:`Samples` is built from a problem and a trajectory and holds three
point sets, each with one point per grid cell k:

* ``left``: (x_k, u_left_k), the cell's left end;
* ``right``: (x_{k+1}, u_right_k), the cell's right end;
* ``mid``: the midpoints of both, the cell's midpoint.

Every table of the problem (f, f_x, f_u, G, G_x, G_u) is evaluated over
every point of a point set the first time it is read, in one pass with
:func:`lmpkit.expr.evaluate_table`, and never again: a constant entry is
filled in, a bare variable is its column after one finiteness test, and
only compound entries run the interpreter.  An error names the lowest
failing point; of the entries failing there, the first in table order gives
the reason.

A Samples fixes the tolerances (delta, eps) of the relaxed phase test
{-delta <= G <= 0, |G_u| <= eps} when it is built, and refuses a NaN,
infinite or negative one.  Read once and cached, from those tables: the
phase test and G_x at the phase points of each point set, the table of jump
generators per node (laid out as :class:`Samples` says), the contact set,
and the endpoint gradients of J.

Geometry, the checker and recovery take one Samples as their first
argument and read the problem and the trajectory from it; the command line
builds it, once per command.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from . import expr, geometry
from .errors import EvalError, InputError

if TYPE_CHECKING:
    from .problem import ProblemDef, Trajectory

__all__ = ["PointSet", "Samples"]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class PointSet:
    """One point per grid cell; each table is evaluated over all points
    when it is first read.

    Table shapes: ``f`` (K, n), ``f_x`` (K, n, n), ``f_u`` (K, n, m),
    ``G`` (K,), ``G_x`` (K, n), ``G_u`` (K, m) for K points.  ``delta`` and
    ``eps`` are the phase-test tolerances of the :class:`Samples` that
    holds the point set.
    """

    def __init__(
        self, problem: "ProblemDef", x: np.ndarray, u: np.ndarray, delta: float, eps: float
    ):
        self.problem = problem
        self.size = x.shape[0]
        self.columns = {f"x{i + 1}": x[:, i] for i in range(x.shape[1])}
        self.columns.update({f"u{j + 1}": u[:, j] for j in range(u.shape[1])})
        self.delta, self.eps = delta, eps

    def evaluate(self, table) -> np.ndarray:
        """Evaluate a tuple (or a tuple of tuples) of expressions at every
        point.  An EvalError names the first failing point, as evaluating
        point by point in order would: its ``sample`` is the point's cell
        index.
        """
        nested = isinstance(table[0], tuple)
        flat = [e for row in table for e in row] if nested else table
        values = expr.evaluate_table(flat, self.columns, self.size)
        shape = (len(table), len(table[0])) if nested else (len(table),)
        return values.reshape(values.shape[0], *shape)

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

    @cached_property
    def phase(self) -> np.ndarray:
        """Relaxed phase test -delta <= G <= 0 and |G_u| <= eps per point."""
        band = (self.G >= -self.delta) & (self.G <= 0.0)
        return _frozen(band & (np.linalg.norm(self.G_u, axis=1) <= self.eps))

    @cached_property
    def phase_gradients(self) -> np.ndarray:
        """G_x at the relaxed phase points; NaN rows at the other points."""
        return _frozen(np.where(self.phase[:, None], self.G_x, np.nan))


class Samples:
    """The point sets of one (problem, trajectory) pair, plus the node
    structure of the closure in measure of the control.

    At node k the closure in measure holds the right limit u(tau_k + 0),
    which is left point k (right point N-1 at the last node), and at a
    declared jump whose sides differ also the left limit u(tau_k - 0),
    right point k-1.  Node arrays are (N+1, 2, ...): at such a two-sided
    jump the left limit, then the right limit; at every other node its one
    point, then a fill value.

    ``delta`` and ``eps`` are the tolerances of the relaxed phase test
    {-delta <= G <= 0, |G_u| <= eps}, the same for every point set; each
    must be finite and nonnegative (analytic fixtures keep the 1e-8
    defaults; numerically obtained trajectories want about 1e-6).
    """

    def __init__(
        self,
        problem: "ProblemDef",
        trajectory: "Trajectory",
        delta: float = 1e-8,
        eps: float = 1e-8,
    ):
        refuse_bad_tolerances(delta=delta, eps=eps)
        if trajectory.n != problem.n or trajectory.m != problem.m:
            raise InputError("trajectory dimensions do not match the problem")
        self.problem, self.trajectory = problem, trajectory
        x, ul, ur = trajectory.x, trajectory.u_left, trajectory.u_right
        self.left = PointSet(problem, x[:-1], ul, delta, eps)
        self.right = PointSet(problem, x[1:], ur, delta, eps)
        # halves summed, not a halved sum, which overflows above about 9e307
        self.mid = PointSet(
            problem, 0.5 * x[:-1] + 0.5 * x[1:], 0.5 * ul + 0.5 * ur, delta, eps
        )
        jumps = np.asarray(trajectory.jumps, dtype=np.intp)
        self.two_sided = _frozen(jumps[np.any(ur[jumps - 1] != ul[jumps], axis=1)])

    def per_node(self, left: np.ndarray, right: np.ndarray, fill) -> np.ndarray:
        """Arrays over the left and right point sets laid out per node, in
        the two slots of the class docstring; applied to the trajectory's
        ``u_left`` and ``u_right``, the closure in measure of the control."""
        first = np.concatenate([left, right[-1:]])
        out = np.stack([first, np.full_like(first, fill)], axis=1)
        k = self.two_sided
        out[k, 1] = first[k]
        out[k, 0] = right[k - 1]
        return out

    @cached_property
    def node_flags(self) -> np.ndarray:
        """Per node: some closure-in-measure point is a relaxed phase point."""
        return _frozen(np.any(self.per_node(self.left.phase, self.right.phase, False), axis=1))

    def at_nodes(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Per node, the value at its first closure-in-measure point, from
        arrays over the left and right point sets."""
        return self.per_node(left, right, 0)[:, 0]

    @cached_property
    def node_gradients(self) -> np.ndarray:
        """The (N+1, 2, n) table of jump generators: per node, G_x at the
        relaxed phase points among its closure-in-measure points, in slot
        order, in the leading slots; NaN rows after them."""
        table = self.per_node(self.left.phase_gradients, self.right.phase_gradients, np.nan)
        # G_x is never NaN: a NaN first slot is a point off the phase set
        return _frozen(np.where(np.isnan(table[:, :1, :1]), table[:, ::-1], table))

    @cached_property
    def contact_set(self) -> geometry.ContactSet:
        """The contact set of :func:`lmpkit.geometry.contact_set`."""
        return geometry.contact_set(self)

    @cached_property
    def endpoint_gradients(self) -> tuple[np.ndarray, np.ndarray]:
        """J_x0 and J_x1 at the trajectory's endpoints, as a table of one
        sample; an EvalError carries its bare reason, there being only one
        point."""
        n = self.problem.n
        x0, x1 = self.trajectory.endpoints
        columns = {f"x{side}_{i + 1}": x[i : i + 1]
                   for side, x in ((0, x0), (1, x1)) for i in range(n)}
        table = self.problem.J_x0 + self.problem.J_x1
        try:
            values = _frozen(expr.evaluate_table(table, columns, 1)[0])
        except EvalError as err:
            raise EvalError(err.reason) from err
        return values[:n], values[n:]


def refuse_bad_tolerances(**tolerances: float | None) -> None:
    """Raise InputError, naming the first in argument order, for a tolerance
    that is NaN, infinite or negative; None stands for unset."""
    for name, value in tolerances.items():
        if value is not None and not (math.isfinite(value) and value >= 0):
            raise InputError(f"{name} must be finite and nonnegative, not {value!r}")
