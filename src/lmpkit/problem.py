"""Problem data, time grids, candidate trajectories, and built-in fixtures.

A problem is the triple (f, G, J): dynamics, one scalar mixed state-control
constraint G(x,u) <= 0, and an endpoint cost J(x(t0), x(t1)).  Candidate
processes live on a time grid: the state is a continuous piecewise-linear
interpolant of node samples, the control is piecewise smooth with finitely
many declared jump nodes carrying explicit left/right values.  All types are
immutable after construction; :class:`~lmpkit.samples.Samples` evaluates the
data over all grid cells at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

from . import expr
from .errors import EvalError, InputError
from .samples import Samples

__all__ = [
    "ProblemDef",
    "TimeGrid",
    "Trajectory",
    "dynamics_defect",
    "endpoint_cost",
    "builtin_example",
]

_NODE_MATCH_RTOL = 1e-9
_CONTINUITY_TOL = 1e-12


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing nodes t0 = tau_0 < ... < tau_N = t1, N >= 2 cells."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 3:
            raise InputError("grid needs at least 3 nodes (2 cells)")
        if not np.all(np.diff(nodes) > 0):
            raise InputError("grid nodes must be strictly increasing")

    @classmethod
    def uniform(cls, t0: float, t1: float, ncells: int) -> "TimeGrid":
        if ncells < 2:
            raise InputError("ncells must be >= 2")
        return cls(np.linspace(t0, t1, ncells + 1))

    @property
    def ncells(self) -> int:
        return self.nodes.size - 1

    @property
    def t0(self) -> float:
        return float(self.nodes[0])

    @property
    def t1(self) -> float:
        return float(self.nodes[-1])

    @cached_property
    def widths(self) -> np.ndarray:
        return np.diff(self.nodes)

    @cached_property
    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.nodes[:-1] + self.nodes[1:])

    def node_index(self, t: float) -> int:
        """Map a time to its node index; raises if t is not grid-aligned."""
        k = int(np.argmin(np.abs(self.nodes - t)))
        span = self.t1 - self.t0
        if abs(self.nodes[k] - t) > _NODE_MATCH_RTOL * span:
            raise InputError(f"time {t!r} is not aligned with a grid node")
        return k

    def cell_of(self, t: float) -> int:
        """Cell index k with tau_k <= t <= tau_{k+1} (clamped at the ends)."""
        if t < self.t0 or t > self.t1:
            raise InputError(f"time {t!r} outside the horizon")
        k = int(np.searchsorted(self.nodes, t, side="right") - 1)
        return min(max(k, 0), self.ncells - 1)


def _parse_or_keep(source, scope: expr.Scope) -> expr.Expression:
    if isinstance(source, str):
        return expr.parse(source, scope)
    expr.validate_scope(source, scope)
    return source


@dataclass(frozen=True)
class ProblemDef:
    """The data (f, G, J) with dimensions (n, m) on the horizon [t0, t1].

    Exactly one scalar mixed constraint; f is a list of n expressions in
    (x, u); J is an expression in the endpoint variables x0_i / x1_i.
    """

    n: int
    m: int
    t0: float
    t1: float
    f: tuple[expr.Expression, ...]
    G: expr.Expression
    J: expr.Expression

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise InputError("dimensions n and m must be >= 1")
        if not self.t0 < self.t1:
            raise InputError("t0 < t1 is required")
        if len(self.f) != self.n:
            raise InputError(f"expected {self.n} dynamics expressions, got {len(self.f)}")
        scope = expr.Scope(self.n, self.m)
        for fe in self.f:
            expr.validate_scope(fe, scope)
        expr.validate_scope(self.G, scope)
        expr.validate_scope(self.J, expr.Scope(self.n, 0, endpoint=True))

    @classmethod
    def from_strings(
        cls, n: int, m: int, t0: float, t1: float, f: list[str], G: str, J: str
    ) -> "ProblemDef":
        scope = expr.Scope(n, m)
        return cls(
            n=n,
            m=m,
            t0=t0,
            t1=t1,
            f=tuple(_parse_or_keep(s, scope) for s in f),
            G=_parse_or_keep(G, scope),
            J=_parse_or_keep(J, expr.Scope(n, 0, endpoint=True)),
        )

    # Derivative tables are assembled once per problem and reused at every
    # grid point, which keeps downstream residuals free of differencing error.
    @cached_property
    def f_x(self) -> tuple[tuple[expr.Expression, ...], ...]:
        return tuple(
            tuple(expr.differentiate(fi, f"x{j + 1}") for j in range(self.n))
            for fi in self.f
        )

    @cached_property
    def f_u(self) -> tuple[tuple[expr.Expression, ...], ...]:
        return tuple(
            tuple(expr.differentiate(fi, f"u{j + 1}") for j in range(self.m))
            for fi in self.f
        )

    @cached_property
    def G_x(self) -> tuple[expr.Expression, ...]:
        return tuple(expr.differentiate(self.G, f"x{j + 1}") for j in range(self.n))

    @cached_property
    def G_u(self) -> tuple[expr.Expression, ...]:
        return tuple(expr.differentiate(self.G, f"u{j + 1}") for j in range(self.m))

    @cached_property
    def J_x0(self) -> tuple[expr.Expression, ...]:
        return tuple(expr.differentiate(self.J, f"x0_{j + 1}") for j in range(self.n))

    @cached_property
    def J_x1(self) -> tuple[expr.Expression, ...]:
        return tuple(expr.differentiate(self.J, f"x1_{j + 1}") for j in range(self.n))

    def xu_binding(self, x: np.ndarray, u: np.ndarray) -> dict[str, float]:
        b = {f"x{i + 1}": float(x[i]) for i in range(self.n)}
        b.update({f"u{i + 1}": float(u[i]) for i in range(self.m)})
        return b

    def endpoint_binding(self, x0: np.ndarray, x1: np.ndarray) -> dict[str, float]:
        b = {f"x0_{i + 1}": float(x0[i]) for i in range(self.n)}
        b.update({f"x1_{i + 1}": float(x1[i]) for i in range(self.n)})
        return b

    def _eval_table(self, table, binding: Mapping[str, float]) -> np.ndarray:
        return np.array(
            [[expr.evaluate(e, binding) for e in row] for row in table], dtype=float
        )

    def f_at(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        b = self.xu_binding(x, u)
        return np.array([expr.evaluate(fi, b) for fi in self.f], dtype=float)

    def fx_at(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return self._eval_table(self.f_x, self.xu_binding(x, u))

    def fu_at(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return self._eval_table(self.f_u, self.xu_binding(x, u))

    def G_at(self, x: np.ndarray, u: np.ndarray) -> float:
        return expr.evaluate(self.G, self.xu_binding(x, u))

    def Gx_at(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        b = self.xu_binding(x, u)
        return np.array([expr.evaluate(e, b) for e in self.G_x], dtype=float)

    def Gu_at(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        b = self.xu_binding(x, u)
        return np.array([expr.evaluate(e, b) for e in self.G_u], dtype=float)

    def J_at(self, x0: np.ndarray, x1: np.ndarray) -> float:
        return expr.evaluate(self.J, self.endpoint_binding(x0, x1))

    def endpoint_gradients(
        self, x0: np.ndarray, x1: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        b = self.endpoint_binding(x0, x1)
        jx0 = np.array([expr.evaluate(e, b) for e in self.J_x0], dtype=float)
        jx1 = np.array([expr.evaluate(e, b) for e in self.J_x1], dtype=float)
        return jx0, jx1


@dataclass(frozen=True)
class Trajectory:
    """A candidate process on a grid.

    ``x`` holds node samples of the continuous state; the control on cell k
    is the linear segment from ``u_left[k]`` (value at tau_k+0) to
    ``u_right[k]`` (value at tau_{k+1}-0).  A constant cell has equal ends.
    ``jumps`` lists the interior nodes where the control is discontinuous;
    away from them the cell descriptors must agree across the node.
    """

    grid: TimeGrid
    x: np.ndarray
    u_left: np.ndarray
    u_right: np.ndarray
    jumps: tuple[int, ...] = field(default=())

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        ul = np.asarray(self.u_left, dtype=float)
        ur = np.asarray(self.u_right, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "u_left", ul)
        object.__setattr__(self, "u_right", ur)
        object.__setattr__(self, "jumps", tuple(sorted(int(j) for j in self.jumps)))
        ncells = self.grid.ncells
        if x.ndim != 2 or x.shape[0] != ncells + 1:
            raise InputError("state samples must have one row per grid node")
        if ul.ndim != 2 or ul.shape[0] != ncells:
            raise InputError("u_left must have one row per cell")
        if ur.shape != ul.shape:
            raise InputError("u_left and u_right shapes must agree")
        for j in self.jumps:
            if not 0 < j < ncells:
                raise InputError(f"jump node {j} is not interior")
        if len(set(self.jumps)) != len(self.jumps):
            raise InputError("duplicate jump nodes")
        scale = 1.0 + float(np.max(np.abs(ul))) if ul.size else 1.0
        # gap[k - 1] is the control gap at interior node k
        gap = np.max(np.abs(ur[:-1] - ul[1:]), axis=1, initial=0.0)
        broken = gap > _CONTINUITY_TOL * scale
        broken[np.asarray(self.jumps, dtype=np.intp) - 1] = False
        if broken.any():
            k = int(np.argmax(broken)) + 1
            raise InputError(
                f"control is discontinuous at node {k} but no jump is declared"
            )

    @property
    def n(self) -> int:
        return self.x.shape[1]

    @property
    def m(self) -> int:
        return self.u_left.shape[1]

    def is_jump(self, k: int) -> bool:
        return k in self.jumps

    def control_left_limit(self, k: int) -> np.ndarray | None:
        """u(tau_k - 0); None at the first node."""
        return self.u_right[k - 1] if k >= 1 else None

    def control_right_limit(self, k: int) -> np.ndarray | None:
        """u(tau_k + 0); None at the last node."""
        return self.u_left[k] if k <= self.grid.ncells - 1 else None

    def control_points(self, k: int) -> tuple[np.ndarray, ...]:
        """Distinct one-sided control values at node k."""
        left = self.control_left_limit(k)
        right = self.control_right_limit(k)
        if left is None:
            return (np.array(right, dtype=float),)
        if right is None:
            return (np.array(left, dtype=float),)
        if self.is_jump(k) and not np.array_equal(left, right):
            return (np.array(left, dtype=float), np.array(right, dtype=float))
        return (np.array(right, dtype=float),)

    def x_at(self, t: float) -> np.ndarray:
        k = self.grid.cell_of(t)
        h = self.grid.widths[k]
        theta = (t - self.grid.nodes[k]) / h
        return (1.0 - theta) * self.x[k] + theta * self.x[k + 1]

    def u_in_cell(self, k: int, t: float) -> np.ndarray:
        h = self.grid.widths[k]
        theta = (t - self.grid.nodes[k]) / h
        return (1.0 - theta) * self.u_left[k] + theta * self.u_right[k]

    def u_mid(self, k: int) -> np.ndarray:
        return 0.5 * (self.u_left[k] + self.u_right[k])

    def x_mid(self, k: int) -> np.ndarray:
        return 0.5 * (self.x[k] + self.x[k + 1])

    @property
    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        return self.x[0], self.x[-1]


def dynamics_defect(
    problem: ProblemDef, trajectory: Trajectory, samples: Samples | None = None
) -> np.ndarray:
    """Per-cell trapezoidal defect of the dynamics; a diagnostic, not a gate.

    defect_k = x(tau_{k+1}) - x(tau_k) - h_k/2 * (f(w(tau_k+)) + f(w(tau_{k+1}-))).
    """
    samples = samples or Samples(problem, trajectory)
    errors = []
    for points in (samples.left, samples.right):
        try:
            points.f
        except EvalError as err:
            errors.append(err)
    if errors:  # the first failing cell, its left end first
        err = min(errors, key=lambda e: e.sample)
        raise EvalError(
            f"dynamics evaluation failed on cell {err.sample}: {err.reason}"
        ) from err
    h = trajectory.grid.widths
    fa, fb = samples.left.f, samples.right.f
    return trajectory.x[1:] - trajectory.x[:-1] - (0.5 * h)[:, None] * (fa + fb)


def endpoint_cost(problem: ProblemDef, trajectory: Trajectory) -> float:
    x0, x1 = trajectory.endpoints
    return problem.J_at(x0, x1)


# -- built-in analytic fixtures ----------------------------------------------


def _example_atom_measure(t0: float, t1: float, ncells: int):
    """Fixture with a purely atomic singular multiplier.

    Scalar state/control, dynamics xdot = u, constraint u^2/2 - x + 1 <= 0,
    cost x(t0)*x(t1).  The process x == 1, u == 0 is optimal; the entire
    horizon is in contact, the costate is supported on endpoint atoms.
    """
    from . import lmp, measures

    if not t0 < t1:
        raise InputError("t0 < t1 is required")
    problem = ProblemDef.from_strings(
        n=1,
        m=1,
        t0=t0,
        t1=t1,
        f=["u1"],
        G="0.5*u1^2 - x1 + 1",
        J="x0_1*x1_1",
    )
    grid = TimeGrid.uniform(t0, t1, ncells)
    N = grid.ncells
    trajectory = Trajectory(
        grid=grid,
        x=np.ones((N + 1, 1)),
        u_left=np.zeros((N, 1)),
        u_right=np.zeros((N, 1)),
    )
    eta = measures.SignedMeasure.scalar(
        grid, atoms={0: 1.0, N: 1.0}, nonnegative=True
    )
    direction = np.array([-1.0])
    p_values = np.zeros((N + 1, 1))
    p_values[0, 0] = -1.0
    p = measures.BVFunction(
        grid=grid,
        values=p_values,
        atoms={0: np.array([1.0]), N: np.array([1.0])},
    )
    multipliers = lmp.MultiplierSet(
        alpha0=1.0,
        lam=np.zeros(N),
        eta=eta,
        s_atoms={
            0: lmp.SupportDirection(vector=direction),
            N: lmp.SupportDirection(vector=direction),
        },
        s_cells={},
        p=p,
    )
    return problem, trajectory, multipliers


def _example_arc_measure(
    T: float, m: float, ncells: int, contact_split: tuple[float, float] = (0.5, 0.5)
):
    """Fixture with an absolutely continuous singular multiplier.

    State (y, x) on [-T, T] with ydot = x, xdot = u, constraint
    u^2/2 - x <= 0, cost y(T) - y(-T) - m/2*(x(-T) + x(T)).  The optimal
    process rests on the constraint surface on [-b, b], b = T - m, and the
    singular multiplier is a density there.  ``contact_split`` chooses the
    non-unique split (lambda share, density share) on the contact region;
    the shares must be nonnegative and sum to 1.
    """
    from . import lmp, measures

    if T <= 0:
        raise InputError("T must be positive")
    if not 0 < m < T:
        raise InputError("m must lie strictly between 0 and T")
    lam_share, eta_share = float(contact_split[0]), float(contact_split[1])
    if lam_share < 0 or eta_share < 0 or abs(lam_share + eta_share - 1.0) > 1e-12:
        raise InputError("contact_split must be nonnegative shares summing to 1")
    b = T - m
    problem = ProblemDef.from_strings(
        n=2,
        m=1,
        t0=-T,
        t1=T,
        f=["x2", "u1"],
        G="0.5*u1^2 - x2",
        J=f"x1_1 - x0_1 - {m / 2!r}*(x0_2 + x1_2)",
    )
    grid = TimeGrid.uniform(-T, T, ncells)
    nodes = grid.nodes
    N = grid.ncells

    def u_of(t: float) -> float:
        if t <= -b:
            return t + b
        if t >= b:
            return t - b
        return 0.0

    def y_of(t: float) -> float:
        if t <= -b:
            return ((t + b) ** 3 + m**3) / 6.0
        if t >= b:
            return m**3 / 6.0 + (t - b) ** 3 / 6.0
        return m**3 / 6.0

    u_nodes = np.array([u_of(t) for t in nodes])
    # x built from u so the constraint is exactly active in floating point
    x = np.column_stack([[y_of(t) for t in nodes], 0.5 * u_nodes**2])
    trajectory = Trajectory(
        grid=grid,
        x=x,
        u_left=u_nodes[:-1].reshape(-1, 1),
        u_right=u_nodes[1:].reshape(-1, 1),
    )

    on_contact = (u_nodes[:-1] == 0.0) & (u_nodes[1:] == 0.0)
    lam = np.where(on_contact, lam_share, 0.5)
    eta_density = np.where(on_contact, eta_share, 0.0)
    eta = measures.SignedMeasure(
        grid=grid,
        dim=1,
        atoms={},
        density=eta_density.reshape(-1, 1),
        nonnegative=True,
    )

    def px_of(t: float) -> float:
        if t <= -b:
            return -0.5 * (t + b)
        if t >= b:
            return -0.5 * (t - b)
        return 0.0

    p_values = np.column_stack([np.ones(N + 1), [px_of(t) for t in nodes]])
    p = measures.BVFunction(grid=grid, values=p_values, atoms={})
    direction = np.array([0.0, -1.0])
    s_cells = {
        k: lmp.SupportDirection(vector=direction)
        for k in range(N)
        if eta_density[k] != 0.0
    }
    multipliers = lmp.MultiplierSet(
        alpha0=1.0,
        lam=lam,
        eta=eta,
        s_atoms={},
        s_cells=s_cells,
        p=p,
    )
    return problem, trajectory, multipliers


def builtin_example(name: str, **params):
    """Return (ProblemDef, Trajectory, MultiplierSet) for a named fixture.

    ``ex1``: params t0, t1, ncells.  ``ex2``: params T, m, ncells, and an
    optional contact_split pair.
    """
    if name == "ex1":
        return _example_atom_measure(
            t0=params.get("t0", 0.0),
            t1=params.get("t1", 1.0),
            ncells=params.get("ncells", 100),
        )
    if name == "ex2":
        return _example_arc_measure(
            T=params.get("T", 1.0),
            m=params.get("m", 0.5),
            ncells=params.get("ncells", 400),
            contact_split=params.get("contact_split", (0.5, 0.5)),
        )
    raise InputError(f"unknown example '{name}' (expected 'ex1' or 'ex2')")
