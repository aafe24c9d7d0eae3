"""Problem data, time grids, candidate trajectories, and built-in fixtures.

A problem is the triple (f, G, J): dynamics, one scalar mixed state-control
constraint G(x,u) <= 0, and an endpoint cost J(x(t0), x(t1)).  Candidate
processes live on a time grid: the state is a continuous piecewise-linear
interpolant of node samples, the control is piecewise smooth with finitely
many declared jump nodes carrying explicit left/right values.  All types are
immutable after construction; :class:`~lmpkit.samples.Samples` evaluates the
data over all grid cells at once and lays out the closure in measure of the
control per node, and the endpoint gradients of J are a table of one sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from . import expr
from .errors import EvalError, InputError

if TYPE_CHECKING:
    from .samples import Samples

__all__ = [
    "ProblemDef",
    "TimeGrid",
    "Trajectory",
    "dynamics_defect",
    "builtin_example",
]

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

    def endpoint_gradients(
        self, x0: np.ndarray, x1: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """J_x0 and J_x1 at the endpoints, as a table of one sample; an
        EvalError carries its bare reason, there being only one point."""
        columns = {f"x{side}_{i + 1}": x[i : i + 1]
                   for side, x in ((0, x0), (1, x1)) for i in range(self.n)}
        try:
            values = expr.evaluate_table(self.J_x0 + self.J_x1, columns, 1)[0]
        except EvalError as err:
            raise EvalError(err.reason) from err
        return values[: self.n], values[self.n :]


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

    @property
    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        return self.x[0], self.x[-1]


def dynamics_defect(samples: Samples) -> np.ndarray:
    """Per-cell trapezoidal defect of the dynamics; a diagnostic, not a gate.

    defect_k = x(tau_{k+1}) - x(tau_k) - h_k/2 * (f(w(tau_k+)) + f(w(tau_{k+1}-))).
    """
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
    x, h = samples.trajectory.x, samples.trajectory.grid.widths
    fa, fb = samples.left.f, samples.right.f
    return x[1:] - x[:-1] - (0.5 * h)[:, None] * (fa + fb)


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
    # unit atoms of eta at both ends, where p jumps by 1 and s = -1
    atoms = np.zeros(N + 1)
    atoms[[0, N]] = 1.0
    p_values = np.zeros((N + 1, 1))
    p_values[0, 0] = -1.0
    multipliers = lmp.MultiplierSet(
        alpha0=1.0,
        lam=np.zeros(N),
        eta=measures.SignedMeasure(grid, atoms=atoms, nonnegative=True),
        s_atoms=lmp.Directions.vectors([0, N], [[-1.0], [-1.0]]),
        p=measures.BVFunction(grid=grid, values=p_values, atoms=atoms),
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

    def px_of(t: float) -> float:
        if t <= -b:
            return -0.5 * (t + b)
        if t >= b:
            return -0.5 * (t - b)
        return 0.0

    p_values = np.column_stack([np.ones(N + 1), [px_of(t) for t in nodes]])
    cells = np.flatnonzero(eta_density)
    multipliers = lmp.MultiplierSet(
        alpha0=1.0,
        lam=lam,
        eta=measures.SignedMeasure(grid, density=eta_density, nonnegative=True),
        s_cells=lmp.Directions.vectors(cells, np.tile([0.0, -1.0], (cells.size, 1))),
        p=measures.BVFunction(grid=grid, values=p_values),
    )
    return problem, trajectory, multipliers


def builtin_example(name: str, **params):
    """Return (ProblemDef, Trajectory, MultiplierSet) for a named fixture.

    ``ex1``: params t0, t1, ncells.  ``ex2``: params T, m, ncells, and an
    optional contact_split pair.  A non-finite param is refused by name.
    """
    for key, value in params.items():
        if not np.isfinite(value).all():
            raise InputError(f"{key} must be finite, not {value!r}")
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
