"""Multiplier recovery: build a convex program from the discretised
optimality conditions and solve it with a self-contained method.

Given only a problem and a candidate trajectory, the program searches a
normalised multiplier family.  Unknowns: the cost weight, the density
multiplier on cells left active by a complementary-slackness pre-pass, and
generator coefficients of the singular measure on the contact set.  The
bilinear product of the direction s with the measure is eliminated by
parametrising each support element with nonnegative coefficients over its
jump-direction generators (a Caratheodory-style convexification), so the
costate becomes affine in the unknowns through a terminal-anchored backward
recursion, and the objective (squared stationarity residual plus squared
initial transversality defect) is convex quadratic.  The one equality
constraint is the normalisation: cost weight + density mass + measure mass
equals 1.

Scaling each unknown by its normalisation coefficient turns the program into
the minimum-norm point of a polytope, which Wolfe's algorithm
(``geometry.min_norm_point``) solves exactly in finitely many steps.  The
solve ends with a named status: ``optimal``, ``degenerate`` (the corral lost
affine independence in floating point) or ``iteration_cap``.  Recovered
certificates are always routed through the independent checker; recovery is
never accepted by construction alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .errors import InputError, NumericalError
from .lmp import (
    CheckConfig,
    Directions,
    MultiplierSet,
    Report,
    SupportDirection,
    check_certificate,
)
from .measures import BVFunction, SignedMeasure
from .problem import ProblemDef, Trajectory
from .samples import Samples

__all__ = [
    "RecoveryConfig",
    "RecoveryProgram",
    "RecoveryResult",
    "build_program",
    "solve",
    "cross_validate",
    "recover",
]


@dataclass(frozen=True)
class RecoveryConfig:
    delta: float = 1e-8
    eps: float = 1e-8
    delta_slack: float | None = None  # None: 1e-6 * max(1, sup |G|)


@dataclass
class RecoveryProgram:
    """The assembled convex program; everything downstream is read-only."""

    problem: ProblemDef
    trajectory: Trajectory
    config: RecoveryConfig
    nvars: int
    idx_lam: dict[int, int]
    atom_nodes: list[int]
    atom_gens: list[np.ndarray]
    idx_atom: dict[int, list[int]]
    eta_cells: list[int]
    cell_gens: list[np.ndarray]
    idx_cell: dict[int, list[int]]
    normal: np.ndarray  # normalisation coefficients a > 0, a.theta = 1
    M: np.ndarray  # objective residual map, f = |M theta|^2
    A_L: np.ndarray  # (N+1, nvars, n): costate left limits, p_k = theta . A_L[k]
    W: dict[int, np.ndarray]  # node -> (nvars, n) map of the measure atom of s*d-eta
    dims: dict = field(default_factory=dict)

    def costate_left_limits(self, theta: np.ndarray) -> np.ndarray:
        return np.einsum("j,kjn->kn", theta, self.A_L)

    def objective(self, theta: np.ndarray) -> float:
        r = self.M @ theta
        return float(r @ r)


@dataclass(frozen=True)
class RecoveryResult:
    multipliers: MultiplierSet
    objective: float
    kkt_residual: float  # Wolfe gap of the min-norm-point solve
    theta: np.ndarray
    status: str  # geometry.MinNormPoint.status
    iterations: int


def _slack_threshold(samples: Samples, config: RecoveryConfig) -> float:
    if config.delta_slack is not None:
        return config.delta_slack
    return 1e-6 * max(
        1.0,
        float(np.max(np.abs(samples.left.G))),
        float(np.max(np.abs(samples.right.G))),
    )


def build_program(
    problem: ProblemDef,
    trajectory: Trajectory,
    config: RecoveryConfig = RecoveryConfig(),
    samples: Samples | None = None,
) -> RecoveryProgram:
    """Assemble unknowns, the normalisation row, the affine costate
    recursion, and the quadratic objective.

    Density cells of the contact region must expose jump directions at their
    midpoints; an empty generator set there means the working tolerances do
    not resolve the contact geometry and is reported as an input error.
    """
    samples = samples or Samples(problem, trajectory)
    left, mid, right = samples.left, samples.mid, samples.right
    grid = trajectory.grid
    N = grid.ncells
    n = problem.n

    slack = _slack_threshold(samples, config)
    active = np.flatnonzero(np.maximum(left.G, right.G) >= -slack).tolist()

    contact = geometry.contact_set(problem, trajectory, config.delta, config.eps, samples)
    atom_nodes = np.flatnonzero(contact.flags).tolist()
    atom_gens = [
        np.asarray(
            geometry.jump_directions_at_node(
                problem, trajectory, k, config.delta, config.eps, samples
            ).generators
        )
        for k in atom_nodes
    ]
    eta_cells = np.flatnonzero(contact.cell_flags).tolist()
    bare = np.flatnonzero(contact.cell_flags & ~mid.phase(config.delta, config.eps))
    if bare.size:
        raise InputError(
            f"no jump directions at the midpoint of contact cell {bare[0]}: "
            "tolerance mismatch between the contact set and the phase test"
        )
    mid_gens = mid.phase_gradients(config.delta, config.eps)
    cell_gens = [mid_gens[k : k + 1] for k in eta_cells]

    # unknown layout: alpha0, lambda on active cells, atom coefficients,
    # cell-mass coefficients
    idx_lam = {}
    pos = 1
    for k in active:
        idx_lam[k] = pos
        pos += 1
    idx_atom = {}
    for k, gens in zip(atom_nodes, atom_gens):
        idx_atom[k] = list(range(pos, pos + gens.shape[0]))
        pos += gens.shape[0]
    idx_cell = {}
    for k, gens in zip(eta_cells, cell_gens):
        idx_cell[k] = list(range(pos, pos + gens.shape[0]))
        pos += gens.shape[0]
    nvars = pos

    normal = np.zeros(nvars)
    normal[0] = 1.0
    for k, i in idx_lam.items():
        normal[i] = grid.widths[k]
    for cols in idx_atom.values():
        normal[cols] = 1.0
    for cols in idx_cell.values():
        normal[cols] = 1.0

    # measure atom maps W[k]: theta -> s*d-eta atom at node k (row vector)
    W: dict[int, np.ndarray] = {}
    for k, gens in zip(atom_nodes, atom_gens):
        mat = np.zeros((nvars, n))
        for col, g in zip(idx_atom[k], gens):
            mat[col] = g
        W[k] = mat

    # terminal-anchored affine recursion for the costate left limits
    x0, x1 = trajectory.endpoints
    jx0, jx1 = problem.endpoint_gradients(x0, x1)
    A_L = np.zeros((N + 1, nvars, n))
    A_L[N][0] = jx1
    if N in W:
        A_L[N] += W[N]
    eye = np.eye(n)
    for k in range(N - 1, -1, -1):
        h = grid.widths[k]
        F_left = left.f_x[k]
        F_right = right.f_x[k]
        Gx_left = left.G_x[k]
        Gx_right = right.G_x[k]
        rhs = A_L[k + 1] @ (eye + 0.5 * h * F_right)
        if k in W:
            rhs = rhs + W[k]
        if k in idx_lam:
            rhs[idx_lam[k]] += 0.5 * h * (Gx_left + Gx_right)
        if k in idx_cell:
            for col, g in zip(idx_cell[k], cell_gens[eta_cells.index(k)]):
                rhs[col] += g
        M_left = eye - 0.5 * h * F_left
        try:
            A_L[k] = np.linalg.solve(M_left.T, rhs.T).T
        except np.linalg.LinAlgError as err:
            raise NumericalError(
                f"costate recursion matrix is singular on cell {k}"
            ) from err

    # objective rows: stationarity at three samples per cell, then the
    # initial transversality defect
    m = problem.m
    rows = np.zeros((3 * N * m + n, nvars))
    row = 0
    for k in range(N):
        h = grid.widths[k]
        weight = np.sqrt(h / 3.0)
        A_pl = A_L[k] - W[k] if k in W else A_L[k]
        A_pr = A_L[k + 1]
        sides = (
            (left, A_pl),
            (mid, 0.5 * (A_pl + A_pr)),
            (right, A_pr),
        )
        for points, A_p in sides:
            block = (A_p @ points.f_u[k]).T  # (m, nvars)
            if k in idx_lam:
                block[:, idx_lam[k]] += points.G_u[k]
            rows[row : row + m] = weight * block
            row += m
    trans = A_L[0].T.copy()  # (n, nvars)
    trans[:, 0] += jx0
    rows[row : row + n] = trans

    dims = {
        "unknowns": nvars,
        "lambda_cells": len(active),
        "eta_atoms": len(atom_nodes),
        "eta_cells": len(eta_cells),
        "objective_rows": rows.shape[0],
        "constraints": 1 + nvars,
        "slack_threshold": slack,
    }
    return RecoveryProgram(
        problem=problem,
        trajectory=trajectory,
        config=config,
        nvars=nvars,
        idx_lam=idx_lam,
        atom_nodes=atom_nodes,
        atom_gens=atom_gens,
        idx_atom=idx_atom,
        eta_cells=eta_cells,
        cell_gens=cell_gens,
        idx_cell=idx_cell,
        normal=normal,
        M=rows,
        A_L=A_L,
        W=W,
        dims=dims,
    )


# -- the solver ----------------------------------------------------------------


def solve(program: RecoveryProgram) -> RecoveryResult:
    """Minimise the program objective exactly.

    With ``P_j = M[:, j] / a_j`` and ``w = a * theta`` the program
    ``min |M theta|^2, theta >= 0, a.theta = 1`` is the minimum-norm point of
    conv{P_j}; the KKT residual reported is its Wolfe gap."""
    if program.nvars == 0:
        raise InputError("no nontrivial multipliers found at this discretization")
    mnp = geometry.min_norm_point(program.M / program.normal)
    theta = mnp.w / program.normal
    return RecoveryResult(
        multipliers=_assemble(program, theta),
        objective=program.objective(theta),
        kkt_residual=mnp.gap,
        theta=theta,
        status=mnp.status,
        iterations=mnp.iterations,
    )


def _weights(theta: np.ndarray, idx: dict[int, list[int]]) -> tuple[np.ndarray, Directions]:
    """The elements of ``idx`` (node or cell -> its coefficient columns)
    that carry positive eta mass: their masses, and s on them as the
    weights coeff / mass."""
    size = np.array([len(cols) for cols in idx.values()], dtype=np.intp)
    coeff = np.zeros((size.size, int(size.max(initial=0))))
    coeff[np.arange(coeff.shape[1]) < size[:, None]] = theta[
        [col for cols in idx.values() for col in cols]
    ]
    mass = np.sum(coeff, axis=1)
    keep = mass > 0.0
    size = size[keep]
    s = Directions(
        index=np.fromiter(idx, dtype=np.intp, count=len(idx))[keep],
        weighted=np.ones(size.size, dtype=bool),
        size=size,
        values=coeff[keep, : size.max(initial=0)] / mass[keep, None],
    )
    return mass[keep], s


def _assemble(program: RecoveryProgram, theta: np.ndarray) -> MultiplierSet:
    grid = program.trajectory.grid
    N = grid.ncells
    lam = np.zeros(N)
    for k, i in program.idx_lam.items():
        lam[k] = theta[i]
    atom_mass, s_atoms = _weights(theta, program.idx_atom)
    cell_mass, s_cells = _weights(theta, program.idx_cell)
    density = np.zeros(N)
    density[s_cells.index] = cell_mass / grid.widths[s_cells.index]
    eta = SignedMeasure.scalar(
        grid,
        atoms=dict(zip(s_atoms.index.tolist(), atom_mass.tolist())),
        density=density,
        nonnegative=True,
    )
    values = program.costate_left_limits(theta)
    p_atoms = {}
    for k, Wk in program.W.items():
        jump = -(theta @ Wk)
        if np.any(jump != 0.0):
            p_atoms[k] = jump
    p = BVFunction(grid=grid, values=values, atoms=p_atoms)
    return MultiplierSet(
        alpha0=float(theta[0]),
        lam=lam,
        eta=eta,
        s_atoms=s_atoms,
        s_cells=s_cells,
        p=p,
    )


def encode_certificate(program: RecoveryProgram, ms: MultiplierSet) -> np.ndarray:
    """Map a certificate onto the program unknowns, to evaluate it there."""
    theta = np.zeros(program.nvars)
    theta[0] = ms.alpha0
    for k in range(program.trajectory.grid.ncells):
        if ms.lam[k] != 0.0:
            if k not in program.idx_lam:
                raise InputError(
                    f"certificate carries lambda mass on inactive cell {k}"
                )
            theta[program.idx_lam[k]] = ms.lam[k]
    grid = program.trajectory.grid
    for k in ms.eta.atoms:
        mass = ms.eta.scalar_atom(k)
        if mass == 0.0:
            continue
        if k not in program.idx_atom:
            raise InputError(f"certificate carries an atom outside the contact set: node {k}")
        gens = program.atom_gens[program.atom_nodes.index(k)]
        theta[program.idx_atom[k]] = mass * _as_weights(ms.s_atoms.get(k), gens)
    for k in range(grid.ncells):
        e = float(ms.eta.density[k, 0])
        if e == 0.0:
            continue
        if k not in program.idx_cell:
            raise InputError(f"certificate carries density outside the contact set: cell {k}")
        gens = program.cell_gens[program.eta_cells.index(k)]
        mass = e * grid.widths[k]
        theta[program.idx_cell[k]] = mass * _as_weights(ms.s_cells.get(k), gens)
    return theta


def _as_weights(sd: SupportDirection | None, gens: np.ndarray) -> np.ndarray:
    if sd is None:
        raise InputError("certificate is missing a direction on the eta support")
    if sd.weights is not None:
        if sd.weights.size != gens.shape[0]:
            raise InputError("weight count does not match the generators")
        return np.asarray(sd.weights, dtype=float)
    dist, weights = geometry.dist_to_convex_hull(sd.vector, gens)
    if dist > 1e-8:
        raise InputError(
            "certificate direction is not in the convex hull of the generators"
        )
    return weights


def cross_validate(
    problem: ProblemDef,
    trajectory: Trajectory,
    ms: MultiplierSet,
    check_config: CheckConfig = CheckConfig(),
    samples: Samples | None = None,
) -> Report:
    """Independent acceptance: pipe recovered multipliers through the checker."""
    return check_certificate(problem, trajectory, ms, check_config, samples)


@dataclass(frozen=True)
class RecoveryOutcome:
    result: RecoveryResult
    report: Report
    certified: bool
    dims: dict


def recover(
    problem: ProblemDef,
    trajectory: Trajectory,
    config: RecoveryConfig = RecoveryConfig(),
    check_config: CheckConfig | None = None,
) -> RecoveryOutcome:
    """End-to-end recovery: build, solve, cross-validate."""
    samples = Samples(problem, trajectory)
    program = build_program(problem, trajectory, config, samples)
    result = solve(program)
    cfg = check_config or CheckConfig(delta=config.delta, eps=config.eps)
    report = cross_validate(problem, trajectory, result.multipliers, cfg, samples)
    return RecoveryOutcome(
        result=result,
        report=report,
        certified=report.overall_pass,
        dims=program.dims,
    )
