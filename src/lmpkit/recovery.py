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

The solver is projected gradient (Barzilai-Borwein steps, monotone Armijo
safeguard) onto the weighted simplex, refined by a primal active-set pass on
the face it lands on.  Recovered certificates are always routed through the
independent checker; recovery is never accepted by construction alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .errors import InputError, NumericalError
from .lmp import (
    CheckConfig,
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
    seeds: int = 3
    max_iterations: int = 5000
    kkt_tol: float = 1e-9
    seed_base: int = 0


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

    @property
    def gram(self) -> np.ndarray:
        if not hasattr(self, "_gram"):
            self._gram = self.M.T @ self.M
        return self._gram

    def objective(self, theta: np.ndarray) -> float:
        r = self.M @ theta
        return float(r @ r)

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        return 2.0 * (self.gram @ theta)


@dataclass(frozen=True)
class RecoveryResult:
    multipliers: MultiplierSet
    objective: float
    kkt_residual: float
    theta: np.ndarray


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


# -- weighted-simplex projection and the solver --------------------------------


def project_simplex(y: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {theta >= 0, a.theta = 1} with a > 0."""
    ratios = y / a
    order = np.argsort(-ratios)
    ay = (a * y)[order]
    a2 = (a * a)[order]
    cum_ay = np.cumsum(ay)
    cum_a2 = np.cumsum(a2)
    mus = (cum_ay - 1.0) / cum_a2
    r_sorted = ratios[order]
    size = y.size
    chosen = None
    for j in range(size):
        upper = r_sorted[j]
        lower = r_sorted[j + 1] if j + 1 < size else -np.inf
        if lower <= mus[j] <= upper + 1e-15:
            chosen = mus[j]
            break
    if chosen is None:  # numerical guard; the bracket search cannot miss
        chosen = mus[-1]
    return np.maximum(0.0, y - chosen * a)


def _kkt_residual(program: RecoveryProgram, theta: np.ndarray) -> float:
    step = theta - program.gradient(theta)
    return float(np.max(np.abs(theta - project_simplex(step, program.normal))))


def _lipschitz(program: RecoveryProgram) -> float:
    """Largest curvature of the objective via power iteration on the Gram."""
    Q = program.gram
    rng = np.random.default_rng(7)
    v = rng.random(program.nvars) + 1e-3
    v /= np.linalg.norm(v)
    lam = 1.0
    for _ in range(60):
        w = Q @ v
        norm = float(np.linalg.norm(w))
        if norm <= 1e-30:
            return 1.0
        lam = norm
        v = w / norm
    return 2.0 * lam  # gradient factor


def _projected_gradient(
    program: RecoveryProgram, theta: np.ndarray
) -> tuple[np.ndarray, float]:
    """Accelerated projected gradient (fixed 1/L step, value restarts)."""
    a = program.normal
    Q = program.gram
    step = 1.0 / max(_lipschitz(program), 1e-30)
    x = project_simplex(theta, a)
    y = x.copy()
    fx = program.objective(x)
    momentum = 1.0
    for it in range(program.config.max_iterations):
        grad = 2.0 * (Q @ y)
        x_new = project_simplex(y - step * grad, a)
        f_new = program.objective(x_new)
        if f_new > fx:  # value restart keeps the scheme monotone
            y = x.copy()
            momentum = 1.0
            grad = 2.0 * (Q @ y)
            x_new = project_simplex(y - step * grad, a)
            f_new = program.objective(x_new)
            if f_new > fx:
                break
        momentum_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * momentum**2))
        y = x_new + ((momentum - 1.0) / momentum_new) * (x_new - x)
        x, fx, momentum = x_new, f_new, momentum_new
        if it % 25 == 0 and _kkt_residual(program, x) <= program.config.kkt_tol:
            break
    return x, fx


def _face_solve(program: RecoveryProgram, idx: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimise on the face {theta_W = 0}: bordered system with a tiny ridge
    (the objective can be flat along non-unique multiplier splits)."""
    a = program.normal
    Q = program.gram
    H = 2.0 * Q[np.ix_(idx, idx)]
    ridge = 1e-13 * (1.0 + float(np.trace(H)) / max(idx.size, 1))
    kkt = np.zeros((idx.size + 1, idx.size + 1))
    kkt[: idx.size, : idx.size] = H + ridge * np.eye(idx.size)
    kkt[: idx.size, -1] = a[idx]
    kkt[-1, : idx.size] = a[idx]
    rhs = np.zeros(idx.size + 1)
    rhs[-1] = 1.0
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    return sol[: idx.size], float(sol[-1])


def _active_set_polish(
    program: RecoveryProgram, theta: np.ndarray
) -> tuple[np.ndarray, float]:
    """Primal active-set refinement of a feasible point; exact on the face."""
    a = program.normal
    theta = project_simplex(theta, a)
    working = theta <= 1e-12
    for _ in range(120):
        idx = np.flatnonzero(~working)
        face, mu = _face_solve(program, idx)
        candidate = np.zeros(program.nvars)
        candidate[idx] = face
        if np.min(face, initial=0.0) >= -1e-12:
            candidate = np.maximum(candidate, 0.0)
            norm = float(a @ candidate)
            if norm <= 0:
                break
            candidate /= norm
            grad = program.gradient(candidate)
            zeta = grad[working] - mu * a[working]
            if zeta.size == 0 or float(np.min(zeta)) >= -1e-9:
                return candidate, program.objective(candidate)
            # release every variable with a clearly negative multiplier
            release = np.flatnonzero(working)[zeta < -1e-9]
            working[release] = False
            theta = candidate
            continue
        # blocked: step toward the face solution until a variable hits zero
        direction = candidate - theta
        blocking = -1
        beta = 1.0
        for i in idx:
            if direction[i] < -1e-16 and theta[i] > 0.0:
                step = theta[i] / -direction[i]
                if step < beta:
                    beta = step
                    blocking = i
        theta = np.maximum(theta + beta * direction, 0.0)
        norm = float(a @ theta)
        if norm > 0:
            theta /= norm
        if blocking >= 0:
            working[blocking] = True
        else:
            break
    return theta, program.objective(theta)


def _seed_points(program: RecoveryProgram) -> list[np.ndarray]:
    a = program.normal
    T = program.nvars
    cost_only = np.zeros(T)
    cost_only[0] = 1.0 / a[0]
    seeds = [cost_only, np.full(T, 1.0) / float(np.sum(a))]
    for i in range(max(0, program.config.seeds - len(seeds))):
        rng = np.random.default_rng(program.config.seed_base + i)
        seeds.append(project_simplex(rng.random(T), a))
    return seeds[: max(1, program.config.seeds)]


def solve(
    program: RecoveryProgram, warm_start: np.ndarray | None = None
) -> RecoveryResult:
    """Minimise the program objective; returns the assembled, normalised
    multipliers together with the objective and the final KKT residual."""
    if program.nvars == 0:
        raise InputError("no nontrivial multipliers found at this discretization")
    if warm_start is not None:
        starts = [np.asarray(warm_start, dtype=float)]
    else:
        starts = _seed_points(program)
    best: tuple[float, np.ndarray] | None = None
    for start in starts:
        theta, f = _projected_gradient(program, start)
        theta, f = _active_set_polish(program, theta)
        if best is None or f < best[0]:
            best = (f, theta)
        if best[0] <= 1e-20:  # an exact certificate; later seeds cannot improve
            break
    f, theta = best
    kkt = _kkt_residual(program, theta)
    return RecoveryResult(
        multipliers=_assemble(program, theta),
        objective=f,
        kkt_residual=kkt,
        theta=theta,
    )


def _assemble(program: RecoveryProgram, theta: np.ndarray) -> MultiplierSet:
    grid = program.trajectory.grid
    N = grid.ncells
    lam = np.zeros(N)
    for k, i in program.idx_lam.items():
        lam[k] = theta[i]
    atoms = {}
    s_atoms = {}
    for k, gens in zip(program.atom_nodes, program.atom_gens):
        coeff = theta[program.idx_atom[k]]
        mass = float(np.sum(coeff))
        if mass > 0.0:
            atoms[k] = mass
            s_atoms[k] = SupportDirection(weights=coeff / mass)
    density = np.zeros(N)
    s_cells = {}
    for k, gens in zip(program.eta_cells, program.cell_gens):
        coeff = theta[program.idx_cell[k]]
        mass = float(np.sum(coeff))
        if mass > 0.0:
            density[k] = mass / grid.widths[k]
            s_cells[k] = SupportDirection(weights=coeff / mass)
    eta = SignedMeasure.scalar(grid, atoms=atoms, density=density, nonnegative=True)
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
    """Map a certificate onto the program unknowns (for warm starts)."""
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
