"""Multiplier recovery: build a convex program from the discretised
optimality conditions and solve it with a self-contained method.

Given only a problem and a candidate trajectory, held with their evaluated
data in the one :class:`~lmpkit.samples.Samples` that building the program
and the re-check both take first, the program searches a normalised
multiplier family.  Its unknowns are masses: the cost weight, the
lambda mass lambda_k h_k on each cell left active by a
complementary-slackness pre-pass, and generator coefficients of the singular
measure at the contact nodes.  The bilinear product of the direction s with
the measure is eliminated by parametrising each atom with nonnegative
coefficients over its jump-direction generators (a Caratheodory-style
convexification), so the costate becomes affine in the masses through a
terminal-anchored backward recursion, and the objective (squared
stationarity residual plus squared initial transversality defect) is convex
quadratic.  The one equality constraint is the normalisation: the masses sum
to 1.

A contact cell has one unknown, lambda.  There the phase test holds, G_u
vanishes, and lambda and the density of eta enter the costate through the
same G_x, so only their sum is determined.  Recovery therefore emits no eta
density: the contact-cell mass stays on lambda, and the atoms stay at the
contact nodes.

With masses summing to 1 the program is the minimum-norm point of the
columns of its residual map, which Wolfe's algorithm
(``geometry.min_norm_point``) solves exactly in finitely many steps.  The
solve ends with a named status: ``optimal``, ``degenerate`` (the corral lost
affine independence in floating point) or ``iteration_cap``.  Recovered
certificates are always routed through the independent checker; recovery is
never accepted by construction alone.  When some lambda cell lies off the
contact set, as on ex2, Wolfe's loop starts from the corral of alpha0 and
lambda, the density part of a regular certificate.  They are the leading
columns of the program, so that start is the leading block of its residual
map, which the solver reads in place.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .errors import NumericalError
from .lmp import (
    CheckConfig,
    Directions,
    MultiplierSet,
    Report,
    check_certificate,
)
from .measures import BVFunction, SignedMeasure
from .problem import TimeGrid
from .samples import Samples, refuse_bad_tolerances

__all__ = [
    "RecoveryConfig",
    "RecoveryProgram",
    "RecoveryResult",
    "build_program",
    "solve",
    "cross_validate",
    "recover",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RecoveryConfig:
    delta_slack: float | None = None  # None: 1e-6 * max(1, sup |G|)

    def __post_init__(self):
        refuse_bad_tolerances(**vars(self))


@dataclass
class RecoveryProgram:
    """The assembled convex program; everything downstream is read-only.

    The unknowns theta are masses that sum to 1, in column order: the cost
    weight alpha0 (column 0); the lambda mass lambda_k h_k on the cells
    ``lam_cells`` (columns ``lam_cols``); and one coefficient per jump
    generator at the contact nodes, column ``atom_cols[i]`` for node
    ``atom_nodes[i]`` and generator ``atom_gens[i]``, which sits in slot
    ``atom_slots[i]`` of the node (see :attr:`Samples.node_gradients`).
    Cells increase, and nodes do not decrease.  A contact cell has no
    unknown besides lambda.
    ``lam_off_contact`` says whether some lambda cell lies off the contact
    set; only then does the solve start from alpha0 and lambda.

    ``A_L`` is a transposed view of a node-major (N+1, n, nvars) array.
    """

    grid: TimeGrid
    nvars: int
    lam_cells: np.ndarray  # (L,) cells that carry a lambda unknown
    atom_nodes: np.ndarray  # (A,) node of each atom coefficient, nondecreasing
    atom_slots: np.ndarray  # (A,) its slot at the node, 0 or 1
    atom_gens: np.ndarray  # (A, n) its jump generator
    M: np.ndarray  # objective residual map, f = |M theta|^2
    A_L: np.ndarray  # (N+1, nvars, n): costate left limits, p_k = theta . A_L[k]
    lam_off_contact: bool
    dims: dict = field(default_factory=dict)

    @property
    def lam_cols(self) -> np.ndarray:
        return np.arange(1, 1 + self.lam_cells.size)

    @property
    def atom_cols(self) -> np.ndarray:
        start = 1 + self.lam_cells.size
        return np.arange(start, start + self.atom_nodes.size)


@dataclass(frozen=True)
class RecoveryResult:
    multipliers: MultiplierSet
    objective: float
    kkt_residual: float  # Wolfe gap of the min-norm-point solve
    theta: np.ndarray  # the program's masses
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
    samples: Samples, config: RecoveryConfig = RecoveryConfig()
) -> RecoveryProgram:
    """Assemble unknowns, the normalisation row, the affine costate
    recursion, and the quadratic objective.

    The assembly runs over whole arrays: the atom generators are one index
    of :attr:`Samples.node_gradients` at the contact nodes, then one batched
    inverse of the N recursion matrices, one small product per cell in the
    backward sweep, and one batched product per sample side for the
    stationarity rows.
    """
    problem, trajectory = samples.problem, samples.trajectory
    left, mid, right = samples.left, samples.mid, samples.right
    grid = trajectory.grid
    N = grid.ncells
    n, m = problem.n, problem.m
    h = grid.widths

    slack = _slack_threshold(samples, config)
    lam_cells = np.flatnonzero(np.maximum(left.G, right.G) >= -slack)

    contact = samples.contact_set
    nodes = np.flatnonzero(contact.flags)
    table = samples.node_gradients[nodes]
    node, slot = np.nonzero(~np.isnan(table[:, :, 0]))
    atom_nodes, atom_gens = nodes[node], table[node, slot]

    # unknown layout: alpha0, the lambda mass lambda_k h_k on active cells,
    # atom coefficients
    nvars = 1 + lam_cells.size + atom_nodes.size

    # terminal-anchored trapezoid recursion for the costate left limits:
    # p_k (I - h/2 F_left) = p_{k+1} (I + h/2 F_right) + the local terms of
    # cell k, so p_k = p_{k+1} T_k + (local terms) inv_k
    eye = np.eye(n)
    half = 0.5 * h[:, None, None]
    M_left = eye - half * left.f_x
    try:
        inv = np.linalg.inv(M_left)
    except np.linalg.LinAlgError as err:
        raise NumericalError(
            f"costate recursion matrix is singular on cell {_last_singular(M_left)}"
        ) from err
    T = (eye + half * right.f_x) @ inv

    # every column enters the recursion at exactly one cell (the cost weight
    # and the last node's atoms at node N) as one row vector: scatter them
    # into a node-major store S[k] = A_L[k].T, then sweep backwards
    x0, x1 = trajectory.endpoints
    jx0, jx1 = problem.endpoint_gradients(x0, x1)
    origin = np.concatenate(([N], lam_cells, atom_nodes))
    local = np.concatenate((
        jx1[None],
        0.5 * (left.G_x[lam_cells] + right.G_x[lam_cells]),
        atom_gens,
    ))
    S = np.zeros((N + 1, n, nvars))
    S[origin, :, np.arange(nvars)] = np.matmul(
        local[:, None], np.concatenate((inv, eye[None]))[origin]
    )[:, 0]
    Tt = T.transpose(0, 2, 1)
    for k in range(N - 1, -1, -1):
        S[k] += Tt[k] @ S[k + 1]

    # objective rows: stationarity at the left, mid and right samples of
    # each cell, then the initial transversality defect
    rows = np.empty((3 * N * m + n, nvars))
    R = rows[: 3 * N * m].reshape(N, 3, m, nvars)
    weight = np.sqrt(h / 3.0)
    w = weight[:, None, None]
    F_left = w * left.f_u.transpose(0, 2, 1)  # (N, m, n)
    F_mid = 0.5 * w * mid.f_u.transpose(0, 2, 1)
    F_right = w * right.f_u.transpose(0, 2, 1)
    # the mid sample reads p_k and p_{k+1} as one (2n, nvars) window of S
    pairs = np.lib.stride_tricks.as_strided(S, (N, 2 * n, nvars), S.strides, writeable=False)
    np.matmul(F_left, S[:N], out=R[:, 0])
    np.matmul(np.concatenate((F_mid, F_mid), axis=2), pairs, out=R[:, 1])
    np.matmul(F_right, S[1:], out=R[:, 2])
    # the right limit at node k < N drops the atom there: p_k+ = p_k - s d-eta{k}
    inner = np.flatnonzero(atom_nodes < N)
    k, cols, gens = atom_nodes[inner], 1 + lam_cells.size + inner, atom_gens[inner, :, None]
    R[k, 0, :, cols] -= np.matmul(F_left[k], gens)[..., 0]
    R[k, 1, :, cols] -= np.matmul(F_mid[k], gens)[..., 0]
    lam_cols = np.arange(1, 1 + lam_cells.size)
    for side, points in enumerate((left, mid, right)):
        R[lam_cells, side, :, lam_cols] += (weight / h)[lam_cells, None] * points.G_u[lam_cells]
    rows[3 * N * m :] = S[0]
    rows[3 * N * m :, 0] += jx0

    dims = {
        "unknowns": nvars,
        "lambda_cells": lam_cells.size,
        "eta_atoms": nodes.size,
        "objective_rows": rows.shape[0],
        "constraints": 1 + nvars,
        "slack_threshold": slack,
    }
    return RecoveryProgram(
        grid=grid,
        nvars=nvars,
        lam_cells=lam_cells,
        atom_nodes=atom_nodes,
        atom_slots=slot,
        atom_gens=atom_gens,
        M=rows,
        A_L=S.transpose(0, 2, 1),
        lam_off_contact=bool(np.any(~contact.cell_flags[lam_cells])),
        dims=dims,
    )


def _last_singular(M_left: np.ndarray) -> int:
    """The highest cell whose recursion matrix LAPACK finds singular."""
    for k in range(len(M_left) - 1, -1, -1):
        try:
            np.linalg.inv(M_left[k])
        except np.linalg.LinAlgError:
            break
    return k


# -- the solver ----------------------------------------------------------------


def solve(program: RecoveryProgram) -> RecoveryResult:
    """Minimise the program objective exactly.

    The masses sum to 1, so ``min |M theta|^2, theta >= 0, sum theta = 1`` is
    the minimum-norm point of the columns of ``M``; the KKT residual reported
    is its Wolfe gap.  When some lambda cell lies off the contact set,
    Wolfe's loop is offered alpha0 and lambda as its start corral: the
    density part of a regular certificate.  The column layout puts them
    first, so that start is the leading block of ``M``, read in place."""
    start = 1 + program.lam_cells.size if program.lam_off_contact else 0
    mnp = geometry.min_norm_point(program.M, start)
    if not start:
        log.debug("start corral: none (every lambda cell is a contact cell)")
    else:
        verdict = "taken" if mnp.start else "refused"
        log.debug("start corral of %d columns (alpha0, lambda): %s", start, verdict)
    theta = mnp.w
    r = program.M @ theta
    return RecoveryResult(
        multipliers=_assemble(program, theta),
        objective=float(r @ r),
        kkt_residual=mnp.gap,
        theta=theta,
        status=mnp.status,
        iterations=mnp.iterations,
    )


def _assemble(program: RecoveryProgram, theta: np.ndarray) -> MultiplierSet:
    """The multipliers of the masses ``theta``.  The atom coefficients are
    laid out by node and slot; a node with positive mass carries an eta
    atom of that mass, and s there as the weights coefficient / mass."""
    grid = program.grid
    nodes, slots, cols = program.atom_nodes, program.atom_slots, program.atom_cols
    lam = np.zeros(grid.ncells)
    lam[program.lam_cells] = theta[program.lam_cols] / grid.widths[program.lam_cells]
    coeff = np.zeros((grid.ncells + 1, 2))
    coeff[nodes, slots] = theta[cols]
    mass = np.sum(coeff, axis=1)
    index = np.flatnonzero(mass > 0.0)
    size = np.bincount(nodes, minlength=grid.ncells + 1)[index]
    s_atoms = Directions(
        index=index,
        weighted=np.ones(index.size, dtype=bool),
        size=size,
        values=coeff[index, : size.max(initial=0)] / mass[index, None],
    )
    eta = SignedMeasure(grid, atoms=np.where(mass > 0.0, mass, 0.0), nonnegative=True)
    values = program.A_L.transpose(0, 2, 1) @ theta
    # the costate jumps by -(s d-eta) at each contact node
    starts = np.flatnonzero(slots == 0)
    jumps = np.zeros_like(values)
    if starts.size:
        jumps[nodes[starts]] = -np.add.reduceat(theta[cols, None] * program.atom_gens, starts)
    p = BVFunction(grid=grid, values=values, atoms=jumps)
    return MultiplierSet(
        alpha0=float(theta[0]),
        lam=lam,
        eta=eta,
        s_atoms=s_atoms,
        p=p,
    )


def cross_validate(
    samples: Samples, ms: MultiplierSet, check_config: CheckConfig = CheckConfig()
) -> Report:
    """Independent acceptance: pipe recovered multipliers through the checker."""
    return check_certificate(samples, ms, check_config)


@dataclass(frozen=True)
class RecoveryOutcome:
    result: RecoveryResult
    report: Report
    certified: bool
    dims: dict


def recover(
    samples: Samples, config: RecoveryConfig = RecoveryConfig()
) -> RecoveryOutcome:
    """End-to-end recovery: build, solve, cross-validate on the same Samples,
    so at the same phase-test tolerances, with the default CheckConfig."""
    program = build_program(samples, config)
    result = solve(program)
    report = cross_validate(samples, result.multipliers)
    return RecoveryOutcome(
        result=result,
        report=report,
        certified=report.overall_pass,
        dims=program.dims,
    )
