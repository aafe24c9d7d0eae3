"""Certificate checking for the local minimum principle.

A certificate is a multiplier family (alpha0, lambda, d-eta, s, p): a cost
weight, an integrable density multiplier, a nonnegative singular measure
supported on the contact set, a jump-direction selection on that support,
and a bounded-variation costate with exterior values.  The checker evaluates
one residual per condition:

* signs and complementary slackness of (alpha0, lambda, d-eta), plus the
  mass of d-eta outside the contact set;
* nontriviality alpha0 + |lambda|_1 + integral of d-eta > 0;
* the jump inclusion: s must lie in the convex hull of the reachable
  constraint gradients on the support of d-eta;
* the measure-driven costate balance, checked in cumulative (integral)
  form at every node;
* the endpoint transversality relations;
* stationarity of the control Hamiltonian.

Certificates are accepted up to positive scaling; normalisation is reported,
never required.  Checks are independent and pure; the report is assembled by
a single aggregator that never aborts on a failing sub-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from . import expr, geometry
from .errors import EvalError, InputError, LmpkitError
from .measures import BVFunction, SignedMeasure
from .problem import ProblemDef, Trajectory, dynamics_defect
from .samples import Samples

__all__ = [
    "SupportDirection",
    "MultiplierSet",
    "CheckConfig",
    "Entry",
    "Report",
    "Pontryagin",
    "pontryagin",
    "check_signs_slackness",
    "check_nontriviality",
    "check_jump_inclusion",
    "check_adjoint",
    "check_transversality",
    "check_stationarity",
    "check_certificate",
    "merge_state_constraint",
    "MergedStateConstraint",
]


@dataclass(frozen=True)
class SupportDirection:
    """Direction assignment on one support element of the singular measure:
    either an explicit costate-space row vector, or convex weights over the
    local jump-direction generators."""

    vector: np.ndarray | None = None
    weights: np.ndarray | None = None

    def __post_init__(self):
        if (self.vector is None) == (self.weights is None):
            raise InputError("give exactly one of vector or weights")
        if self.vector is not None:
            object.__setattr__(
                self, "vector", np.asarray(self.vector, dtype=float).reshape(-1)
            )
        else:
            object.__setattr__(
                self, "weights", np.asarray(self.weights, dtype=float).reshape(-1)
            )


@dataclass(frozen=True)
class MultiplierSet:
    """Candidate multipliers (alpha0, lambda, d-eta, s, p).

    ``lam`` is the per-cell density of the integrable multiplier; ``eta``
    is a scalar measure flagged nonnegative whose support should lie in the
    contact set; ``s_atoms``/``s_cells`` assign directions on its atoms and
    density cells; ``p`` is the row-vector costate of bounded variation.
    """

    alpha0: float
    lam: np.ndarray
    eta: SignedMeasure
    s_atoms: Mapping[int, SupportDirection] = field(default_factory=dict)
    s_cells: Mapping[int, SupportDirection] = field(default_factory=dict)
    p: BVFunction | None = None

    def __post_init__(self):
        object.__setattr__(self, "lam", np.asarray(self.lam, dtype=float).reshape(-1))
        if self.eta.dim != 1:
            raise InputError("the singular multiplier must be a scalar measure")
        if self.lam.size != self.eta.grid.ncells:
            raise InputError("lambda must have one value per grid cell")
        if self.p is None:
            raise InputError("a costate function p is required")
        object.__setattr__(self, "s_atoms", dict(self.s_atoms))
        object.__setattr__(self, "s_cells", dict(self.s_cells))

    @property
    def grid(self):
        return self.eta.grid

    def lambda_l1(self) -> float:
        return float(np.sum(np.abs(self.lam) * self.grid.widths))

    def eta_mass(self) -> float:
        return float(self.eta.mass()[0])

    def nu(self) -> float:
        """The nontriviality functional alpha0 + |lambda|_1 + eta mass."""
        return float(self.alpha0) + self.lambda_l1() + self.eta_mass()

    def scaled(self, c: float) -> "MultiplierSet":
        """Positive rescaling; directions are scale-free and stay put."""
        if c <= 0:
            raise InputError("certificates may only be scaled by c > 0")
        p = BVFunction(
            grid=self.p.grid,
            values=c * self.p.values,
            atoms={k: c * v for k, v in self.p.atoms.items()},
        )
        return replace(self, alpha0=c * self.alpha0, lam=c * self.lam,
                       eta=self.eta.scaled(c), p=p)

    def normalized(self) -> "MultiplierSet":
        nu = self.nu()
        if nu <= 0:
            raise InputError("cannot normalise a trivial certificate")
        return self.scaled(1.0 / nu)


@dataclass(frozen=True)
class CheckConfig:
    """Tolerances of one checker run.

    ``delta``/``eps`` relax the phase-point test (analytic fixtures keep the
    1e-8 defaults; numerically obtained trajectories want ~1e-6).  Integral
    residuals inherit a grid-tracking threshold max(structural, 10*h*scale)
    when their explicit tolerance is left unset, with the scale reported.
    """

    delta: float = 1e-8
    eps: float = 1e-8
    structural_tol: float = 1e-7
    positive_tol: float = 1e-8
    adjoint_tol: float | None = None
    stationarity_tol: float | None = None

    def __post_init__(self):
        if self.delta < 0 or self.eps < 0:
            raise InputError("tolerances must be nonnegative")


@dataclass(frozen=True)
class Entry:
    """One report line; passes iff residual <= tolerance."""

    name: str
    residual: float
    tolerance: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "FAIL"


@dataclass(frozen=True)
class Report:
    entries: tuple[Entry, ...]
    diagnostics: dict

    @property
    def overall_pass(self) -> bool:
        return all(e.passed for e in self.entries)

    def entry(self, name: str) -> Entry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return {
            "overall": "pass" if self.overall_pass else "FAIL",
            "entries": [
                {
                    "name": e.name,
                    "residual": e.residual,
                    "tolerance": e.tolerance,
                    "verdict": e.verdict,
                    "detail": e.detail,
                }
                for e in self.entries
            ],
            "diagnostics": _jsonable(self.diagnostics),
        }

    def to_text(self) -> str:
        width = max(len(e.name) for e in self.entries) + 2
        lines = [
            f"{'condition':<{width}}{'residual':>14}{'threshold':>14}  verdict",
            "-" * (width + 37),
        ]
        for e in self.entries:
            lines.append(
                f"{e.name:<{width}}{e.residual:>14.6e}{e.tolerance:>14.6e}  {e.verdict}"
            )
        lines.append("-" * (width + 37))
        lines.append(f"overall: {'pass' if self.overall_pass else 'FAIL'}")
        for key in sorted(self.diagnostics):
            lines.append(f"  {key}: {self.diagnostics[key]}")
        return "\n".join(lines)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


# -- Hamiltonian assembly ------------------------------------------------------


@dataclass(frozen=True)
class Pontryagin:
    """Callable data for H(x,u,p) = p.f(x,u) and the augmented form
    p.f + lambda*G, with gradients taken from the exact derivative tables."""

    problem: ProblemDef

    def H(self, x, u, p) -> float:
        return float(np.asarray(p) @ self.problem.f_at(x, u))

    def H_x(self, x, u, p) -> np.ndarray:
        return np.asarray(p) @ self.problem.fx_at(x, u)

    def H_u(self, x, u, p) -> np.ndarray:
        return np.asarray(p) @ self.problem.fu_at(x, u)

    def Hbar(self, x, u, p, lam: float) -> float:
        return self.H(x, u, p) + lam * self.problem.G_at(x, u)

    def Hbar_x(self, x, u, p, lam: float) -> np.ndarray:
        return self.H_x(x, u, p) + lam * self.problem.Gx_at(x, u)

    def Hbar_u(self, x, u, p, lam: float) -> np.ndarray:
        return self.H_u(x, u, p) + lam * self.problem.Gu_at(x, u)


def pontryagin(problem: ProblemDef) -> Pontryagin:
    return Pontryagin(problem)


# -- individual condition checks -----------------------------------------------


def check_signs_slackness(
    ms: MultiplierSet,
    problem: ProblemDef,
    trajectory: Trajectory,
    config: CheckConfig = CheckConfig(),
    samples: Samples | None = None,
) -> list[Entry]:
    """Sign conditions, complementary slackness, and the contact-set support
    of the singular measure (at grid resolution)."""
    samples = samples or Samples(problem, trajectory)
    tol = config.structural_tol
    grid = trajectory.grid
    entries = [
        Entry("alpha0_sign", max(0.0, -float(ms.alpha0)) + 0.0, tol),
        Entry(
            "lambda_sign",
            float(np.max(np.maximum(0.0, -ms.lam), initial=0.0)) + 0.0,
            tol,
        ),
    ]
    density = ms.eta.density[:, 0]
    neg_mass = sum(
        max(0.0, -ms.eta.scalar_atom(k)) for k in ms.eta.atoms
    ) + float(np.sum(np.maximum(0.0, -density) * grid.widths))
    entries.append(Entry("eta_sign", neg_mass, tol))

    slack = float(
        np.sum(
            np.abs(ms.lam)
            * 0.5
            * (np.abs(samples.left.G) + np.abs(samples.right.G))
            * grid.widths
        )
    )
    entries.append(Entry("slackness", slack, tol))

    contact = geometry.contact_set(
        problem, trajectory, config.delta, config.eps, samples
    )
    outside = sum(
        abs(ms.eta.scalar_atom(k)) for k in ms.eta.atoms if not contact.node_in(k)
    )
    off = (density != 0.0) & ~contact.cell_flags
    outside += float(np.sum(np.abs(density[off]) * grid.widths[off]))
    entries.append(Entry("eta_outside_contact", outside, tol))
    return entries


def check_nontriviality(ms: MultiplierSet, config: CheckConfig = CheckConfig()) -> Entry:
    """Pass iff alpha0 + |lambda|_1 + eta mass stays above the positivity floor."""
    nu = ms.nu()
    return Entry(
        "nontriviality",
        max(0.0, config.positive_tol - nu),
        0.0,
        detail=f"nu={nu!r}",
    )


def _support_elements(ms: MultiplierSet) -> tuple[list[tuple[int, float]], np.ndarray]:
    """Atoms (node, mass) and the density cells carrying eta mass."""
    atoms = [(k, ms.eta.scalar_atom(k)) for k in sorted(ms.eta.atoms)
             if ms.eta.scalar_atom(k) != 0.0]
    return atoms, np.flatnonzero(ms.eta.density[:, 0] != 0.0)


def _resolve_direction(
    sd: SupportDirection | None,
    gens: tuple[np.ndarray, ...],
    n: int,
    kind: str,
    index: int,
) -> np.ndarray:
    """The direction s on one support element, the node or cell ``index``."""
    if sd is None:
        raise InputError(f"direction s is missing on the eta support at {kind} {index}")
    if sd.vector is not None:
        if sd.vector.size != n:
            raise InputError(f"direction vector at {kind} {index} has wrong dimension")
        return sd.vector
    if not gens:
        raise InputError(
            f"weights given at {kind} {index} but no jump directions are available there"
        )
    if sd.weights.size != len(gens):
        raise InputError(
            f"{sd.weights.size} weights for {len(gens)} generators at {kind} {index}"
        )
    return np.asarray(sd.weights) @ np.asarray(gens)


def _cell_directions(
    ms: MultiplierSet, cells: np.ndarray, gens: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The directions s on density cells, resolved in one pass over their
    records; raises at the first cell whose direction is missing or wrong.

    ``gens[i]`` is the generator at the midpoint of ``cells[i]`` (a midpoint
    has at most one), a NaN row where there is none.  Returns the rows of s,
    and where s is given as weights, its single weight and a True flag.
    """
    if cells.size == 0:
        return np.zeros((0, n)), np.zeros(0), np.zeros(0, dtype=bool)

    def resolve(k: int, g: np.ndarray, available: bool) -> tuple[np.ndarray, float, bool]:
        sd = ms.s_cells.get(k)
        row = _resolve_direction(sd, (g,) if available else (), n, "cell", k)
        if sd.weights is None:
            return row, 0.0, False
        return row, float(sd.weights[0]), True

    available = (~np.isnan(gens[:, 0])).tolist()
    rows, weights, weighted = zip(*map(resolve, cells.tolist(), gens, available))
    return np.array(rows), np.array(weights), np.array(weighted)


def _mid_generators(samples: Samples, config: CheckConfig):
    """Per cell: whether the midpoint is a relaxed phase point, and its G_x."""
    mid = samples.mid
    return mid.phase(config.delta, config.eps), mid.phase_gradients(config.delta, config.eps)


def check_jump_inclusion(
    ms: MultiplierSet,
    problem: ProblemDef,
    trajectory: Trajectory,
    config: CheckConfig = CheckConfig(),
    samples: Samples | None = None,
) -> list[Entry]:
    """Distance of s to the convex hull of the reachable constraint
    gradients, over every element of the eta support; mass sitting where no
    jump direction exists at the working tolerances is reported separately.

    Density cells are sampled at their midpoints; a sampled violation fails
    the check (the conservative reading of an a.e.-in-measure condition).
    """
    samples = samples or Samples(problem, trajectory)
    atoms, cells = _support_elements(ms)
    worst = 0.0
    outside_mass = 0.0
    for k, mass in atoms:
        gens = geometry.jump_directions_at_node(
            problem, trajectory, k, config.delta, config.eps, samples
        ).generators
        sd = ms.s_atoms.get(k)
        if not gens:
            outside_mass += abs(mass)
            continue
        if sd is not None and sd.weights is not None:
            if sd.weights.size != len(gens):
                raise InputError(
                    f"{sd.weights.size} weights for {len(gens)} generators at node {k}"
                )
            violation = max(0.0, -float(np.min(sd.weights)))
            violation += abs(float(np.sum(sd.weights)) - 1.0)
            worst = max(worst, violation)
            continue
        shat = _resolve_direction(sd, gens, problem.n, "node", k)
        dist, _ = geometry.dist_to_convex_hull(shat, gens)
        worst = max(worst, dist)

    has_gen, mid_gens = _mid_generators(samples, config)
    widths = ms.grid.widths
    bare = cells[~has_gen[cells]]
    outside_mass += float(np.sum(np.abs(ms.eta.density[bare, 0] * widths[bare])))
    covered = cells[has_gen[cells]]
    rows, weights, weighted = _cell_directions(ms, covered, mid_gens[covered], problem.n)
    w = weights[weighted]
    violation = np.maximum(0.0, -w) + np.abs(w - 1.0)
    dist = np.linalg.norm(mid_gens[covered][~weighted] - rows[~weighted], axis=1)
    worst = max(
        worst,
        float(np.max(violation, initial=0.0)),
        float(np.max(dist, initial=0.0)),
    )
    tol = config.structural_tol
    return [
        Entry("jump_inclusion", worst, tol),
        Entry("jump_inclusion_outside", outside_mass, tol),
    ]


def _direction_measure(
    ms: MultiplierSet,
    problem: ProblemDef,
    trajectory: Trajectory,
    config: CheckConfig,
    samples: Samples | None = None,
) -> SignedMeasure:
    """The vector measure s*d-eta used by the costate balance."""
    samples = samples or Samples(problem, trajectory)
    atoms, cells = _support_elements(ms)
    n = problem.n
    atom_map: dict[int, np.ndarray] = {}
    for k, mass in atoms:
        gens = geometry.jump_directions_at_node(
            problem, trajectory, k, config.delta, config.eps, samples
        ).generators
        shat = _resolve_direction(ms.s_atoms.get(k), gens, n, "node", k)
        atom_map[k] = shat * mass
    _, mid_gens = _mid_generators(samples, config)
    rows, _, _ = _cell_directions(ms, cells, mid_gens[cells], n)
    density = np.zeros((ms.grid.ncells, n))
    density[cells] = rows * ms.eta.density[cells, 0][:, None]
    return SignedMeasure(grid=ms.grid, dim=n, atoms=atom_map, density=density)


def _costate_times(p_rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Row k of the result is the row vector p_rows[k] times matrix table[k]."""
    return np.einsum("ki,kij->kj", p_rows, table)


def _balance_rows(
    p: BVFunction,
    a_left: np.ndarray,
    a_right: np.ndarray,
    widths: np.ndarray,
    atoms: np.ndarray,
    cell_mass: np.ndarray,
) -> np.ndarray:
    """Rows of the cumulative costate balance at every node k: the right
    limit of p minus its exterior left value, plus the trapezoid integral of
    a through node k, plus the closed-interval mass through node k of the
    measure with node atoms ``atoms`` and per-cell masses ``cell_mass``.

    Both sums run in node order (atom, then the following cell), as a
    running sum would.
    """
    N, n = cell_mass.shape
    acc = np.zeros((N + 1, n))
    acc[1:] = np.cumsum((0.5 * widths)[:, None] * (a_left + a_right), axis=0)
    steps = np.empty((2 * N + 1, n))
    steps[0::2] = atoms
    steps[1::2] = cell_mass
    mass = np.cumsum(steps, axis=0)[0::2]
    return p.right_limits() - p.exterior_left + acc + mass


def _adjoint_profile(
    ms: MultiplierSet,
    problem: ProblemDef,
    trajectory: Trajectory,
    config: CheckConfig,
    samples: Samples | None = None,
) -> tuple[np.ndarray, float]:
    """Residual rows of the cumulative costate balance at every node.

    r_k compares the right limit of p at node k against the exterior left
    value minus the running integral of p.f_x + lambda*G_x (trapezoid, with
    p taken by its left-limit node values) minus the closed-interval mass of
    s*d-eta through node k.  Returns (rows, data scale).
    """
    samples = samples or Samples(problem, trajectory)
    grid = ms.grid
    p = ms.p
    sdeta = _direction_measure(ms, problem, trajectory, config, samples)
    left, right = samples.left, samples.right
    lam = ms.lam[:, None]
    a_left = _costate_times(p.values[:-1], left.f_x) + lam * left.G_x
    a_right = _costate_times(p.values[1:], right.f_x) + lam * right.G_x
    scale = max(1.0, float(np.max(np.abs(a_left))), float(np.max(np.abs(a_right))))
    rows = _balance_rows(
        p,
        a_left,
        a_right,
        grid.widths,
        sdeta.dense_atoms(),
        sdeta.density * grid.widths[:, None],
    )
    return rows, scale


def _auto_tol(explicit: float | None, config: CheckConfig, h: float, scale: float) -> float:
    if explicit is not None:
        return explicit
    return max(config.structural_tol, 10.0 * h * scale)


def check_adjoint(
    ms: MultiplierSet,
    problem: ProblemDef,
    trajectory: Trajectory,
    config: CheckConfig = CheckConfig(),
    samples: Samples | None = None,
) -> Entry:
    """Max-norm residual of the costate balance in cumulative form."""
    rows, scale = _adjoint_profile(ms, problem, trajectory, config, samples)
    residual = float(np.max(np.abs(rows)))
    h = float(np.max(ms.grid.widths))
    tol = _auto_tol(config.adjoint_tol, config, h, scale)
    return Entry("adjoint", residual, tol, detail=f"data_scale={scale!r}")


def check_transversality(
    ms: MultiplierSet,
    problem: ProblemDef,
    trajectory: Trajectory,
    config: CheckConfig = CheckConfig(),
) -> Entry:
    """Endpoint relations: p(t0-) + alpha0*J_x0 = 0 and p(t1+) = alpha0*J_x1."""
    x0, x1 = trajectory.endpoints
    jx0, jx1 = problem.endpoint_gradients(x0, x1)
    left = float(np.linalg.norm(ms.p.exterior_left + ms.alpha0 * jx0))
    right = float(np.linalg.norm(ms.p.exterior_right - ms.alpha0 * jx1))
    return Entry("transversality", left + right, config.structural_tol)


def check_stationarity(
    ms: MultiplierSet,
    problem: ProblemDef,
    trajectory: Trajectory,
    config: CheckConfig = CheckConfig(),
    samples: Samples | None = None,
) -> Entry:
    """Essential-supremum residual of p.f_u + lambda*G_u, sampled at both
    cell sides and the midpoint; the L1 aggregate is reported as detail."""
    samples = samples or Samples(problem, trajectory)
    grid = trajectory.grid
    p = ms.p
    right_limits = p.right_limits()[:-1]
    left_limits = p.values[1:]
    sides = (
        (samples.left, right_limits),
        (samples.mid, 0.5 * (right_limits + left_limits)),
        (samples.right, left_limits),
    )
    scale = 1.0
    values = []
    for points, costate in sides:
        hu = _costate_times(costate, points.f_u)
        gu = ms.lam[:, None] * points.G_u
        values.append(np.max(np.abs(hu + gu), axis=1))
        scale = max(scale, float(np.max(np.abs(hu))), float(np.max(np.abs(gu))))
    worst = max(float(np.max(v)) for v in values)
    cell_acc = values[0] / 3.0 + values[1] / 3.0 + values[2] / 3.0
    l1 = float(np.sum(cell_acc * grid.widths))
    h = float(np.max(grid.widths))
    tol = _auto_tol(config.stationarity_tol, config, h, scale)
    return Entry(
        "stationarity", worst, tol, detail=f"l1={l1!r} data_scale={scale!r}"
    )


def _error_entry(name: str, err: Exception) -> Entry:
    return Entry(name, float("inf"), 0.0, detail=f"error: {err}")


def check_certificate(
    problem: ProblemDef,
    trajectory: Trajectory,
    ms: MultiplierSet,
    config: CheckConfig = CheckConfig(),
    samples: Samples | None = None,
) -> Report:
    """Run every condition check and assemble the report.

    The problem data are evaluated once, into one Samples shared by every
    sub-check.  Sub-check errors become failing entries instead of aborting
    the rest.  Diagnostics carry the dynamics defect (informational, not a
    gate), the nontriviality value, and the convention-sensitive nodes:
    atoms of d-eta at declared control jumps whose two sides differ, where
    the integrand side at the atom is a convention.
    """
    samples = samples or Samples(problem, trajectory)
    entries: list[Entry] = []
    try:
        entries.extend(check_signs_slackness(ms, problem, trajectory, config, samples))
    except LmpkitError as err:
        entries.append(_error_entry("signs_slackness", err))
    entries.append(check_nontriviality(ms, config))
    try:
        entries.extend(check_jump_inclusion(ms, problem, trajectory, config, samples))
    except LmpkitError as err:
        entries.append(_error_entry("jump_inclusion", err))
    try:
        entries.append(check_adjoint(ms, problem, trajectory, config, samples))
    except LmpkitError as err:
        entries.append(_error_entry("adjoint", err))
    try:
        entries.append(check_transversality(ms, problem, trajectory, config))
    except LmpkitError as err:
        entries.append(_error_entry("transversality", err))
    try:
        entries.append(check_stationarity(ms, problem, trajectory, config, samples))
    except LmpkitError as err:
        entries.append(_error_entry("stationarity", err))

    diagnostics: dict = {}
    try:
        defect = dynamics_defect(problem, trajectory, samples)
        diagnostics["dynamics_defect_max"] = float(np.max(np.abs(defect)))
    except (EvalError, InputError) as err:
        diagnostics["dynamics_defect_max"] = f"error: {err}"
    diagnostics["convention_sensitive_nodes"] = [
        int(k)
        for k in sorted(ms.eta.atoms)
        if ms.eta.scalar_atom(k) != 0.0 and k in samples.two_sided
    ]
    diagnostics["nu"] = ms.nu()
    try:
        contact = geometry.contact_set(
            problem, trajectory, config.delta, config.eps, samples
        )
        diagnostics["contact_intervals"] = [list(iv) for iv in contact.intervals]
    except LmpkitError as err:
        diagnostics["contact_intervals"] = f"error: {err}"
    return Report(entries=tuple(entries), diagnostics=diagnostics)


# -- pure state-constraint reduction -------------------------------------------


@dataclass(frozen=True)
class MergedStateConstraint:
    """The reduction available when G does not depend on the control: the
    density and singular multipliers merge into one nonnegative measure."""

    measure: SignedMeasure
    adjoint_residual: float
    slackness_residual: float


def merge_state_constraint(
    problem: ProblemDef,
    trajectory: Trajectory,
    ms: MultiplierSet,
    config: CheckConfig = CheckConfig(),
    samples: Samples | None = None,
) -> MergedStateConstraint:
    """Merge lambda*dt + d-eta into one measure for G(x, u) = g(x).

    Requires G_u to vanish structurally (as an expression).  The costate
    balance is re-expressed with the state gradient of g against the merged
    measure, and slackness becomes the integral of |g| against it; by
    construction both residuals coincide with the unmerged forms evaluated
    with s equal to that gradient.
    """
    if not all(expr.is_zero(e) for e in problem.G_u):
        raise InputError("G depends on the control; the merged form needs G(x,u)=g(x)")
    samples = samples or Samples(problem, trajectory)
    grid = ms.grid
    merged = SignedMeasure.scalar(
        grid,
        atoms={k: ms.eta.scalar_atom(k) for k in ms.eta.atoms},
        density=ms.lam + ms.eta.density[:, 0],
    )
    left, right = samples.left, samples.right
    gprime = samples.at_nodes(left.G_x, right.G_x)
    gvals = samples.at_nodes(left.G, right.G)

    p = ms.p
    rows = _balance_rows(
        p,
        _costate_times(p.values[:-1], left.f_x),
        _costate_times(p.values[1:], right.f_x),
        grid.widths,
        merged.dense_atoms() * gprime,
        (merged.density[:, 0] * grid.widths)[:, None] * (0.5 * (gprime[:-1] + gprime[1:])),
    )
    worst = float(np.max(np.abs(rows)))

    slack = sum(
        abs(gvals[k]) * abs(merged.scalar_atom(k)) for k in merged.atoms
    )
    slack += float(
        np.sum(
            0.5 * (np.abs(gvals[:-1]) + np.abs(gvals[1:]))
            * np.abs(merged.density[:, 0])
            * grid.widths
        )
    )
    return MergedStateConstraint(
        measure=merged, adjoint_residual=worst, slackness_residual=float(slack)
    )
