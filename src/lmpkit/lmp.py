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

A certificate is held in arrays only: the atoms of d-eta and the jumps of
p are rows, one per node and zero where there is none, and s is a
:class:`Directions` record of index, flag, size and value arrays, one entry
per atom or density cell it covers.

Every check that reads the problem data takes, as its first argument, the
:class:`~lmpkit.samples.Samples` of the (problem, trajectory) pair, and
reads the problem and the trajectory from it; the report's sub-checks all
share one.

Certificates are accepted up to positive scaling; normalisation is reported,
never required.  Checks are independent and pure; the report is assembled by
a single aggregator that never aborts on a failing sub-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr, geometry
from .errors import EvalError, InputError, LmpkitError
from .measures import BVFunction, SignedMeasure, running_sum
from .problem import dynamics_defect
from .samples import Samples, refuse_bad_tolerances

__all__ = [
    "Directions",
    "MultiplierSet",
    "CheckConfig",
    "POSITIVE_TOL",
    "Entry",
    "Report",
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
class Directions:
    """The directions of s on the atoms or on the density cells of d-eta,
    one row per record; none by default.

    ``index`` holds the node or cell numbers, strictly increasing;
    ``weighted`` whether a record gives weights over the local jump-direction
    generators (else a costate-space row vector); ``size`` how many numbers
    it gives; ``values`` the numbers, one row per record, zero-padded to a
    common width.  Records whose size does not fit their element are held
    as given; the checker rejects them.
    """

    index: np.ndarray = ()
    weighted: np.ndarray = ()
    size: np.ndarray = ()
    values: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))

    def __post_init__(self):
        index = np.asarray(self.index, dtype=np.intp).reshape(-1)
        size = np.asarray(self.size, dtype=np.intp).reshape(-1)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "weighted", np.asarray(self.weighted, dtype=bool).reshape(-1))
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "values", values)
        if values.ndim != 2 or not index.size == self.weighted.size == size.size == len(values):
            raise InputError("directions need one index, flag, size and row per record")
        if (index[1:] <= index[:-1]).any():
            raise InputError("direction indices must be strictly increasing")
        if index.size and (size.min() < 0 or size.max() > values.shape[1]):
            raise InputError("direction sizes must fit the value rows")

    @classmethod
    def vectors(cls, index, rows) -> "Directions":
        """The records giving row ``rows[i]`` as the vector at ``index[i]``."""
        rows = np.asarray(rows, dtype=float)
        count = len(rows)
        return cls(index, np.zeros(count, dtype=bool), np.full(count, rows.shape[1]), rows)


@dataclass(frozen=True)
class MultiplierSet:
    """Candidate multipliers (alpha0, lambda, d-eta, s, p).

    ``lam`` is the per-cell density of the integrable multiplier; ``eta``
    is a scalar measure flagged nonnegative whose support should lie in the
    contact set, its atoms one row per node; ``s_atoms``/``s_cells`` are the
    :class:`Directions` of s on its atoms and density cells; ``p`` is the
    row-vector costate of bounded variation, its jumps one row per node.
    """

    alpha0: float
    lam: np.ndarray
    eta: SignedMeasure
    s_atoms: Directions = field(default_factory=Directions)
    s_cells: Directions = field(default_factory=Directions)
    p: BVFunction | None = None

    def __post_init__(self):
        object.__setattr__(self, "lam", np.asarray(self.lam, dtype=float).reshape(-1))
        if self.eta.dim != 1:
            raise InputError("the singular multiplier must be a scalar measure")
        if self.lam.size != self.eta.grid.ncells:
            raise InputError("lambda must have one value per grid cell")
        if self.p is None:
            raise InputError("a costate function p is required")

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


@dataclass(frozen=True)
class CheckConfig:
    """Tolerances of one checker run; the phase-test tolerances are the
    :class:`~lmpkit.samples.Samples`' own.

    Integral residuals inherit a grid-tracking threshold
    max(structural, 10*h*scale) when their explicit tolerance is left unset,
    with the scale reported.
    """

    structural_tol: float = 1e-7
    adjoint_tol: float | None = None
    stationarity_tol: float | None = None

    def __post_init__(self):
        refuse_bad_tolerances(**vars(self))


# nontriviality passes iff alpha0 + |lambda|_1 + eta mass is at least this
POSITIVE_TOL = 1e-8


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
    diagnostics: dict  # str keys; values are str, float, int or lists of them

    @property
    def overall_pass(self) -> bool:
        return all(e.passed for e in self.entries)

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
            "diagnostics": self.diagnostics,
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


# -- individual condition checks -----------------------------------------------


def check_signs_slackness(
    samples: Samples, ms: MultiplierSet, config: CheckConfig = CheckConfig()
) -> list[Entry]:
    """Sign conditions, complementary slackness, and the contact-set support
    of the singular measure (at grid resolution)."""
    tol = config.structural_tol
    grid = samples.trajectory.grid
    entries = [
        Entry("alpha0_sign", max(0.0, -float(ms.alpha0)) + 0.0, tol),
        Entry(
            "lambda_sign",
            float(np.max(np.maximum(0.0, -ms.lam), initial=0.0)) + 0.0,
            tol,
        ),
    ]
    atoms, density = ms.eta.atoms[:, 0], ms.eta.density[:, 0]
    neg_mass = float(np.sum(np.maximum(0.0, -atoms))) + float(
        np.sum(np.maximum(0.0, -density) * grid.widths)
    )
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

    contact = samples.contact_set
    off = (density != 0.0) & ~contact.cell_flags
    outside = float(np.sum(np.abs(atoms[~contact.flags]))) + float(
        np.sum(np.abs(density[off]) * grid.widths[off])
    )
    entries.append(Entry("eta_outside_contact", outside, tol))
    return entries


def check_nontriviality(ms: MultiplierSet) -> Entry:
    """Pass iff alpha0 + |lambda|_1 + eta mass reaches POSITIVE_TOL."""
    nu = ms.nu()
    return Entry(
        "nontriviality",
        max(0.0, POSITIVE_TOL - nu),
        0.0,
        detail=f"nu={nu!r}",
    )


@dataclass(frozen=True)
class _Support:
    """The eta support, its ``natoms`` atoms of nonzero mass in node order
    and then its density cells in cell order, with s resolved on it.

    Per element: the node or cell ``index``; the eta ``value`` (an atom's
    mass, a cell's density) and ``width`` (1 at an atom), whose product is
    its eta mass; ``count`` generators in the leading rows of ``gens``; the
    row of s (NaN if not resolved); and whether s came as weights, which
    fill the leading entries of their row of ``weights``, zeros after them.
    """

    natoms: int
    index: np.ndarray
    value: np.ndarray
    width: np.ndarray
    count: np.ndarray
    gens: np.ndarray
    rows: np.ndarray
    weighted: np.ndarray
    weights: np.ndarray


def _records(directions: Directions, keys: np.ndarray, width: int):
    """Per key: whether ``directions`` holds its record, whether that gives
    weights, its size, and its numbers zero-padded or cut to ``width``."""
    pos = np.searchsorted(directions.index, keys)
    found = pos < directions.index.size
    found[found] = directions.index[pos[found]] == keys[found]
    pos = pos[found]
    weighted = np.zeros(keys.size, dtype=bool)
    weighted[found] = directions.weighted[pos]
    size = np.zeros(keys.size, dtype=np.intp)
    size[found] = directions.size[pos]
    values = np.zeros((keys.size, width))
    w = min(width, directions.values.shape[1])
    values[found, :w] = directions.values[pos, :w]
    return found, weighted, size, values


def _support_directions(
    samples: Samples, ms: MultiplierSet, resolve_bare: bool
) -> _Support:
    """Resolve s on every element of the eta support from its record.

    An atom's generators are G_x at the relaxed phase points of its closure
    in measure, a cell's the G_x row at its midpoint if that is one (G_x is
    never NaN, so the NaN rows of ``gens`` mark missing generators).  The
    first element, in element order, whose record is missing or does not
    fit its generators raises.  Elements without generators are skipped
    unless ``resolve_bare`` is set; then weights there raise too.
    """
    n = samples.problem.n
    atoms = ms.eta.atoms[:, 0]
    nodes = np.flatnonzero(atoms)
    cells = np.flatnonzero(ms.eta.density[:, 0] != 0.0)
    natoms = nodes.size
    gens = np.full((natoms + cells.size, 2, n), np.nan)
    if natoms:
        gens[:natoms] = samples.node_gradients[nodes]
    gens[natoms:, 0] = samples.mid.phase_gradients[cells]
    count = np.count_nonzero(~np.isnan(gens[:, :, 0]), axis=1)
    index = np.concatenate([nodes, cells])
    width = max(n, gens.shape[1])
    found, weighted, size, values = (
        np.concatenate(parts)
        for parts in zip(
            _records(ms.s_atoms, index[:natoms], width),
            _records(ms.s_cells, index[natoms:], width),
        )
    )
    considered = (count > 0) | resolve_bare
    missing = considered & ~found
    vector = considered & found & ~weighted
    weighted &= considered & found
    bare = weighted & (count == 0)
    failing = missing | (vector & (size != n)) | bare | (weighted & (size != count))
    if failing.any():
        i = int(np.argmax(failing))
        where = f"{'node' if i < natoms else 'cell'} {index[i]}"
        if missing[i]:
            raise InputError(f"direction s is missing on the eta support at {where}")
        if vector[i]:
            raise InputError(f"direction vector at {where} has wrong dimension")
        if bare[i]:
            raise InputError(
                f"weights given at {where} but no jump directions are available there"
            )
        raise InputError(f"{size[i]} weights for {count[i]} generators at {where}")
    rows = np.full((len(gens), n), np.nan)
    rows[vector] = values[vector, :n]
    # only the leading count generators of a row are read, never the NaN
    # padding; rows of two generators are atoms at two-sided jumps
    one = weighted & (count == 1)
    rows[one] = values[one, :1] * gens[one, 0]
    two = weighted & (count == 2)
    rows[two] = values[two, :1] * gens[two, 0] + values[two, 1:2] * gens[two, 1]
    leading = np.arange(gens.shape[1]) < count[:, None]
    weights = np.where(weighted[:, None] & leading, values[:, : gens.shape[1]], 0.0)
    return _Support(
        natoms=natoms,
        index=index,
        value=np.concatenate([atoms[nodes], ms.eta.density[cells, 0]]),
        width=np.concatenate([np.ones(natoms), samples.trajectory.grid.widths[cells]]),
        count=count,
        gens=gens,
        rows=rows,
        weighted=weighted,
        weights=weights,
    )


def check_jump_inclusion(
    samples: Samples, ms: MultiplierSet, config: CheckConfig = CheckConfig()
) -> list[Entry]:
    """Distance of s to the convex hull of the reachable constraint
    gradients, over every element of the eta support; mass sitting where no
    jump direction exists at the working tolerances is reported separately.

    Density cells are sampled at their midpoints; a sampled violation fails
    the check (the conservative reading of an a.e.-in-measure condition).
    Where s is given as weights, the residual is their distance from the
    simplex, max(0, -min w) + |sum w - 1|.
    """
    sup = _support_directions(samples, ms, resolve_bare=False)
    outside_mass = float(np.sum(np.abs(sup.value * sup.width)[sup.count == 0]))
    w = sup.weights[sup.weighted]
    # the zeros after the weights change neither max(0, -min w) nor sum w
    violation = np.maximum(0.0, -np.min(w, axis=1)) + np.abs(np.sum(w, axis=1) - 1.0)
    single = (sup.count == 1) & ~sup.weighted
    dist = np.linalg.norm(sup.gens[single, 0] - sup.rows[single], axis=1)
    several = np.flatnonzero((sup.count > 1) & ~sup.weighted)
    hull = [geometry.dist_to_convex_hull(sup.rows[i], sup.gens[i, : sup.count[i]])[0]
            for i in several]
    worst = float(np.max(np.concatenate([violation, dist, hull]), initial=0.0))
    tol = config.structural_tol
    return [
        Entry("jump_inclusion", worst, tol),
        Entry("jump_inclusion_outside", outside_mass, tol),
    ]


def _direction_measure(samples: Samples, ms: MultiplierSet) -> SignedMeasure:
    """The vector measure s*d-eta used by the costate balance."""
    n, grid = samples.problem.n, samples.trajectory.grid
    sup = _support_directions(samples, ms, resolve_bare=True)
    sdeta = sup.rows * sup.value[:, None]
    k = sup.natoms
    atoms = np.zeros((grid.ncells + 1, n))
    atoms[sup.index[:k]] = sdeta[:k]
    density = np.zeros((grid.ncells, n))
    density[sup.index[k:]] = sdeta[k:]
    return SignedMeasure(grid=grid, dim=n, atoms=atoms, density=density)


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

    The trapezoid sum runs in cell order, the mass in node order (atom,
    then the following cell), as :func:`running_sum` adds it.
    """
    N, n = cell_mass.shape
    acc = np.zeros((N + 1, n))
    acc[1:] = np.cumsum((0.5 * widths)[:, None] * (a_left + a_right), axis=0)
    mass = running_sum(np.zeros(n), atoms, cell_mass)[1::2]
    return p.right_limits() - p.exterior_left + acc + mass


def _adjoint_profile(samples: Samples, ms: MultiplierSet) -> tuple[np.ndarray, float]:
    """Residual rows of the cumulative costate balance at every node.

    r_k compares the right limit of p at node k against the exterior left
    value minus the running integral of p.f_x + lambda*G_x (trapezoid, with
    p taken by its left-limit node values) minus the closed-interval mass of
    s*d-eta through node k.  Returns (rows, data scale).
    """
    grid = samples.trajectory.grid
    p = ms.p
    sdeta = _direction_measure(samples, ms)
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
        sdeta.atoms,
        sdeta.density * grid.widths[:, None],
    )
    return rows, scale


def _auto_tol(explicit: float | None, config: CheckConfig, h: float, scale: float) -> float:
    if explicit is not None:
        return explicit
    return max(config.structural_tol, 10.0 * h * scale)


def check_adjoint(
    samples: Samples, ms: MultiplierSet, config: CheckConfig = CheckConfig()
) -> Entry:
    """Max-norm residual of the costate balance in cumulative form."""
    rows, scale = _adjoint_profile(samples, ms)
    residual = float(np.max(np.abs(rows)))
    h = float(np.max(samples.trajectory.grid.widths))
    tol = _auto_tol(config.adjoint_tol, config, h, scale)
    return Entry("adjoint", residual, tol, detail=f"data_scale={scale!r}")


def check_transversality(
    samples: Samples, ms: MultiplierSet, config: CheckConfig = CheckConfig()
) -> Entry:
    """Endpoint relations: p(t0-) + alpha0*J_x0 = 0 and p(t1+) = alpha0*J_x1."""
    jx0, jx1 = samples.endpoint_gradients
    left = float(np.linalg.norm(ms.p.exterior_left + ms.alpha0 * jx0))
    right = float(np.linalg.norm(ms.p.exterior_right - ms.alpha0 * jx1))
    return Entry("transversality", left + right, config.structural_tol)


def check_stationarity(
    samples: Samples, ms: MultiplierSet, config: CheckConfig = CheckConfig()
) -> Entry:
    """Essential-supremum residual of p.f_u + lambda*G_u, sampled at both
    cell sides and the midpoint; the L1 aggregate is reported as detail."""
    grid = samples.trajectory.grid
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
    samples: Samples, ms: MultiplierSet, config: CheckConfig = CheckConfig()
) -> Report:
    """Run every condition check and assemble the report.

    Every sub-check reads the problem data from the one Samples given, so
    they are evaluated once.  Sub-check errors become failing entries
    instead of aborting the rest.  Diagnostics carry the dynamics defect (informational, not a
    gate), the nontriviality value, and the convention-sensitive nodes:
    atoms of d-eta at declared control jumps whose two sides differ, where
    the integrand side at the atom is a convention.  Refused before any
    sub-check runs: a costate whose width is not the problem's n, and
    multipliers on a grid whose nodes are not the trajectory's, the one grid
    every sub-check reads.
    """
    n = samples.problem.n
    if ms.p.dim != n:
        raise InputError(f"the costate p has width {ms.p.dim}, but the problem has n = {n}")
    if not np.array_equal(ms.grid.nodes, samples.trajectory.grid.nodes):
        raise InputError("the multipliers live on another grid than the trajectory's")
    entries: list[Entry] = []
    try:
        entries.extend(check_signs_slackness(samples, ms, config))
    except LmpkitError as err:
        entries.append(_error_entry("signs_slackness", err))
    entries.append(check_nontriviality(ms))
    try:
        entries.extend(check_jump_inclusion(samples, ms, config))
    except LmpkitError as err:
        entries.append(_error_entry("jump_inclusion", err))
    try:
        entries.append(check_adjoint(samples, ms, config))
    except LmpkitError as err:
        entries.append(_error_entry("adjoint", err))
    try:
        entries.append(check_transversality(samples, ms, config))
    except LmpkitError as err:
        entries.append(_error_entry("transversality", err))
    try:
        entries.append(check_stationarity(samples, ms, config))
    except LmpkitError as err:
        entries.append(_error_entry("stationarity", err))

    diagnostics: dict = {}
    try:
        defect = dynamics_defect(samples)
        diagnostics["dynamics_defect_max"] = float(np.max(np.abs(defect)))
    except (EvalError, InputError) as err:
        diagnostics["dynamics_defect_max"] = f"error: {err}"
    nodes = np.flatnonzero(ms.eta.atoms[:, 0])
    diagnostics["convention_sensitive_nodes"] = nodes[np.isin(nodes, samples.two_sided)].tolist()
    diagnostics["nu"] = ms.nu()
    try:
        contact = samples.contact_set
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


def merge_state_constraint(samples: Samples, ms: MultiplierSet) -> MergedStateConstraint:
    """Merge lambda*dt + d-eta into one measure for G(x, u) = g(x).

    Requires G_u to vanish structurally (as an expression).  The costate
    balance is re-expressed with the state gradient of g against the merged
    measure, and slackness becomes the integral of |g| against it; by
    construction both residuals coincide with the unmerged forms evaluated
    with s equal to that gradient.
    """
    if not all(expr.is_zero(e) for e in samples.problem.G_u):
        raise InputError("G depends on the control; the merged form needs G(x,u)=g(x)")
    grid = samples.trajectory.grid
    merged = SignedMeasure(grid, atoms=ms.eta.atoms, density=ms.lam + ms.eta.density[:, 0])
    left, right = samples.left, samples.right
    gprime = samples.at_nodes(left.G_x, right.G_x)
    gvals = samples.at_nodes(left.G, right.G)

    p = ms.p
    rows = _balance_rows(
        p,
        _costate_times(p.values[:-1], left.f_x),
        _costate_times(p.values[1:], right.f_x),
        grid.widths,
        merged.atoms * gprime,
        (merged.density[:, 0] * grid.widths)[:, None] * (0.5 * (gprime[:-1] + gprime[1:])),
    )
    worst = float(np.max(np.abs(rows)))

    slack = float(np.sum(np.abs(gvals) * np.abs(merged.atoms[:, 0])))
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
