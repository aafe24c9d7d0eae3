"""Independent oracles and random-instance generators used by the tests.

Everything here deliberately avoids the code paths under test: derivatives
are checked by central differences of the evaluator, hull distances by
exhaustive simplex-grid and face enumeration, the weights of Wolfe's start
corral by a dense inverse, cone intersections by rejection sampling and by
the primal margin LP in the unit box, small linear programs by enumerating
their bases, cumulative functions of measures by a loop over the nodes, the
control cells and direction records of a file record by record, the
recovery program by a loop over the cells, the problem data one point at a
time by the scalar evaluator, the closure in measure of the control node by
node from its definition, and expected fixture values by closed forms
written out by hand.
The tests build costates with ``cumulative``, which runs
``measures.running_sum``; the node loop checks it bit for bit.  They build
certificates record by record (``Record``, ``directions_of``,
``node_rows``), and ``scaled`` rescales one for the scale-invariance tests.
``entry`` reads a report's line by name, and ``node_at`` a grid's node by
its time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from lmpkit import expr, geometry, lp
from lmpkit.errors import InputError, LmpkitError, NumericalError
from lmpkit.io import _index, _vector
from lmpkit.lmp import POSITIVE_TOL, Directions, MultiplierSet
from lmpkit.measures import BVFunction, SignedMeasure, running_sum
from lmpkit.problem import ProblemDef, TimeGrid, Trajectory
from lmpkit.recovery import RecoveryConfig, _slack_threshold
from lmpkit.samples import Samples


def central_difference(e, var: str, binding: dict, h: float = 1e-6) -> float:
    up = dict(binding)
    down = dict(binding)
    up[var] = binding[var] + h
    down[var] = binding[var] - h
    return (expr.evaluate(e, up) - expr.evaluate(e, down)) / (2.0 * h)


_FUNCS = ("sin", "cos", "exp", "sqrt", "log", "abs")


def random_expression(rng: np.random.Generator, names: list[str], depth: int):
    """Random AST over the given variable names; biased toward small trees."""
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return expr.Const(float(np.round(rng.uniform(-2.0, 2.0), 3)))
        return expr.Var(names[int(rng.integers(len(names)))])
    kind = rng.random()
    if kind < 0.55:
        op = "+-*/"[int(rng.integers(4))]
        return expr.Binary(
            op,
            random_expression(rng, names, depth - 1),
            random_expression(rng, names, depth - 1),
        )
    if kind < 0.65:
        return expr.Neg(random_expression(rng, names, depth - 1))
    if kind < 0.78:
        return expr.Pow(random_expression(rng, names, depth - 1), int(rng.integers(2, 4)))
    func = _FUNCS[int(rng.integers(len(_FUNCS)))]
    return expr.Call(func, random_expression(rng, names, depth - 1))


def random_binding(rng: np.random.Generator, names: list[str]) -> dict:
    return {name: float(rng.uniform(-2.0, 2.0)) for name in names}


def fd_comparable_sample(rng: np.random.Generator, names: list[str]):
    """Draw (expression, binding, variable) where both the value and the
    finite-difference stencil stay comfortably inside the real domain."""
    while True:
        e = random_expression(rng, names, depth=int(rng.integers(1, 5)))
        var = names[int(rng.integers(len(names)))]
        binding = random_binding(rng, names)
        try:
            value = expr.evaluate(e, binding)
            d = expr.evaluate(expr.differentiate(e, var), binding)
            for offset in (-2e-6, -1e-6, 1e-6, 2e-6):
                shifted = dict(binding)
                shifted[var] = binding[var] + offset
                expr.evaluate(e, shifted)
        except expr.EvalError:
            continue
        except Exception:
            continue
        if abs(value) > 1e3 or abs(d) > 1e4:
            continue
        return e, var, binding


# -- hull-distance brute force ---------------------------------------------------


def hull_distance_bruteforce(s, generators, step: float = 1e-3) -> float:
    """Minimum of |sum w_i v_i - s| over the weight simplex sampled on a
    regular grid with the given step, by exhaustive enumeration."""
    vs = np.asarray(generators, dtype=float)
    s = np.asarray(s, dtype=float)
    r = vs.shape[0]
    n = int(round(1.0 / step))
    if r == 1:
        return float(np.linalg.norm(vs[0] - s))
    if r == 2:
        w1 = np.arange(n + 1) / n
        pts = np.outer(w1, vs[0]) + np.outer(1.0 - w1, vs[1])
        return float(np.min(np.linalg.norm(pts - s, axis=1)))
    pairs = _simplex_pairs(n)
    if r == 3:
        w = np.column_stack([pairs / n, 1.0 - pairs.sum(axis=1) / n])
        pts = w @ vs
        return float(np.min(np.linalg.norm(pts - s, axis=1)))
    if r == 4:
        return _bruteforce_four(s, vs, n, pairs)
    raise ValueError("brute force supports at most 4 generators")


def _simplex_pairs(n: int) -> np.ndarray:
    """All integer pairs (k1, k2) with k1 + k2 <= n, sorted by the sum."""
    chunks = []
    for total in range(n + 1):
        k1 = np.arange(total + 1)
        chunks.append(np.column_stack([k1, total - k1]))
    return np.vstack(chunks)


def _bruteforce_four(s, vs, n, pairs) -> float:
    # Quadratic-form coefficients: |Vw - s|^2 = w.Q.w - 2 c.w + s.s, with
    # w4 = K - w3 (K = 1 - w1 - w2) eliminated, leaving per-pair polynomials
    # A + B*w3 + C*w3^2 minimised over the admissible prefix for every w3.
    Q = vs @ vs.T
    c = vs @ s
    ss = float(s @ s)
    w1 = pairs[:, 0] / n
    w2 = pairs[:, 1] / n
    K = 1.0 - w1 - w2
    A = (
        Q[0, 0] * w1**2
        + Q[1, 1] * w2**2
        + 2.0 * Q[0, 1] * w1 * w2
        + Q[3, 3] * K**2
        + 2.0 * Q[0, 3] * w1 * K
        + 2.0 * Q[1, 3] * w2 * K
        - 2.0 * c[0] * w1
        - 2.0 * c[1] * w2
        - 2.0 * c[3] * K
        + ss
    )
    B = (
        -2.0 * Q[3, 3] * K
        + 2.0 * Q[0, 2] * w1
        - 2.0 * Q[0, 3] * w1
        + 2.0 * Q[1, 2] * w2
        - 2.0 * Q[1, 3] * w2
        + 2.0 * Q[2, 3] * K
        - 2.0 * c[2]
        + 2.0 * c[3]
    )
    C = Q[2, 2] + Q[3, 3] - 2.0 * Q[2, 3]
    sums = pairs.sum(axis=1)  # ascending by construction
    best = np.inf
    for k3 in range(n + 1):
        w3 = k3 / n
        cut = int(np.searchsorted(sums, n - k3, side="right"))
        if cut == 0:
            continue
        vals = A[:cut] + w3 * B[:cut]
        best = min(best, float(np.min(vals)) + C * w3 * w3)
    return float(np.sqrt(max(best, 0.0)))


def hull_distance_faces(s, generators) -> float:
    """Distance from s to conv{generators} by enumerating every face: the
    affine least-squares point of each subset, kept when its weights are
    nonnegative.  Exact up to the conditioning of the face solves."""
    vs = np.asarray(generators, dtype=float)
    s = np.asarray(s, dtype=float)
    r = vs.shape[0]
    best = np.inf
    for size in range(1, r + 1):
        for subset in itertools.combinations(range(r), size):
            sub = vs[list(subset)]
            w = _affine_least_squares(s, sub)
            if w is None or np.any(w < -1e-10):
                continue
            w = np.clip(w, 0.0, None)
            w = w / np.sum(w)
            best = min(best, float(np.linalg.norm(w @ sub - s)))
    return best


def _affine_least_squares(s, sub):
    """Minimise |w @ sub - s| subject to sum(w) = 1 (signs unconstrained)."""
    k = sub.shape[0]
    if k == 1:
        return np.array([1.0])
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = 2.0 * (sub @ sub.T)
    kkt[:k, k] = 1.0
    kkt[k, :k] = 1.0
    rhs = np.concatenate([2.0 * (sub @ s), [1.0]])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    w = sol[:k]
    if not np.all(np.isfinite(w)) or abs(float(np.sum(w)) - 1.0) > 1e-8:
        return None
    return w


def start_weights(P, start: int) -> np.ndarray:
    """The affine minimiser of the first ``start`` columns of P, from a dense
    inverse: ``inv(G_S + 1 1^T) @ 1`` normalised to sum 1.  Two steps of
    iterative refinement, with residuals in long double, take it to about
    2e-13 of the exact weights on ex2 at N=200, where the product alone is
    1.1e-12 off."""
    S = np.asarray(P, dtype=float)[:, :start]
    G = S.T @ S + 1.0
    G_inv = np.linalg.inv(G)
    ones = np.ones(start, dtype=np.longdouble)
    v = G_inv.sum(axis=1)
    for _ in range(2):
        v = v + G_inv @ (ones - G.astype(np.longdouble) @ v).astype(float)
    return v / v.sum()


# -- cone sampling oracle --------------------------------------------------------


def intersection_by_sampling(
    family, nsamples: int = 1_000_000, seed: int = 0
) -> bool:
    """Rejection sampling: does any random direction satisfy every cone's
    inequalities (strict for open cones)?"""
    dims = {c.generators.shape[1] for c in family}
    d = dims.pop()
    rng = np.random.default_rng(seed)
    chunk = 200_000
    remaining = nsamples
    while remaining > 0:
        size = min(chunk, remaining)
        remaining -= size
        xs = rng.normal(size=(size, d))
        ok = np.ones(size, dtype=bool)
        for cone in family:
            prods = xs @ np.asarray(cone.generators).T
            if cone.open:
                ok &= np.all(prods > 0.0, axis=1)
            else:
                ok &= np.all(prods >= 0.0, axis=1)
            if not ok.any():
                break
        if ok.any():
            return True
    return False


def margin_by_box_lp(family) -> tuple[float, np.ndarray]:
    """The margin t* and a witness x of the primal margin LP: maximise t
    subject to <g, x> >= 0 (closed cone), <g, x> >= t (open cones) and
    |x|_inf <= 1, laid out in standard form as (k + 2d) rows."""
    closed = [c.generators for c in family if not c.open]
    opened = [c.generators for c in family if c.open]
    G = np.vstack(closed + opened)
    k, d = G.shape
    n_closed = k - sum(g.shape[0] for g in opened)
    # x = xp - xm (2d), t = tp - tm (2), one surplus s per generator row
    # (g.x - s = 0 closed, g.x - t - s = 0 open), then one slack per box face
    # (x_j + slack = 1 and -x_j + slack = 1, row by row)
    nvar = 2 * d + 2 + k + 2 * d
    eye = np.eye(d)
    rows = np.zeros((k + 2 * d, nvar))
    rows[:k, :d] = G
    rows[:k, d : 2 * d] = -G
    rows[n_closed:k, 2 * d : 2 * d + 2] = [-1.0, 1.0]
    rows[:k, 2 * d + 2 : 2 * d + 2 + k] = -np.eye(k)
    rows[k::2, : 2 * d] = np.hstack([eye, -eye])
    rows[k + 1 :: 2, : 2 * d] = np.hstack([-eye, eye])
    rows[k::2, 2 * d + 2 + k : 2 * d + 2 + k + d] = eye
    rows[k + 1 :: 2, 2 * d + 2 + k + d :] = eye
    rhs = np.zeros(k + 2 * d)
    rhs[k:] = 1.0
    cost = np.zeros(nvar)
    cost[2 * d : 2 * d + 2] = [-1.0, 1.0]  # maximise t
    # start on the surplus columns of the generator rows and the box rows'
    # slacks (rows k + 2j and k + 2j + 1 take slacks j and d + j)
    slacks = np.arange(2 * d).reshape(2, d).T.ravel()
    start = 2 * d + 2 + np.append(np.arange(k), k + slacks)
    result = lp.solve_standard_form(cost, rows, rhs, start)
    return -result.objective, result.x[:d] - result.x[d : 2 * d]


# -- linear programs by basis enumeration ---------------------------------------


def _basic_feasible_solutions(A, b) -> list[np.ndarray]:
    """Every basic feasible solution of A x = b, x >= 0: the rows are cut to
    a maximal independent set, then every set of columns of that size whose
    submatrix is nonsingular is solved, and kept when x >= 0."""
    m, n = A.shape
    rank = np.linalg.matrix_rank(A) if A.size else 0
    if np.linalg.matrix_rank(np.column_stack([A, b])) > rank:
        return []
    rows: list[int] = []
    for i in range(m):
        if np.linalg.matrix_rank(A[rows + [i]]) > len(rows):
            rows.append(i)
    A, b = A[rows], b[rows]
    found = []
    for cols in itertools.combinations(range(n), rank):
        B = A[:, list(cols)]
        if rank and np.linalg.matrix_rank(B) < rank:
            continue
        x = np.zeros(n)
        x[list(cols)] = np.linalg.solve(B, b)
        if x.min() >= -1e-9:
            found.append(x)
    return found


def lp_by_basis_enumeration(c, A, b) -> tuple[str, float | None]:
    """min c.x s.t. A x = b, x >= 0 for m <= 4 rows and n <= 8 columns.

    Returns (status, objective).  A feasible program has a basic feasible
    solution, and its optimum is the least objective among them unless the
    program is unbounded, which it is exactly when some vertex d of
    {d >= 0, A d = 0, sum(d) = 1} has c.d < 0.
    """
    c, A, b = (np.asarray(v, dtype=float) for v in (c, A, b))
    m, n = A.shape
    if m > 4 or n > 8:
        raise ValueError("basis enumeration is for m <= 4 and n <= 8")
    vertices = _basic_feasible_solutions(A, b)
    if not vertices:
        return "infeasible", None
    rays = _basic_feasible_solutions(np.vstack([A, np.ones(n)]), np.eye(m + 1)[m])
    if any(c @ d < -1e-9 for d in rays):
        return "unbounded", None
    return "optimal", min(float(c @ x) for x in vertices)


# -- certificates record by record ----------------------------------------------
#
# The library holds a certificate in arrays only: atoms as rows, one per
# node, and s as a Directions record.  The tests build certificates, and the
# reference checker reads them, one record at a time through these.


@dataclass(frozen=True)
class Record:
    """One direction record of s: a costate-space row ``vector``, or convex
    ``weights`` over the local jump-direction generators."""

    vector: np.ndarray | None = None
    weights: np.ndarray | None = None

    def __post_init__(self):
        if (self.vector is None) == (self.weights is None):
            raise InputError("give exactly one of vector or weights")
        for name in ("vector", "weights"):
            if getattr(self, name) is not None:
                numbers = np.asarray(getattr(self, name), dtype=float).reshape(-1)
                object.__setattr__(self, name, numbers)


def directions_of(records: dict) -> Directions:
    """The arrays of a mapping from node or cell number to its Record."""
    keys = sorted(records)
    weighted = [records[k].weights is not None for k in keys]
    numbers = [records[k].weights if w else records[k].vector for k, w in zip(keys, weighted)]
    size = np.array([v.size for v in numbers], dtype=np.intp)
    values = np.zeros((len(keys), int(size.max(initial=0))))
    for row, v in zip(values, numbers):
        row[: v.size] = v
    return Directions(index=keys, weighted=weighted, size=size, values=values)


def records_of(directions: Directions) -> dict:
    """The Record of each node or cell of ``directions``."""
    out = {}
    for i, k in enumerate(directions.index.tolist()):
        numbers = directions.values[i, : directions.size[i]].copy()
        out[k] = Record(weights=numbers) if directions.weighted[i] else Record(vector=numbers)
    return out


def node_rows(grid: TimeGrid, atoms: dict, dim: int = 1) -> np.ndarray:
    """One row per node of ``grid``: ``atoms[k]`` at node k, zeros elsewhere."""
    rows = np.zeros((grid.ncells + 1, dim))
    for k, row in atoms.items():
        rows[k] = row
    return rows


def scaled(ms: MultiplierSet, c: float) -> MultiplierSet:
    """The certificate times c > 0; the directions are scale-free."""
    assert c > 0
    eta, p = ms.eta, ms.p
    return replace(
        ms,
        alpha0=c * ms.alpha0,
        lam=c * ms.lam,
        eta=SignedMeasure(eta.grid, eta.dim, c * eta.atoms, c * eta.density, eta.nonnegative),
        p=BVFunction(grid=p.grid, values=c * p.values, atoms=c * p.atoms),
    )


def entry(report, name: str):
    """The entry of a report by its condition name."""
    return next(e for e in report.entries if e.name == name)


def node_at(grid: TimeGrid, t: float) -> int:
    """The node of a grid at time t, to within 1e-9 of the horizon."""
    k = int(np.argmin(np.abs(grid.nodes - t)))
    assert abs(grid.nodes[k] - t) <= 1e-9 * (grid.t1 - grid.t0), t
    return k


# -- cumulative function of a measure ------------------------------------------


def cumulative(dmu: SignedMeasure, base=None) -> BVFunction:
    """The BV function p with dp = dmu and p(t0-) = base.

    Atoms of p equal atoms of dmu; the absolutely continuous part is the
    running integral of the density.  Left-continuity holds by construction,
    and p(b+0) - p(a-0) reproduces the closed-interval mass exactly.
    """
    base = np.zeros(dmu.dim) if base is None else np.asarray(base, dtype=float)
    cells = dmu.density * dmu.grid.widths[:, None]
    values = running_sum(base, dmu.atoms, cells)[0::2]
    return BVFunction(grid=dmu.grid, values=values, atoms=dmu.atoms.copy())


def cumulative_by_loop(dmu: SignedMeasure, base=None) -> BVFunction:
    """The BV function p with dp = dmu and p(t0-) = base, node by node: the
    right limit at node k is the value there plus its atom, and the value at
    node k + 1 adds cell k's mass to that."""
    base = np.zeros(dmu.dim) if base is None else np.asarray(base, dtype=float)
    values = np.empty((dmu.grid.ncells + 1, dmu.dim))
    values[0] = base
    for k in range(dmu.grid.ncells):
        right = values[k] + dmu.atoms[k]
        values[k + 1] = right + dmu.density[k] * dmu.grid.widths[k]
    return BVFunction(grid=dmu.grid, values=values, atoms=dmu.atoms.copy())


# -- file lists, record by record ------------------------------------------------


def u_cells_by_record(cells: list, path: str) -> tuple[np.ndarray, np.ndarray]:
    u_left, u_right = [], []
    m = None
    for i, cell in enumerate(cells):
        where = f"{path}[{i}]"
        if not isinstance(cell, dict):
            raise InputError(f"{where}: expected an object")
        if "value" in cell:
            left = right = _vector(cell["value"], m, f"{where}.value")
        else:
            left = _vector(cell.get("left"), m, f"{where}.left")
            right = _vector(cell.get("right"), left.size, f"{where}.right")
        m = left.size
        u_left.append(left)
        u_right.append(right)
    return np.vstack(u_left), np.vstack(u_right)


def directions_by_record(records: list, key: str, size: int, path: str) -> Directions:
    out: dict[int, Record] = {}
    taken: set[int] = set()
    for i, rec in enumerate(records):
        where = f"{path}[{i}]"
        k = _index(rec, key, size, taken, where)
        out[k] = _load_direction(rec, where)
    return directions_of(out)


def _load_direction(rec: dict, where: str) -> Record:
    if ("vector" in rec) == ("weights" in rec):
        raise InputError(f"{where}: give exactly one of vector or weights")
    if "vector" in rec:
        return Record(vector=_vector(rec["vector"], None, f"{where}.vector"))
    return Record(weights=_vector(rec["weights"], None, f"{where}.weights"))


# -- the recovery program, cell by cell ------------------------------------------


def build_program_by_cells(problem, trajectory, config=RecoveryConfig()):
    """The recovery program assembled one cell at a time: per-node dense
    atom maps ``W``, one linear solve per cell of the backward recursion and
    one row block per sample.  It shares the sampled data and the contact
    set with ``recovery.build_program`` and nothing of its assembly; its jump
    generators come from the scalar oracle ``reference_node_generators``.
    The unknowns are masses: alpha0, lambda_k h_k on the active cells, and
    the atom coefficients.

    Returns its inputs, ``nvars``, the column dicts ``idx_lam`` (cell ->
    column) and ``idx_atom`` (node -> columns), the generators ``atom_gens``
    keyed like ``idx_atom``, ``M``, ``A_L`` and ``W``."""
    samples = Samples(problem, trajectory)
    left, mid, right = samples.left, samples.mid, samples.right
    grid = trajectory.grid
    N = grid.ncells
    n = problem.n

    slack = _slack_threshold(samples, config)
    active = np.flatnonzero(np.maximum(left.G, right.G) >= -slack).tolist()
    atom_gens = {
        k: np.asarray(reference_node_generators(problem, trajectory, k, *DEFAULT))
        for k in np.flatnonzero(samples.contact_set.flags).tolist()
    }

    idx_lam = {k: 1 + i for i, k in enumerate(active)}
    pos = 1 + len(active)
    idx_atom = {}
    for k, gens in atom_gens.items():
        idx_atom[k] = list(range(pos, pos + gens.shape[0]))
        pos += gens.shape[0]
    nvars = pos

    W = {}
    for k, gens in atom_gens.items():
        W[k] = np.zeros((nvars, n))
        W[k][idx_atom[k]] = gens

    x0, x1 = trajectory.endpoints
    jx0, jx1 = problem.endpoint_gradients(x0, x1)
    A_L = np.zeros((N + 1, nvars, n))
    A_L[N][0] = jx1
    if N in W:
        A_L[N] += W[N]
    eye = np.eye(n)
    for k in range(N - 1, -1, -1):
        h = grid.widths[k]
        rhs = A_L[k + 1] @ (eye + 0.5 * h * right.f_x[k])
        if k in W:
            rhs = rhs + W[k]
        if k in idx_lam:
            rhs[idx_lam[k]] += 0.5 * (left.G_x[k] + right.G_x[k])
        try:
            A_L[k] = np.linalg.solve((eye - 0.5 * h * left.f_x[k]).T, rhs.T).T
        except np.linalg.LinAlgError as err:
            raise NumericalError(f"costate recursion matrix is singular on cell {k}") from err

    m = problem.m
    rows = np.zeros((3 * N * m + n, nvars))
    row = 0
    for k in range(N):
        weight = np.sqrt(grid.widths[k] / 3.0)
        A_pl = A_L[k] - W[k] if k in W else A_L[k]
        A_pr = A_L[k + 1]
        for points, A_p in ((left, A_pl), (mid, 0.5 * (A_pl + A_pr)), (right, A_pr)):
            block = (A_p @ points.f_u[k]).T
            if k in idx_lam:
                block[:, idx_lam[k]] += points.G_u[k] / grid.widths[k]
            rows[row : row + m] = weight * block
            row += m
    rows[row:] = A_L[0].T
    rows[row:, 0] += jx0
    return SimpleNamespace(
        problem=problem,
        trajectory=trajectory,
        nvars=nvars,
        idx_lam=idx_lam,
        idx_atom=idx_atom,
        atom_gens=atom_gens,
        M=rows,
        A_L=A_L,
        W=W,
    )


def layout_by_cells(program) -> list[tuple[str, int | None]]:
    """One (kind, node or cell) label per column of a program of
    :func:`build_program_by_cells`."""
    labels = [("alpha0", None)] * program.nvars
    for kind, idx in (
        ("lambda", {k: [i] for k, i in program.idx_lam.items()}),
        ("atom", program.idx_atom),
    ):
        for k, cols in idx.items():
            for col in cols:
                labels[col] = (kind, k)
    return labels


def encode_certificate_by_cells(program, ms) -> np.ndarray:
    """A certificate mapped onto the masses of :func:`build_program_by_cells`,
    one cell and one atom at a time; the density of a cell goes onto its
    lambda, split along the cell's midpoint generator."""
    grid = ms.grid
    theta = np.zeros(program.nvars)
    theta[0] = ms.alpha0
    mid_gens = Samples(program.problem, program.trajectory).mid.phase_gradients
    s_atoms, s_cells = records_of(ms.s_atoms), records_of(ms.s_cells)
    for k in range(grid.ncells):
        if ms.lam[k] != 0.0:
            theta[program.idx_lam[k]] = ms.lam[k] * grid.widths[k]
        e = float(ms.eta.density[k, 0])
        if e != 0.0:
            weights = _weights_by_hull(s_cells[k], mid_gens[k : k + 1])
            theta[program.idx_lam[k]] += (e * grid.widths[k] * weights).item()
    for k in range(grid.ncells + 1):
        mass = float(ms.eta.atoms[k, 0])
        if mass != 0.0:
            weights = _weights_by_hull(s_atoms[k], program.atom_gens[k])
            theta[program.idx_atom[k]] = mass * weights
    return theta


def _weights_by_hull(sd: Record, gens: np.ndarray) -> np.ndarray:
    if sd.weights is not None:
        return sd.weights
    dist, weights = geometry.dist_to_convex_hull(sd.vector, gens)
    assert dist <= 1e-8
    return weights


# -- random trajectories ---------------------------------------------------------


def random_trajectory(rng: np.random.Generator) -> Trajectory:
    """Piecewise-smooth trajectory with up to 5 declared control jumps."""
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 4))
    ncells = int(rng.integers(8, 40))
    widths = rng.uniform(0.5, 1.5, size=ncells)
    nodes = np.concatenate([[0.0], np.cumsum(widths)])
    grid = TimeGrid(nodes)
    x = rng.normal(size=(ncells + 1, n))
    njumps = int(rng.integers(0, 6))
    interior = rng.permutation(np.arange(1, ncells))[:njumps]
    jumps = tuple(sorted(int(j) for j in interior))
    left_of_node = np.empty((ncells + 1, m))
    right_of_node = np.empty((ncells + 1, m))
    for k in range(ncells + 1):
        value = rng.normal(size=m)
        left_of_node[k] = value
        if k in jumps:
            offset = rng.normal(size=m)
            offset[np.abs(offset) < 0.1] = 0.1
            right_of_node[k] = value + offset
        else:
            right_of_node[k] = value
    return Trajectory(
        grid=grid,
        x=x,
        u_left=right_of_node[:-1],
        u_right=left_of_node[1:],
        jumps=jumps,
    )


# -- random problems and certificates -------------------------------------------


def random_problem(n: int, m: int) -> ProblemDef:
    """Smooth data whose phase set a random trajectory meets at some points
    under the relaxed tolerances RELAXED."""
    f = [f"0.5*x{i % n + 1} + u{i % m + 1}^2 - x{(i + 1) % n + 1}*u1" for i in range(n)]
    G = " + ".join(f"0.25*u{j + 1}^2" for j in range(m)) + " - 1 + 0.1*x1"
    return ProblemDef.from_strings(
        n=n, m=m, t0=0.0, t1=1.0, f=f, G=G, J="x0_1*x1_1 + x1_1^2"
    )


# (delta, eps) of the relaxed phase test: the defaults of Samples, and the
# wide pair under which the phase sets of random_problem meet random
# trajectories
DEFAULT = (1e-8, 1e-8)
RELAXED = (2.0, 1.0)


def random_certificate(rng, problem, trajectory, phase) -> MultiplierSet:
    """Multipliers with atoms at the declared jumps and at random nodes,
    random densities, and directions given as vectors or as weights; the
    generators that weights refer to are those of the phase-test tolerances
    ``phase``, a (delta, eps) pair."""
    grid = trajectory.grid
    N, n = grid.ncells, problem.n
    nodes = set(trajectory.jumps) | set(rng.choice(N + 1, size=3, replace=False).tolist())
    atoms = {int(k): float(rng.uniform(0.1, 1.0)) for k in nodes}
    density = np.where(rng.random(N) < 0.5, rng.uniform(0.0, 1.0, N), 0.0)
    s_atoms, s_cells = {}, {}
    elements = [(k, reference_node_generators(problem, trajectory, k, *phase),
                 s_atoms) for k in atoms]
    elements += [(k, reference_mid_generators(problem, trajectory, k, *phase),
                  s_cells) for k in np.flatnonzero(density).tolist()]
    for k, gens, target in elements:
        if gens and rng.random() < 0.5:
            weights = rng.dirichlet(np.ones(len(gens)))
            if rng.random() < 0.5:  # off the simplex: negative or unnormalised
                weights = weights * rng.uniform(-0.5, 1.5) - rng.uniform(0.0, 0.2)
            target[k] = Record(weights=weights)
        elif gens and rng.random() < 0.5:
            target[k] = Record(vector=rng.dirichlet(np.ones(len(gens))) @ np.array(gens))
        else:
            target[k] = Record(vector=rng.normal(size=n))
    if s_cells and rng.random() < 0.25:  # a missing direction makes two checks raise
        del s_cells[min(s_cells)]
    p_atoms = {k: rng.normal(size=n) for k in atoms}
    return MultiplierSet(
        alpha0=float(rng.uniform(-0.2, 1.0)),
        lam=np.where(rng.random(N) < 0.7, rng.uniform(0.0, 1.0, N), 0.0),
        eta=SignedMeasure(grid, atoms=node_rows(grid, atoms), density=density),
        s_atoms=directions_of(s_atoms),
        s_cells=directions_of(s_cells),
        p=BVFunction(
            grid=grid, values=rng.normal(size=(N + 1, n)), atoms=node_rows(grid, p_atoms, n)
        ),
    )


# -- the data at one point, and the control at one node -------------------------
#
# The library evaluates tables over arrays (expr.evaluate_table, Samples) and
# lays out the closure in measure per node (Samples.per_node); the tests
# compare it against these, written out from the definitions one point or
# node at a time.


def evaluate_at(table, binding: dict):
    """An expression, or a tuple (of tuples) of them as an array, at one
    binding, entry by entry with the scalar expr.evaluate."""
    if not isinstance(table, tuple):
        return expr.evaluate(table, binding)
    return np.array([evaluate_at(e, binding) for e in table], dtype=float)


def at_point(problem, table, x, u):
    """A table of the problem at the point (x, u)."""
    binding = {f"x{i + 1}": float(x[i]) for i in range(problem.n)}
    binding.update({f"u{j + 1}": float(u[j]) for j in range(problem.m)})
    return evaluate_at(table, binding)


def at_endpoints(problem, table, x0, x1):
    """A table in the endpoint variables x0_i, x1_i at (x0, x1)."""
    binding = {f"x0_{i + 1}": float(x0[i]) for i in range(problem.n)}
    binding.update({f"x1_{i + 1}": float(x1[i]) for i in range(problem.n)})
    return evaluate_at(table, binding)


def control_points(trajectory, k) -> tuple[np.ndarray, ...]:
    """The closure in measure of the control at node k: the one-sided value
    at a horizon end, the left then the right limit at a declared jump whose
    sides differ, and the one value at every other node."""
    N = trajectory.grid.ncells
    if k == 0:
        return (trajectory.u_left[0],)
    if k == N:
        return (trajectory.u_right[N - 1],)
    left, right = trajectory.u_right[k - 1], trajectory.u_left[k]
    if k in trajectory.jumps and not np.array_equal(left, right):
        return (left, right)
    return (right,)


def laid_out_controls(trajectory) -> list[tuple[np.ndarray, ...]]:
    """Per node, the control points in the layout of Samples.per_node (its
    first slot, and its second where that is not the NaN fill), as tuples
    to compare with control_points.  The problem only sets the dimensions:
    laying the controls out evaluates nothing."""
    samples = Samples(random_problem(trajectory.n, trajectory.m), trajectory)
    table = samples.per_node(trajectory.u_left, trajectory.u_right, np.nan)
    return [tuple(row for row in node if not np.isnan(row[0])) for node in table]


def cell_mid(trajectory, k) -> tuple[np.ndarray, np.ndarray]:
    """The midpoint (x, u) of cell k."""
    return (0.5 * (trajectory.x[k] + trajectory.x[k + 1]),
            0.5 * (trajectory.u_left[k] + trajectory.u_right[k]))


# -- scalar reference checker ----------------------------------------------------
#
# A point-by-point port of the certificate checker as it stood before the
# problem data were evaluated over arrays: every table entry goes through
# the scalar evaluator (at_point), one grid point at a time.  The
# array-based checker is compared against it.


def _ref_phase(problem, x, u, delta, eps) -> bool:
    g = at_point(problem, problem.G, x, u)
    if g < -delta or g > 0.0:
        return False
    return float(np.linalg.norm(at_point(problem, problem.G_u, x, u))) <= eps


def _ref_generators(problem, x, points, delta, eps):
    return tuple(at_point(problem, problem.G_x, x, u) for u in points
                 if _ref_phase(problem, x, u, delta, eps))


def reference_node_generators(problem, trajectory, k, delta, eps):
    return _ref_generators(problem, trajectory.x[k], control_points(trajectory, k), delta, eps)


def reference_mid_generators(problem, trajectory, k, delta, eps):
    x, u = cell_mid(trajectory, k)
    return _ref_generators(problem, x, (u,), delta, eps)


def reference_contact_flags(problem, trajectory, delta, eps) -> np.ndarray:
    return np.array([
        any(_ref_phase(problem, trajectory.x[k], u, delta, eps)
            for u in control_points(trajectory, k))
        for k in range(trajectory.grid.ncells + 1)
    ])


def _ref_direction(sd, gens, n, where):
    if sd is None:
        raise InputError(f"direction s is missing at {where}")
    if sd.vector is not None:
        if sd.vector.size != n:
            raise InputError(f"wrong dimension at {where}")
        return sd.vector
    if not gens or sd.weights.size != len(gens):
        raise InputError(f"weights do not match the generators at {where}")
    return np.asarray(sd.weights) @ np.asarray(gens)


def _ref_support(ms):
    atoms = [(k, float(ms.eta.atoms[k, 0]))
             for k in range(ms.grid.ncells + 1) if ms.eta.atoms[k, 0] != 0.0]
    cells = [(k, float(ms.eta.density[k, 0] * ms.grid.widths[k]))
             for k in range(ms.grid.ncells) if ms.eta.density[k, 0] != 0.0]
    return atoms, cells


def _ref_signs_slackness(ms, problem, trajectory, config, phase):
    grid = trajectory.grid
    tol = config.structural_tol
    out = [
        ("alpha0_sign", max(0.0, -float(ms.alpha0)), tol),
        ("lambda_sign", float(np.max(np.maximum(0.0, -ms.lam), initial=0.0)), tol),
    ]
    neg = sum(max(0.0, -ms.eta.atoms[k, 0]) for k in range(grid.ncells + 1))
    for k in range(grid.ncells):
        neg += max(0.0, -ms.eta.density[k, 0]) * grid.widths[k]
    out.append(("eta_sign", neg, tol))
    slack = 0.0
    for k in range(grid.ncells):
        gl = at_point(problem, problem.G, trajectory.x[k], trajectory.u_left[k])
        gr = at_point(problem, problem.G, trajectory.x[k + 1], trajectory.u_right[k])
        slack += abs(ms.lam[k]) * 0.5 * (abs(gl) + abs(gr)) * grid.widths[k]
    out.append(("slackness", slack, tol))
    flags = reference_contact_flags(problem, trajectory, *phase)
    outside = sum(abs(ms.eta.atoms[k, 0]) for k in range(grid.ncells + 1) if not flags[k])
    for k in range(grid.ncells):
        if ms.eta.density[k, 0] != 0.0 and not (flags[k] and flags[k + 1]):
            outside += abs(ms.eta.density[k, 0]) * grid.widths[k]
    out.append(("eta_outside_contact", outside, tol))
    return out


def _ref_jump_inclusion(ms, problem, trajectory, config, phase):
    atoms, cells = _ref_support(ms)
    worst, outside = 0.0, 0.0
    s_atoms, s_cells = records_of(ms.s_atoms), records_of(ms.s_cells)
    elements = [(mass, s_atoms.get(k), f"node {k}",
                 reference_node_generators(problem, trajectory, k, *phase))
                for k, mass in atoms]
    elements += [(mass, s_cells.get(k), f"cell {k}",
                  reference_mid_generators(problem, trajectory, k, *phase))
                 for k, mass in cells]
    for mass, sd, where, gens in elements:
        if not gens:
            outside += abs(mass)
        elif sd is not None and sd.weights is not None:
            if sd.weights.size != len(gens):
                raise InputError(f"weights do not match the generators at {where}")
            violation = max(0.0, -float(np.min(sd.weights)))
            worst = max(worst, violation + abs(float(np.sum(sd.weights)) - 1.0))
        else:
            shat = _ref_direction(sd, gens, problem.n, where)
            worst = max(worst, hull_distance_exact(shat, gens))
    tol = config.structural_tol
    return [("jump_inclusion", worst, tol), ("jump_inclusion_outside", outside, tol)]


def hull_distance_exact(s, generators) -> float:
    """Distance to the hull of at most two generators, in closed form."""
    vs = np.asarray(generators, dtype=float)
    if vs.shape[0] == 1:
        return float(np.linalg.norm(vs[0] - s))
    a, b = vs
    d = b - a
    t = 0.0 if not np.any(d) else float(np.clip((s - a) @ d / (d @ d), 0.0, 1.0))
    return float(np.linalg.norm(a + t * d - s))


def _ref_adjoint(ms, problem, trajectory, config, phase):
    grid, p, n = ms.grid, ms.p, problem.n
    atoms, cells = _ref_support(ms)
    s_atoms, s_cells = records_of(ms.s_atoms), records_of(ms.s_cells)
    s_atom = {}
    for k, mass in atoms:
        gens = reference_node_generators(problem, trajectory, k, *phase)
        s_atom[k] = _ref_direction(s_atoms.get(k), gens, n, f"node {k}") * mass
    s_density = np.zeros((grid.ncells, n))
    for k, _ in cells:
        gens = reference_mid_generators(problem, trajectory, k, *phase)
        shat = _ref_direction(s_cells.get(k), gens, n, f"cell {k}")
        s_density[k] = shat * ms.eta.density[k, 0]
    zero = np.zeros(n)
    smass = s_atom.get(0, zero).copy()
    right = p.right_limits()
    worst = float(np.max(np.abs(right[0] - p.exterior_left + smass)))
    acc, scale = np.zeros(n), 1.0
    for k in range(grid.ncells):
        xl, ul = trajectory.x[k], trajectory.u_left[k]
        xr, ur = trajectory.x[k + 1], trajectory.u_right[k]
        a_left = (p.values[k] @ at_point(problem, problem.f_x, xl, ul)
                  + ms.lam[k] * at_point(problem, problem.G_x, xl, ul))
        a_right = (p.values[k + 1] @ at_point(problem, problem.f_x, xr, ur)
                   + ms.lam[k] * at_point(problem, problem.G_x, xr, ur))
        scale = max(scale, float(np.max(np.abs(a_left))), float(np.max(np.abs(a_right))))
        acc = acc + 0.5 * grid.widths[k] * (a_left + a_right)
        smass = smass + s_density[k] * grid.widths[k] + s_atom.get(k + 1, zero)
        row = right[k + 1] - p.exterior_left + acc + smass
        worst = max(worst, float(np.max(np.abs(row))))
    tol = config.adjoint_tol
    if tol is None:
        tol = max(config.structural_tol, 10.0 * float(np.max(grid.widths)) * scale)
    return [("adjoint", worst, tol)]


def _ref_stationarity(ms, problem, trajectory, config, phase):
    grid, p = trajectory.grid, ms.p
    right = p.right_limits()
    worst, scale = 0.0, 1.0
    for k in range(grid.ncells):
        samples = (
            (trajectory.x[k], trajectory.u_left[k], right[k]),
            (*cell_mid(trajectory, k), 0.5 * (right[k] + p.values[k + 1])),
            (trajectory.x[k + 1], trajectory.u_right[k], p.values[k + 1]),
        )
        for x, u, pk in samples:
            hu = pk @ at_point(problem, problem.f_u, x, u)
            gu = ms.lam[k] * at_point(problem, problem.G_u, x, u)
            worst = max(worst, float(np.max(np.abs(hu + gu))))
            scale = max(scale, float(np.max(np.abs(hu))), float(np.max(np.abs(gu))))
    tol = config.stationarity_tol
    if tol is None:
        tol = max(config.structural_tol, 10.0 * float(np.max(grid.widths)) * scale)
    return [("stationarity", worst, tol)]


def _ref_transversality(ms, problem, trajectory, config, phase):
    x0, x1 = trajectory.endpoints
    jx0 = at_endpoints(problem, problem.J_x0, x0, x1)
    jx1 = at_endpoints(problem, problem.J_x1, x0, x1)
    left = float(np.linalg.norm(ms.p.exterior_left + ms.alpha0 * jx0))
    right = float(np.linalg.norm(ms.p.exterior_right - ms.alpha0 * jx1))
    return [("transversality", left + right, config.structural_tol)]


def reference_dynamics_defect(problem, trajectory) -> np.ndarray:
    grid = trajectory.grid
    out = np.empty((grid.ncells, problem.n))
    for k in range(grid.ncells):
        fa = at_point(problem, problem.f, trajectory.x[k], trajectory.u_left[k])
        fb = at_point(problem, problem.f, trajectory.x[k + 1], trajectory.u_right[k])
        out[k] = trajectory.x[k + 1] - trajectory.x[k] - 0.5 * grid.widths[k] * (fa + fb)
    return out


def reference_check(problem, trajectory, ms, config, phase):
    """Entries (name, residual, tolerance) in the order of check_certificate,
    at the phase-test tolerances ``phase``, a (delta, eps) pair; a sub-check
    that raises gives one (name, inf, 0.0) entry."""
    entries = []
    nu = ms.nu()
    for name, check in (
        ("signs_slackness", _ref_signs_slackness),
        ("nontriviality", None),
        ("jump_inclusion", _ref_jump_inclusion),
        ("adjoint", _ref_adjoint),
        ("transversality", _ref_transversality),
        ("stationarity", _ref_stationarity),
    ):
        if check is None:
            entries.append((name, max(0.0, POSITIVE_TOL - nu), 0.0))
            continue
        try:
            entries.extend(check(ms, problem, trajectory, config, phase))
        except LmpkitError:
            entries.append((name, float("inf"), 0.0))
    return entries
