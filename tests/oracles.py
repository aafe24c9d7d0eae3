"""Independent oracles and random-instance generators used by the tests.

Everything here deliberately avoids the code paths under test: derivatives
are checked by central differences of the evaluator, hull distances by
exhaustive simplex-grid enumeration, cone intersections by rejection
sampling, and expected fixture values by closed forms written out by hand.
"""

from __future__ import annotations

import numpy as np

from lmpkit import expr
from lmpkit.errors import InputError, LmpkitError
from lmpkit.lmp import CheckConfig, MultiplierSet, SupportDirection
from lmpkit.measures import BVFunction, SignedMeasure
from lmpkit.problem import ProblemDef, TimeGrid, Trajectory


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
    under the relaxed tolerances of RELAXED."""
    f = [f"0.5*x{i % n + 1} + u{i % m + 1}^2 - x{(i + 1) % n + 1}*u1" for i in range(n)]
    G = " + ".join(f"0.25*u{j + 1}^2" for j in range(m)) + " - 1 + 0.1*x1"
    return ProblemDef.from_strings(
        n=n, m=m, t0=0.0, t1=1.0, f=f, G=G, J="x0_1*x1_1 + x1_1^2"
    )


RELAXED = CheckConfig(delta=2.0, eps=1.0)


def random_certificate(rng, problem, trajectory, config) -> MultiplierSet:
    """Multipliers with atoms at the declared jumps and at random nodes,
    random densities, and directions given as vectors or as weights."""
    grid = trajectory.grid
    N, n = grid.ncells, problem.n
    nodes = set(trajectory.jumps) | set(rng.choice(N + 1, size=3, replace=False).tolist())
    atoms = {int(k): float(rng.uniform(0.1, 1.0)) for k in nodes}
    density = np.where(rng.random(N) < 0.5, rng.uniform(0.0, 1.0, N), 0.0)
    s_atoms, s_cells = {}, {}
    elements = [(k, reference_node_generators(problem, trajectory, k, config.delta, config.eps),
                 s_atoms) for k in atoms]
    elements += [(k, reference_mid_generators(problem, trajectory, k, config.delta, config.eps),
                  s_cells) for k in np.flatnonzero(density).tolist()]
    for k, gens, target in elements:
        if gens and rng.random() < 0.5:
            weights = rng.dirichlet(np.ones(len(gens)))
            if rng.random() < 0.5:  # off the simplex: negative or unnormalised
                weights = weights * rng.uniform(-0.5, 1.5) - rng.uniform(0.0, 0.2)
            target[k] = SupportDirection(weights=weights)
        elif gens and rng.random() < 0.5:
            target[k] = SupportDirection(vector=rng.dirichlet(np.ones(len(gens))) @ np.array(gens))
        else:
            target[k] = SupportDirection(vector=rng.normal(size=n))
    if s_cells and rng.random() < 0.25:  # a missing direction makes two checks raise
        del s_cells[min(s_cells)]
    p_atoms = {k: rng.normal(size=n) for k in atoms}
    return MultiplierSet(
        alpha0=float(rng.uniform(-0.2, 1.0)),
        lam=np.where(rng.random(N) < 0.7, rng.uniform(0.0, 1.0, N), 0.0),
        eta=SignedMeasure.scalar(grid, atoms=atoms, density=density),
        s_atoms=s_atoms,
        s_cells=s_cells,
        p=BVFunction(grid=grid, values=rng.normal(size=(N + 1, n)), atoms=p_atoms),
    )


# -- scalar reference checker ----------------------------------------------------
#
# A point-by-point port of the certificate checker as it stood before the
# problem data were evaluated over arrays: every table entry goes through
# the scalar evaluator (ProblemDef.*_at), one grid point at a time.  The
# array-based checker is compared against it.


def _ref_phase(problem, x, u, delta, eps) -> bool:
    g = problem.G_at(x, u)
    if g < -delta or g > 0.0:
        return False
    return float(np.linalg.norm(problem.Gu_at(x, u))) <= eps


def _ref_generators(problem, x, points, delta, eps):
    return tuple(problem.Gx_at(x, u) for u in points if _ref_phase(problem, x, u, delta, eps))


def reference_node_generators(problem, trajectory, k, delta, eps):
    return _ref_generators(problem, trajectory.x[k], trajectory.control_points(k), delta, eps)


def reference_mid_generators(problem, trajectory, k, delta, eps):
    return _ref_generators(
        problem, trajectory.x_mid(k), (trajectory.u_mid(k),), delta, eps
    )


def reference_contact_flags(problem, trajectory, delta, eps) -> np.ndarray:
    return np.array([
        any(_ref_phase(problem, trajectory.x[k], u, delta, eps)
            for u in trajectory.control_points(k))
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
    atoms = [(k, ms.eta.scalar_atom(k)) for k in sorted(ms.eta.atoms)
             if ms.eta.scalar_atom(k) != 0.0]
    cells = [(k, float(ms.eta.density[k, 0] * ms.grid.widths[k]))
             for k in range(ms.grid.ncells) if ms.eta.density[k, 0] != 0.0]
    return atoms, cells


def _ref_signs_slackness(ms, problem, trajectory, config):
    grid = trajectory.grid
    tol = config.structural_tol
    out = [
        ("alpha0_sign", max(0.0, -float(ms.alpha0)), tol),
        ("lambda_sign", float(np.max(np.maximum(0.0, -ms.lam), initial=0.0)), tol),
    ]
    neg = sum(max(0.0, -ms.eta.scalar_atom(k)) for k in ms.eta.atoms)
    for k in range(grid.ncells):
        neg += max(0.0, -ms.eta.density[k, 0]) * grid.widths[k]
    out.append(("eta_sign", neg, tol))
    slack = 0.0
    for k in range(grid.ncells):
        gl = problem.G_at(trajectory.x[k], trajectory.u_left[k])
        gr = problem.G_at(trajectory.x[k + 1], trajectory.u_right[k])
        slack += abs(ms.lam[k]) * 0.5 * (abs(gl) + abs(gr)) * grid.widths[k]
    out.append(("slackness", slack, tol))
    flags = reference_contact_flags(problem, trajectory, config.delta, config.eps)
    outside = sum(abs(ms.eta.scalar_atom(k)) for k in ms.eta.atoms if not flags[k])
    for k in range(grid.ncells):
        if ms.eta.density[k, 0] != 0.0 and not (flags[k] and flags[k + 1]):
            outside += abs(ms.eta.density[k, 0]) * grid.widths[k]
    out.append(("eta_outside_contact", outside, tol))
    return out


def _ref_jump_inclusion(ms, problem, trajectory, config):
    atoms, cells = _ref_support(ms)
    worst, outside = 0.0, 0.0
    elements = [(mass, ms.s_atoms.get(k), f"node {k}",
                 reference_node_generators(problem, trajectory, k, config.delta, config.eps))
                for k, mass in atoms]
    elements += [(mass, ms.s_cells.get(k), f"cell {k}",
                  reference_mid_generators(problem, trajectory, k, config.delta, config.eps))
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


def _ref_adjoint(ms, problem, trajectory, config):
    grid, p, n = ms.grid, ms.p, problem.n
    atoms, cells = _ref_support(ms)
    s_atom = {}
    for k, mass in atoms:
        gens = reference_node_generators(problem, trajectory, k, config.delta, config.eps)
        s_atom[k] = _ref_direction(ms.s_atoms.get(k), gens, n, f"node {k}") * mass
    s_density = np.zeros((grid.ncells, n))
    for k, _ in cells:
        gens = reference_mid_generators(problem, trajectory, k, config.delta, config.eps)
        shat = _ref_direction(ms.s_cells.get(k), gens, n, f"cell {k}")
        s_density[k] = shat * ms.eta.density[k, 0]
    zero = np.zeros(n)
    smass = s_atom.get(0, zero).copy()
    worst = float(np.max(np.abs(p.right_limit(0) - p.exterior_left + smass)))
    acc, scale = np.zeros(n), 1.0
    for k in range(grid.ncells):
        xl, ul = trajectory.x[k], trajectory.u_left[k]
        xr, ur = trajectory.x[k + 1], trajectory.u_right[k]
        a_left = p.left_limit(k) @ problem.fx_at(xl, ul) + ms.lam[k] * problem.Gx_at(xl, ul)
        a_right = p.left_limit(k + 1) @ problem.fx_at(xr, ur) + ms.lam[k] * problem.Gx_at(xr, ur)
        scale = max(scale, float(np.max(np.abs(a_left))), float(np.max(np.abs(a_right))))
        acc = acc + 0.5 * grid.widths[k] * (a_left + a_right)
        smass = smass + s_density[k] * grid.widths[k] + s_atom.get(k + 1, zero)
        row = p.right_limit(k + 1) - p.exterior_left + acc + smass
        worst = max(worst, float(np.max(np.abs(row))))
    tol = config.adjoint_tol
    if tol is None:
        tol = max(config.structural_tol, 10.0 * float(np.max(grid.widths)) * scale)
    return [("adjoint", worst, tol)]


def _ref_stationarity(ms, problem, trajectory, config):
    grid, p = trajectory.grid, ms.p
    worst, scale = 0.0, 1.0
    for k in range(grid.ncells):
        samples = (
            (trajectory.x[k], trajectory.u_left[k], p.right_limit(k)),
            (trajectory.x_mid(k), trajectory.u_mid(k),
             0.5 * (p.right_limit(k) + p.left_limit(k + 1))),
            (trajectory.x[k + 1], trajectory.u_right[k], p.left_limit(k + 1)),
        )
        for x, u, pk in samples:
            hu = pk @ problem.fu_at(x, u)
            gu = ms.lam[k] * problem.Gu_at(x, u)
            worst = max(worst, float(np.max(np.abs(hu + gu))))
            scale = max(scale, float(np.max(np.abs(hu))), float(np.max(np.abs(gu))))
    tol = config.stationarity_tol
    if tol is None:
        tol = max(config.structural_tol, 10.0 * float(np.max(grid.widths)) * scale)
    return [("stationarity", worst, tol)]


def _ref_transversality(ms, problem, trajectory, config):
    x0, x1 = trajectory.endpoints
    jx0, jx1 = problem.endpoint_gradients(x0, x1)
    left = float(np.linalg.norm(ms.p.exterior_left + ms.alpha0 * jx0))
    right = float(np.linalg.norm(ms.p.exterior_right - ms.alpha0 * jx1))
    return [("transversality", left + right, config.structural_tol)]


def reference_dynamics_defect(problem, trajectory) -> np.ndarray:
    grid = trajectory.grid
    out = np.empty((grid.ncells, problem.n))
    for k in range(grid.ncells):
        fa = problem.f_at(trajectory.x[k], trajectory.u_left[k])
        fb = problem.f_at(trajectory.x[k + 1], trajectory.u_right[k])
        out[k] = trajectory.x[k + 1] - trajectory.x[k] - 0.5 * grid.widths[k] * (fa + fb)
    return out


def reference_check(problem, trajectory, ms, config):
    """Entries (name, residual, tolerance) in the order of check_certificate;
    a sub-check that raises gives one (name, inf, 0.0) entry."""
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
            entries.append((name, max(0.0, config.positive_tol - nu), 0.0))
            continue
        try:
            entries.extend(check(ms, problem, trajectory, config))
        except LmpkitError:
            entries.append((name, float("inf"), 0.0))
    return entries
