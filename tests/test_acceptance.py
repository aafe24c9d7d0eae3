"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np
import pytest

from lmpkit import expr, geometry
from lmpkit.cones import approx_separate, intersection_nonempty, random_family
from lmpkit.lmp import (
    Directions,
    MultiplierSet,
    check_adjoint,
    check_certificate,
    merge_state_constraint,
)
from lmpkit.measures import SignedMeasure
from lmpkit.problem import ProblemDef, TimeGrid, Trajectory, builtin_example
from lmpkit.recovery import build_program, cross_validate, solve
from lmpkit.samples import Samples
from oracles import (
    at_point,
    central_difference,
    control_points,
    cumulative,
    entry,
    fd_comparable_sample,
    hull_distance_bruteforce,
    laid_out_controls,
    node_at,
    node_rows,
    random_trajectory,
)


def announce(number: int, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"[{verdict}] criterion {number}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_1_atom_fixture_reproduction():
    start = time.perf_counter()
    problem, trajectory, ms = builtin_example("ex1", t0=0.0, t1=1.0, ncells=100)
    report = check_certificate(Samples(problem, trajectory), ms)
    elapsed = time.perf_counter() - start
    worst = max(e.residual for e in report.entries)
    ok = report.overall_pass and worst <= 1e-9 and elapsed < 1.0
    announce(
        1,
        ok,
        f"endpoint-atom fixture: every residual <= 1e-9 "
        f"(worst {worst:.2e}), runtime {elapsed:.2f}s < 1s",
    )


def test_criterion_2_arc_fixture_both_splits():
    start = time.perf_counter()
    worsts = []
    for split in ((0.5, 0.5), (0.0, 1.0)):
        problem, trajectory, ms = builtin_example(
            "ex2", T=1.0, m=0.5, ncells=400, contact_split=split
        )
        report = check_certificate(Samples(problem, trajectory), ms)
        adjoint = entry(report, "adjoint").residual
        structural = max(
            e.residual for e in report.entries if e.name != "adjoint"
        )
        worsts.append((report.overall_pass, adjoint, structural))
    elapsed = time.perf_counter() - start
    ok = (
        all(w[0] for w in worsts)
        and all(w[1] <= 2e-3 for w in worsts)
        and all(w[2] <= 1e-9 for w in worsts)
        and elapsed < 5.0
    )
    announce(
        2,
        ok,
        "contact-arc fixture, both multiplier splits: adjoint <= 2e-3 "
        f"(worst {max(w[1] for w in worsts):.2e}), structural <= 1e-9 "
        f"(worst {max(w[2] for w in worsts):.2e}), runtime {elapsed:.2f}s < 5s",
    )


def test_criterion_3_recovery_atom_fixture():
    start = time.perf_counter()
    problem, trajectory, _ = builtin_example("ex1", t0=0.0, t1=1.0, ncells=100)
    samples = Samples(problem, trajectory)
    program = build_program(samples)
    result = solve(program)
    report = cross_validate(samples, result.multipliers)
    elapsed = time.perf_counter() - start
    r = result.multipliers
    N = trajectory.grid.ncells
    lam_max = float(np.max(np.abs(r.lam)))
    atoms = r.eta.atoms[:, 0]
    interior_mass = float(np.sum(np.abs(atoms[1:N]))) + float(np.sum(np.abs(r.eta.density)))
    end_gap = max(abs(atoms[0] - r.alpha0), abs(atoms[N] - r.alpha0))
    ok = (
        lam_max <= 1e-8
        and end_gap <= 1e-6
        and interior_mass <= 1e-6
        and report.overall_pass
        and elapsed < 10.0
    )
    announce(
        3,
        ok,
        f"recovery on the endpoint-atom fixture: lambda sup {lam_max:.1e} <= 1e-8, "
        f"endpoint masses match the cost weight within {end_gap:.1e} (1:1:1), "
        f"checker passes, runtime {elapsed:.1f}s < 10s",
    )


def test_criterion_4_recovery_arc_fixture():
    start = time.perf_counter()
    problem, trajectory, _ = builtin_example("ex2", T=1.0, m=0.5, ncells=400)
    samples = Samples(problem, trajectory)
    program = build_program(samples)
    result = solve(program)
    report = cross_validate(samples, result.multipliers)
    elapsed = time.perf_counter() - start
    r = result.multipliers
    a0 = r.alpha0
    b = 0.5
    mids = trajectory.grid.midpoints
    h = float(np.max(trajectory.grid.widths))
    arcs = np.abs(mids) > b + 2 * h
    interior = np.abs(mids) < b - 2 * h
    lam_scaled = r.lam / a0
    total_scaled = lam_scaled + r.eta.density[:, 0] / a0
    arc_ok = np.all(np.abs(lam_scaled[arcs] - 0.5) <= 1e-2)
    contact_ok = np.all(np.abs(total_scaled[interior] - 1.0) <= 1e-2)
    ok = bool(arc_ok and contact_ok and report.overall_pass and elapsed < 60.0)
    announce(
        4,
        ok,
        "recovery on the contact-arc fixture: lambda/alpha0 = 0.5 +- 1e-2 on arcs, "
        "(lambda + eta-density)/alpha0 = 1 +- 1e-2 on the contact interior, "
        f"checker passes, runtime {elapsed:.1f}s < 60s",
    )


def test_criterion_5_separation_iff():
    start = time.perf_counter()
    degenerate = 0
    checked = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        family = random_family(rng)
        inter = intersection_nonempty(family)
        if 0.0 < abs(inter.margin) <= 1e-9:
            degenerate += 1
            continue
        sep = approx_separate(family, eps=1e-6)
        assert sep.separated == (not inter.nonempty), f"instance {seed}"
        checked += 1
    elapsed = time.perf_counter() - start
    ok = degenerate < 5 and checked == 100 - degenerate and elapsed < 5.0
    announce(
        5,
        ok,
        f"separation iff empty intersection on {checked} instances "
        f"({degenerate} degenerate, expected < 5), runtime {elapsed:.2f}s < 5s",
    )


def test_criterion_6_closure_in_measure_cardinality():
    rng = np.random.default_rng(2024)
    trajectories = 0
    while trajectories < 50:
        trajectory = random_trajectory(rng)
        if not trajectory.jumps:
            continue
        trajectories += 1
        laid_out = laid_out_controls(trajectory)
        for k in range(trajectory.grid.ncells + 1):
            expected = control_points(trajectory, k)
            assert len(expected) == (2 if k in trajectory.jumps else 1), (trajectories, k)
            assert len(laid_out[k]) == len(expected), (trajectories, k)
            for got, want in zip(laid_out[k], expected):
                assert np.array_equal(got, want), (trajectories, k)
    announce(
        6,
        True,
        "closure-in-measure values on 50 random piecewise-smooth controls: "
        "nonempty everywhere, two points exactly at declared jumps",
    )


def test_criterion_7_hull_distance_against_bruteforce():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 6))
        r = int(rng.integers(1, 5))
        gens = rng.uniform(-1.5, 1.5, size=(r, d))
        s = rng.uniform(-1.5, 1.5, size=d)
        dist, _ = geometry.dist_to_convex_hull(s, gens)
        brute = hull_distance_bruteforce(s, gens, step=1e-3)
        worst = max(worst, abs(dist - brute))
        assert abs(dist - brute) <= 2e-3
    announce(
        7,
        True,
        f"hull distance vs simplex-grid enumeration on 100 instances, "
        f"worst gap {worst:.2e} <= 2e-3",
    )


def test_criterion_8_derivatives_against_finite_differences():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        e, var, binding = fd_comparable_sample(rng, ["x1", "x2", "u1", "u2"])
        sym = expr.evaluate(expr.differentiate(e, var), binding)
        fd = central_difference(e, var, binding)
        rel = abs(sym - fd) / (1.0 + abs(expr.evaluate(e, binding)))
        worst = max(worst, rel)
        assert rel <= 1e-5
    announce(
        8,
        True,
        f"symbolic derivatives vs central differences on 100 samples, "
        f"worst relative gap {worst:.2e} <= 1e-5",
    )


def test_criterion_9_state_constraint_reduction():
    problem = ProblemDef.from_strings(
        n=1, m=1, t0=0.0, t1=1.0, f=["u1"], G="-x1", J="x1_1"
    )
    grid = TimeGrid.uniform(0.0, 1.0, 25)
    trajectory = Trajectory(
        grid=grid,
        x=np.zeros((26, 1)),
        u_left=np.zeros((25, 1)),
        u_right=np.zeros((25, 1)),
    )
    rng = np.random.default_rng(11)
    lam = rng.uniform(0.0, 1.0, 25)
    eta = SignedMeasure(
        grid,
        atoms=node_rows(grid, {0: 0.4, 12: 0.7, 25: 0.1}),
        density=rng.uniform(0.0, 0.5, 25),
    )
    gstate = [at_point(problem, problem.G_x, trajectory.x[k], np.zeros(1)) for k in range(26)]
    s_atoms = Directions.vectors([0, 12, 25], [gstate[k] for k in (0, 12, 25)])
    s_cells = Directions.vectors(
        np.arange(25), [0.5 * (gstate[k] + gstate[k + 1]) for k in range(25)]
    )
    sdeta = SignedMeasure(grid, atoms=-eta.atoms, density=-eta.density)
    p = cumulative(sdeta, base=np.array([0.25]))
    ms = MultiplierSet(
        alpha0=0.0, lam=lam, eta=eta, s_atoms=s_atoms, s_cells=s_cells, p=p
    )
    samples = Samples(problem, trajectory)
    raw = check_adjoint(samples, ms)
    merged = merge_state_constraint(samples, ms)
    gap = abs(merged.adjoint_residual - raw.residual)
    slack_ok = merged.slackness_residual <= 1e-14  # g == 0 on the whole path
    ok = gap <= 1e-12 and slack_ok
    announce(
        9,
        ok,
        f"pure-state-constraint reduction: merged vs raw adjoint residuals agree "
        f"within {gap:.1e} <= 1e-12 and slackness transfers to the merged measure",
    )


def test_criterion_10_negative_controls_fail_only_their_lines():
    problem, trajectory, ms = builtin_example("ex1", ncells=100)
    N = trajectory.grid.ncells
    flipped = MultiplierSet(
        alpha0=ms.alpha0,
        lam=ms.lam,
        eta=ms.eta,
        s_atoms=Directions.vectors([0, N], [[1.0], [1.0]]),
        p=ms.p,
    )
    report_a = check_certificate(Samples(problem, trajectory), flipped)
    failing_a = {e.name for e in report_a.entries if not e.passed}
    # flipping s must trip the inclusion line; the costate balance couples to
    # s through the measure term, so it trips alongside, and nothing else does
    ok_a = failing_a == {"jump_inclusion", "adjoint"}

    problem2, trajectory2, ms2 = builtin_example("ex2", ncells=400)
    arc_node = node_at(trajectory2.grid, 0.75)
    eta = SignedMeasure(
        trajectory2.grid,
        atoms=node_rows(trajectory2.grid, {arc_node: 0.2}),
        density=ms2.eta.density[:, 0],
        nonnegative=True,
    )
    moved = MultiplierSet(
        alpha0=ms2.alpha0,
        lam=ms2.lam,
        eta=eta,
        s_atoms=Directions.vectors([arc_node], [[0.0, 0.0]]),
        s_cells=ms2.s_cells,
        p=ms2.p,
    )
    report_b = check_certificate(Samples(problem2, trajectory2), moved)
    failing_b = {e.name for e in report_b.entries if not e.passed}
    ok_b = failing_b == {"eta_outside_contact", "jump_inclusion_outside"}
    announce(
        10,
        ok_a and ok_b,
        f"negative controls are isolated: flipped direction fails {sorted(failing_a)}; "
        f"measure mass outside the contact set fails {sorted(failing_b)}; "
        "all other lines stay green",
    )
