from dataclasses import replace

import numpy as np
import pytest

from lmpkit import expr, geometry, lmp
from lmpkit.errors import InputError
from lmpkit.lmp import (
    CheckConfig,
    Directions,
    MultiplierSet,
    check_adjoint,
    check_certificate,
    check_jump_inclusion,
    check_nontriviality,
    check_signs_slackness,
    check_stationarity,
    check_transversality,
    merge_state_constraint,
)
from lmpkit.measures import BVFunction, SignedMeasure
from lmpkit.problem import ProblemDef, TimeGrid, Trajectory, builtin_example
from lmpkit.samples import Samples
from oracles import (
    DEFAULT,
    RELAXED,
    Record,
    at_point,
    cumulative,
    directions_of,
    entry,
    node_rows,
    random_certificate,
    random_problem,
    random_trajectory,
    records_of,
    reference_check,
    reference_contact_flags,
    reference_dynamics_defect,
    scaled,
)


def make_problem(f, G, J="x1_1", n=1, m=1, t0=0.0, t1=1.0):
    return ProblemDef.from_strings(n=n, m=m, t0=t0, t1=t1, f=f, G=G, J=J)


def make_flat(problem, ncells, x_value=0.0, u_value=0.0):
    grid = TimeGrid.uniform(problem.t0, problem.t1, ncells)
    return Trajectory(
        grid=grid,
        x=np.full((ncells + 1, problem.n), x_value),
        u_left=np.full((ncells, problem.m), u_value),
        u_right=np.full((ncells, problem.m), u_value),
    )


def make_multipliers(grid, alpha0=0.0, lam=None, eta=None, p=None, n=1, **s):
    N = grid.ncells
    return MultiplierSet(
        alpha0=alpha0,
        lam=np.zeros(N) if lam is None else np.asarray(lam, dtype=float),
        eta=eta if eta is not None else SignedMeasure(grid),
        p=p if p is not None else BVFunction(grid=grid, values=np.zeros((N + 1, n))),
        **s,
    )


class TestSignsSlackness:
    def test_atom_fixture_all_zero(self, ex1):
        problem, trajectory, ms = ex1
        entries = check_signs_slackness(Samples(problem, trajectory), ms)
        assert [e.name for e in entries] == [
            "alpha0_sign",
            "lambda_sign",
            "eta_sign",
            "slackness",
            "eta_outside_contact",
        ]
        assert all(e.residual == 0.0 for e in entries)

    def test_slackness_measures_product(self):
        problem = make_problem(["0"], "0*x1 - 0.3", t1=0.02)
        trajectory = make_flat(problem, 2)
        lam = np.array([1.0, 0.0])
        ms = make_multipliers(trajectory.grid, lam=lam)
        entries = {e.name: e for e in check_signs_slackness(Samples(problem, trajectory), ms)}
        assert entries["slackness"].residual == pytest.approx(0.003, abs=1e-15)

    def test_zero_multipliers_have_zero_residuals(self, ex1):
        problem, trajectory, _ = ex1
        ms = make_multipliers(trajectory.grid)
        entries = check_signs_slackness(Samples(problem, trajectory), ms)
        assert all(e.residual == 0.0 for e in entries)
        assert not check_nontriviality(ms).passed

    def test_negative_parts_reported(self, ex1):
        problem, trajectory, _ = ex1
        grid = trajectory.grid
        eta = SignedMeasure(grid, atoms=node_rows(grid, {3: -0.25}))
        ms = make_multipliers(grid, alpha0=-1.0, eta=eta)
        entries = {e.name: e for e in check_signs_slackness(Samples(problem, trajectory), ms)}
        assert entries["alpha0_sign"].residual == 1.0
        assert entries["eta_sign"].residual == 0.25


class TestNontriviality:
    def test_atom_fixture_value(self, ex1):
        _, _, ms = ex1
        entry = check_nontriviality(ms)
        assert entry.passed
        assert ms.nu() == pytest.approx(3.0, abs=1e-14)

    def test_zero_certificate_fails(self, ex1):
        _, trajectory, _ = ex1
        ms = make_multipliers(trajectory.grid)
        assert not check_nontriviality(ms).passed

    def test_arc_fixture_value(self, ex2):
        _, _, ms = ex2
        # hand oracle: 1 + (2 * m/2 arcs + 2b * 1/2 contact) + 2b * 1/2
        T, m = 1.0, 0.5
        b = T - m
        expected = 1.0 + (m + b) + b * 0.5 * 2.0
        assert ms.nu() == pytest.approx(expected, abs=1e-12)
        assert ms.nu() == pytest.approx(2.5, abs=1e-12)


class TestJumpInclusion:
    def test_atom_fixture(self, ex1):
        problem, trajectory, ms = ex1
        entries = check_jump_inclusion(Samples(problem, trajectory), ms)
        assert all(e.residual == 0.0 for e in entries)

    def test_arc_fixture(self, ex2):
        problem, trajectory, ms = ex2
        entries = check_jump_inclusion(Samples(problem, trajectory), ms)
        assert all(e.residual <= 1e-12 for e in entries)

    def test_wrong_direction_distance(self, ex2):
        problem, trajectory, ms = ex2
        wrong = Directions.vectors(ms.s_cells.index, np.zeros((ms.s_cells.index.size, 2)))
        bad = MultiplierSet(
            alpha0=ms.alpha0,
            lam=ms.lam,
            eta=ms.eta,
            s_cells=wrong,
            p=ms.p,
        )
        entries = {e.name: e for e in check_jump_inclusion(Samples(problem, trajectory), bad)}
        assert entries["jump_inclusion"].residual == pytest.approx(1.0, abs=1e-12)

    def test_cell_weights_off_the_simplex(self, ex2):
        problem, trajectory, ms = ex2
        weights = {k: Record(weights=[1.0]) for k in ms.s_cells.index.tolist()}
        weights[min(weights)] = Record(weights=[-0.25])
        bad = MultiplierSet(
            alpha0=ms.alpha0,
            lam=ms.lam,
            eta=ms.eta,
            s_cells=directions_of(weights),
            p=ms.p,
        )
        entries = {e.name: e for e in check_jump_inclusion(Samples(problem, trajectory), bad)}
        # the negative part 0.25 plus the gap 1.25 of the sum to 1
        assert entries["jump_inclusion"].residual == 1.5

    def test_missing_direction_is_error(self, ex1):
        problem, trajectory, ms = ex1
        stripped = MultiplierSet(alpha0=ms.alpha0, lam=ms.lam, eta=ms.eta, p=ms.p)
        with pytest.raises(InputError):
            check_jump_inclusion(Samples(problem, trajectory), stripped)


def off_the_constraint(trajectory):
    """The ex1 trajectory raised by one: G = -1 everywhere, so no point is a
    phase point and no support element has a jump direction."""
    return Trajectory(
        grid=trajectory.grid,
        x=trajectory.x + 1.0,
        u_left=trajectory.u_left,
        u_right=trajectory.u_right,
    )


@pytest.mark.parametrize("atoms, cell, records, message", [
    ({3: 0.5}, None, {}, "direction s is missing on the eta support at node 3"),
    (
        {},
        2,
        {"s_cells": directions_of({2: Record(weights=[1.0])})},
        "weights given at cell 2 but no jump directions are available there",
    ),
])
def test_elements_without_generators_split_the_errors(ex1, atoms, cell, records, message):
    # jump inclusion counts such an element as outside mass whatever its
    # record says, while the costate balance needs a direction on it
    problem, trajectory, _ = ex1
    raised = off_the_constraint(trajectory)
    grid = raised.grid
    density = np.zeros(grid.ncells)
    if cell is not None:
        density[cell] = 1.0
    eta = SignedMeasure(grid, atoms=node_rows(grid, atoms), density=density)
    ms = make_multipliers(grid, alpha0=1.0, eta=eta, **records)
    mass = ms.eta_mass()
    assert mass > 0.0
    samples = Samples(problem, raised)
    entries = {e.name: e for e in check_jump_inclusion(samples, ms)}
    assert entries["jump_inclusion"].residual == 0.0
    assert entries["jump_inclusion_outside"].residual == mass
    with pytest.raises(InputError, match=message):
        check_adjoint(samples, ms)
    report = check_certificate(samples, ms)
    errors = {e.name for e in report.entries if e.detail.startswith("error:")}
    assert errors == {"adjoint"}
    assert entry(report, "adjoint").detail == f"error: {message}"


@pytest.mark.parametrize("s_atoms, cell, message", [
    ({0: Record(vector=[-1.0, 0.0])}, None,
     "direction vector at node 0 has wrong dimension"),
    ({0: Record(weights=[0.5, 0.5])}, None,
     "2 weights for 1 generators at node 0"),
    ({}, 5, "direction s is missing on the eta support at cell 5"),
])
def test_records_that_do_not_fit_fail_both_checks(ex1, s_atoms, cell, message):
    problem, trajectory, ms = ex1
    density = np.zeros(trajectory.grid.ncells)
    if cell is not None:
        density[cell] = 1.0
    eta = SignedMeasure(trajectory.grid, atoms=node_rows(trajectory.grid, {0: 1.0}), density=density)
    s_atoms = directions_of({0: records_of(ms.s_atoms)[0], **s_atoms})
    bad = replace(ms, eta=eta, s_atoms=s_atoms, s_cells=Directions())
    samples = Samples(problem, trajectory)
    for check in (check_jump_inclusion, check_adjoint):
        with pytest.raises(InputError, match=f"^{message}$"):
            check(samples, bad)
    report = check_certificate(samples, bad)
    errors = {e.name for e in report.entries if e.detail.startswith("error:")}
    assert errors == {"jump_inclusion", "adjoint"}



@pytest.mark.parametrize("s_atoms, s_cells, message", [
    # atoms come before cells, cells in cell order
    ({}, {3: Record(vector=[1.0, 2.0])},
     "direction vector at cell 3 has wrong dimension"),
    ({0: Record(weights=[0.5, 0.5])},
     {3: Record(vector=[1.0, 2.0])},
     "2 weights for 1 generators at node 0"),
])
def test_the_first_failing_element_raises(ex1, s_atoms, s_cells, message):
    problem, trajectory, ms = ex1
    density = np.zeros(trajectory.grid.ncells)
    density[[3, 5]] = 1.0  # cell 5 has no record
    eta = SignedMeasure(trajectory.grid, atoms=node_rows(trajectory.grid, {0: 1.0}), density=density)
    s_atoms = directions_of({0: records_of(ms.s_atoms)[0], **s_atoms})
    bad = replace(ms, eta=eta, s_atoms=s_atoms, s_cells=directions_of(s_cells))
    for check in (check_jump_inclusion, check_adjoint):
        with pytest.raises(InputError, match=f"^{message}$"):
            check(Samples(problem, trajectory), bad)


def test_directions_hold_their_records_as_arrays():
    empty = Directions()
    assert empty.index.size == empty.weighted.size == empty.size.size == 0
    assert empty.values.shape == (0, 0)
    vectors = Directions.vectors([2, 7], [[-1.0, 0.5], [0.25, 0.75]])
    assert vectors.index.tolist() == [2, 7]
    assert vectors.weighted.tolist() == [False, False]
    assert vectors.size.tolist() == [2, 2]
    assert vectors.values.tolist() == [[-1.0, 0.5], [0.25, 0.75]]
    mixed = directions_of({7: Record(weights=[0.25, 0.75]), 2: Record(vector=[-1.0])})
    assert mixed.weighted.tolist() == [False, True] and mixed.size.tolist() == [1, 2]
    assert mixed.values.tolist() == [[-1.0, 0.0], [0.25, 0.75]]
    with pytest.raises(InputError, match="strictly increasing"):
        Directions.vectors([7, 2], [[1.0], [1.0]])
    with pytest.raises(InputError, match="must fit the value rows"):
        Directions(index=[2], weighted=[True], size=[3], values=[[1.0, 0.0]])


class TestAdjoint:
    def test_atom_fixture_exact(self, ex1):
        problem, trajectory, ms = ex1
        entry = check_adjoint(Samples(problem, trajectory), ms)
        assert entry.residual == 0.0

    def test_constant_costate_trivial(self):
        problem = make_problem(["0"], "-x1")
        trajectory = make_flat(problem, 8)
        p = BVFunction(grid=trajectory.grid, values=np.full((9, 1), 1.75))
        ms = make_multipliers(trajectory.grid, p=p)
        assert check_adjoint(Samples(problem, trajectory), ms).residual == 0.0

    def test_arc_fixture_within_quadrature_error(self, ex2, ex2_variant):
        for problem, trajectory, ms in (ex2, ex2_variant):
            entry = check_adjoint(Samples(problem, trajectory), ms)
            assert entry.residual <= 2e-3

    def test_telescoping_identity(self, ex2):
        problem, trajectory, ms = ex2
        samples = Samples(problem, trajectory)
        rows, _ = lmp._adjoint_profile(samples, ms)
        sdeta = lmp._direction_measure(samples, ms)
        total_measure = sdeta.mass()
        grid = trajectory.grid
        acc = np.zeros(problem.n)
        p = ms.p
        for k in range(grid.ncells):
            xl, ul = trajectory.x[k], trajectory.u_left[k]
            xr, ur = trajectory.x[k + 1], trajectory.u_right[k]
            a_left = (p.values[k] @ at_point(problem, problem.f_x, xl, ul)
                      + ms.lam[k] * at_point(problem, problem.G_x, xl, ul))
            a_right = (p.values[k + 1] @ at_point(problem, problem.f_x, xr, ur)
                       + ms.lam[k] * at_point(problem, problem.G_x, xr, ur))
            acc = acc + 0.5 * grid.widths[k] * (a_left + a_right)
        direct = p.exterior_right - p.exterior_left + acc + total_measure
        assert np.allclose(rows[-1], direct, atol=1e-12, rtol=0.0)

    def test_costate_jumps_cancel_atoms(self, ex1):
        _, trajectory, ms = ex1
        N = trajectory.grid.ncells
        for node in (0, N):
            jump = ms.p.atoms[node]
            mass = ms.eta.atoms[node, 0]
            shat = records_of(ms.s_atoms)[node].vector
            assert np.allclose(jump, -shat * mass, atol=1e-15)


class TestTransversality:
    def test_atom_fixture(self, ex1):
        problem, trajectory, ms = ex1
        assert check_transversality(Samples(problem, trajectory), ms).residual == 0.0

    def test_zero_cost_weight(self):
        problem = make_problem(["0"], "-x1")
        trajectory = make_flat(problem, 4)
        ms = make_multipliers(trajectory.grid)
        assert check_transversality(Samples(problem, trajectory), ms).residual == 0.0

    def test_arc_fixture(self, ex2):
        problem, trajectory, ms = ex2
        entry = check_transversality(Samples(problem, trajectory), ms)
        assert entry.residual <= 1e-12
        assert ms.p.exterior_left[1] == pytest.approx(0.25, abs=1e-15)
        assert ms.p.exterior_right[1] == pytest.approx(-0.25, abs=1e-15)

    def test_endpoint_gradient_error_is_the_bare_reason(self):
        # x == 1 on ex1, so both gradients of J divide by x0_1 - 1 = 0
        problem, trajectory, ms = builtin_example("ex1", ncells=20)
        problem = replace(problem, J=expr.parse("x1_1/(x0_1 - 1)"))
        report = check_certificate(Samples(problem, trajectory), ms)
        assert entry(report, "transversality").detail == "error: division by zero"


class TestStationarity:
    def test_atom_fixture(self, ex1):
        problem, trajectory, ms = ex1
        assert check_stationarity(Samples(problem, trajectory), ms).residual == 0.0

    def test_control_free_problem(self):
        problem = make_problem(["x1"], "-x1")
        trajectory = make_flat(problem, 4, x_value=1.0)
        rng = np.random.default_rng(2)
        p = BVFunction(grid=trajectory.grid, values=rng.normal(size=(5, 1)))
        ms = make_multipliers(
            trajectory.grid, alpha0=1.0, lam=rng.uniform(0, 1, 4), p=p
        )
        assert check_stationarity(Samples(problem, trajectory), ms).residual == 0.0

    def test_arc_fixture_cancels(self, ex2):
        problem, trajectory, ms = ex2
        assert check_stationarity(Samples(problem, trajectory), ms).residual <= 1e-15


class TestCheckCertificate:
    def test_atom_fixture_passes(self, ex1):
        problem, trajectory, ms = ex1
        report = check_certificate(Samples(problem, trajectory), ms)
        assert report.overall_pass
        assert report.diagnostics["dynamics_defect_max"] == 0.0

    def test_arc_fixture_both_splits_pass(self, ex2, ex2_variant):
        for problem, trajectory, ms in (ex2, ex2_variant):
            report = check_certificate(Samples(problem, trajectory), ms)
            assert report.overall_pass

    def test_flipped_direction_fails_inclusion_and_adjoint(self, ex1):
        problem, trajectory, ms = ex1
        N = trajectory.grid.ncells
        flipped = MultiplierSet(
            alpha0=ms.alpha0,
            lam=ms.lam,
            eta=ms.eta,
            s_atoms=Directions.vectors([0, N], [[1.0], [1.0]]),
            p=ms.p,
        )
        report = check_certificate(Samples(problem, trajectory), flipped)
        assert not report.overall_pass
        failing = {e.name for e in report.entries if not e.passed}
        assert failing == {"jump_inclusion", "adjoint"}
        # distance from +1 to {-1} is 2; the cumulative balance misses by
        # twice each atom's mass, accumulating to 4 by the far endpoint
        assert entry(report, "jump_inclusion").residual == pytest.approx(2.0)
        assert entry(report, "adjoint").residual == pytest.approx(4.0)

    def test_scaling_invariance(self, ex2):
        problem, trajectory, ms = ex2
        samples = Samples(problem, trajectory)
        report = check_certificate(samples, ms)
        larger = check_certificate(samples, scaled(ms, 2.7))
        for a, b in zip(report.entries, larger.entries):
            assert a.name == b.name
            assert a.passed == b.passed
        assert larger.diagnostics["nu"] == pytest.approx(2.7 * ms.nu(), rel=1e-12)
        assert scaled(ms, 1.0 / ms.nu()).nu() == pytest.approx(1.0, abs=1e-12)

    def test_a_costate_of_another_width_is_refused(self, ex1):
        problem, trajectory, ms = ex1
        p = BVFunction(ms.grid, np.tile(ms.p.values, 2), np.tile(ms.p.atoms, 2))
        with pytest.raises(InputError, match="^the costate p has width 2, but the problem has n = 1$"):
            check_certificate(Samples(problem, trajectory), replace(ms, p=p))

    def test_multipliers_on_another_grid_are_refused(self):
        """The ex2 certificate on a distorted grid of as many cells: its
        widths would weigh lambda and the densities otherwise than the
        trajectory's, and on equal nodes it is accepted."""
        problem, trajectory, ms = builtin_example("ex2", ncells=100)
        nodes = trajectory.grid.nodes.copy()
        nodes[1:-1] += 0.3 * np.diff(nodes)[1:] * np.sin(np.arange(1, 100))
        moved = replace(trajectory, grid=TimeGrid(nodes))
        with pytest.raises(InputError, match="^the multipliers live on another grid"):
            check_certificate(Samples(problem, moved), ms)
        same = replace(trajectory, grid=TimeGrid(trajectory.grid.nodes.copy()))
        assert check_certificate(Samples(problem, same), ms).overall_pass

    def test_grid_refinement_keeps_acceptance(self):
        for ncells in (100, 200, 400):
            problem, trajectory, ms = builtin_example("ex2", ncells=ncells)
            report = check_certificate(Samples(problem, trajectory), ms)
            assert report.overall_pass, ncells

    def test_errors_become_failing_entries(self, ex1):
        problem, trajectory, ms = ex1
        broken = MultiplierSet(alpha0=ms.alpha0, lam=ms.lam, eta=ms.eta, p=ms.p)
        report = check_certificate(Samples(problem, trajectory), broken)
        assert not report.overall_pass
        # the missing direction poisons inclusion and the adjoint, nothing else
        failing = {e.name for e in report.entries if not e.passed}
        assert failing == {"jump_inclusion", "adjoint"}


def state_constrained_toy(ncells=20):
    problem = make_problem(["u1"], "-x1", J="x1_1")
    grid = TimeGrid.uniform(0.0, 1.0, ncells)
    trajectory = Trajectory(
        grid=grid,
        x=np.zeros((ncells + 1, 1)),
        u_left=np.zeros((ncells, 1)),
        u_right=np.zeros((ncells, 1)),
    )
    return problem, trajectory


class TestMergedStateConstraint:
    def test_merged_measure_definition(self):
        problem, trajectory = state_constrained_toy(4)
        grid = trajectory.grid
        lam = np.array([1.0, 0.0, 0.0, 0.0])
        eta = SignedMeasure(grid, atoms=node_rows(grid, {2: 0.5}))
        ms = make_multipliers(
            grid,
            lam=lam,
            eta=eta,
            s_atoms=Directions.vectors([2], [[-1.0]]),
        )
        merged = merge_state_constraint(Samples(problem, trajectory), ms)
        assert merged.measure.density[0, 0] == 1.0
        assert merged.measure.atoms[2, 0] == 0.5

    def test_rejects_control_dependent_constraint(self, ex1):
        problem, trajectory, ms = ex1
        with pytest.raises(InputError):
            merge_state_constraint(Samples(problem, trajectory), ms)

    def test_merged_equals_raw_with_gradient_direction(self):
        problem, trajectory = state_constrained_toy(16)
        grid = trajectory.grid
        rng = np.random.default_rng(7)
        lam = rng.uniform(0.0, 1.0, grid.ncells)
        eta = SignedMeasure(
            grid,
            atoms=node_rows(grid, {0: 0.3, 7: 0.6, grid.ncells: 0.2}),
            density=rng.uniform(0.0, 1.0, grid.ncells),
        )
        # raw form: directions equal the state gradient of the constraint
        gprime = {
            k: at_point(problem, problem.G_x, trajectory.x[k],
                        trajectory.u_left[min(k, grid.ncells - 1)])
            for k in range(grid.ncells + 1)
        }
        nodes = np.flatnonzero(eta.atoms[:, 0])
        s_atoms = Directions.vectors(nodes, [gprime[k] for k in nodes])
        s_cells = Directions.vectors(
            np.arange(grid.ncells),
            [0.5 * (gprime[k] + gprime[k + 1]) for k in range(grid.ncells)],
        )
        sdeta = SignedMeasure(grid, atoms=-eta.atoms, density=-eta.density)
        p = cumulative(sdeta, base=np.array([0.4]))
        ms = make_multipliers(
            grid, alpha0=0.0, lam=lam, eta=eta, p=p,
            s_atoms=s_atoms, s_cells=s_cells,
        )
        samples = Samples(problem, trajectory)
        raw = check_adjoint(samples, ms)
        merged = merge_state_constraint(samples, ms)
        assert merged.adjoint_residual == pytest.approx(raw.residual, abs=1e-12)

    def test_slack_constraint_violation_positive(self):
        problem, trajectory = state_constrained_toy(4)
        # push the state strictly inside the constraint: g = -2 everywhere
        inside = Trajectory(
            grid=trajectory.grid,
            x=np.full((5, 1), 2.0),
            u_left=np.zeros((4, 1)),
            u_right=np.zeros((4, 1)),
        )
        eta = SignedMeasure(trajectory.grid, atoms=node_rows(trajectory.grid, {2: 1.0}))
        ms = make_multipliers(
            trajectory.grid,
            eta=eta,
            s_atoms=Directions.vectors([2], [[-1.0]]),
        )
        merged = merge_state_constraint(Samples(problem, inside), ms)
        assert merged.slackness_residual == pytest.approx(2.0, abs=1e-14)


# -- the array-based checker against the scalar reference ------------------------


def assert_matches_reference(problem, trajectory, ms, phase):
    samples = Samples(problem, trajectory, *phase)
    report = check_certificate(samples, ms)
    expected = reference_check(problem, trajectory, ms, CheckConfig(), phase)
    assert [e.name for e in report.entries] == [name for name, _, _ in expected]
    for entry, (name, residual, tol) in zip(report.entries, expected):
        assert entry.passed == (residual <= tol), name
        assert entry.tolerance == pytest.approx(tol, rel=1e-12, abs=0.0), name
        if np.isinf(residual):
            assert np.isinf(entry.residual), name
        else:
            assert abs(entry.residual - residual) <= 1e-12 * max(abs(residual), tol), name
    flags = reference_contact_flags(problem, trajectory, *phase)
    contact = geometry.contact_set(samples)
    assert np.array_equal(contact.flags, flags)
    defect = reference_dynamics_defect(problem, trajectory)
    assert report.diagnostics["dynamics_defect_max"] == pytest.approx(
        float(np.max(np.abs(defect))), rel=1e-12, abs=1e-300
    )


@pytest.mark.parametrize("seed", range(12))
def test_checker_matches_scalar_reference_on_random_trajectories(seed):
    rng = np.random.default_rng(500 + seed)
    trajectory = random_trajectory(rng)
    problem = random_problem(trajectory.n, trajectory.m)
    for phase in (RELAXED, DEFAULT):
        ms = random_certificate(rng, problem, trajectory, phase)
        assert_matches_reference(problem, trajectory, ms, phase)


@pytest.mark.parametrize("name, params", [
    ("ex1", {"ncells": 100}),
    ("ex2", {"ncells": 100}),
    ("ex2", {"ncells": 150, "contact_split": (0.0, 1.0)}),
])
def test_checker_matches_scalar_reference_on_fixtures(name, params):
    problem, trajectory, ms = builtin_example(name, **params)
    for certificate in (ms, replace(ms, alpha0=-ms.alpha0)):
        assert_matches_reference(problem, trajectory, certificate, DEFAULT)


def test_scalar_evaluations_do_not_grow_with_the_grid(monkeypatch):
    from lmpkit import expr

    counts = {}
    evaluate = expr.evaluate

    def counting(e, binding):
        counts[N] += 1
        return evaluate(e, binding)

    monkeypatch.setattr(expr, "evaluate", counting)
    for N in (100, 400):
        counts[N] = 0
        problem, trajectory, ms = builtin_example("ex2", ncells=N)
        assert check_certificate(Samples(problem, trajectory), ms).overall_pass
    assert counts[100] == counts[400]


def test_convention_sensitive_nodes_are_atoms_at_two_sided_jumps(ex1):
    problem, trajectory, ms = ex1
    assert check_certificate(Samples(problem, trajectory), ms).diagnostics[
        "convention_sensitive_nodes"
    ] == []
    grid = TimeGrid.uniform(0.0, 1.0, 6)
    jumpy = Trajectory(
        grid=grid,
        x=np.ones((7, 1)),
        u_left=np.array([[0.0], [0.0], [0.0], [0.5], [0.5], [0.5]]),
        u_right=np.array([[0.0], [0.0], [0.0], [0.5], [0.5], [0.5]]),
        jumps=(3,),
    )
    eta = SignedMeasure(grid, atoms=node_rows(grid, {1: 0.5, 3: 1.0}), nonnegative=True)
    certificate = make_multipliers(
        grid,
        alpha0=1.0,
        eta=eta,
        s_atoms=Directions.vectors([1, 3], [[-1.0], [-1.0]]),
    )
    report = check_certificate(Samples(problem, jumpy), certificate)
    assert report.diagnostics["convention_sensitive_nodes"] == [3]


def ex2_samples(**tolerances) -> Samples:
    problem, trajectory, _ = builtin_example("ex2", ncells=10)
    return Samples(problem, trajectory, **tolerances)


@pytest.mark.parametrize(
    "config, field",
    [(CheckConfig, name) for name in CheckConfig.__dataclass_fields__]
    + [pytest.param(ex2_samples, name, id=f"Samples-{name}") for name in ("delta", "eps")],
)
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), -1e-300])
def test_a_tolerance_that_is_not_finite_and_nonnegative_is_refused(config, field, value):
    with pytest.raises(InputError, match=f"^{field} must be finite and nonnegative"):
        config(**{field: value})
