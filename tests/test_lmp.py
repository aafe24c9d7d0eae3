from dataclasses import replace

import numpy as np
import pytest

from lmpkit import geometry, lmp
from lmpkit.errors import InputError
from lmpkit.lmp import (
    CheckConfig,
    MultiplierSet,
    SupportDirection,
    check_adjoint,
    check_certificate,
    check_jump_inclusion,
    check_nontriviality,
    check_signs_slackness,
    check_stationarity,
    check_transversality,
    merge_state_constraint,
    pontryagin,
)
from lmpkit.measures import BVFunction, SignedMeasure
from lmpkit.problem import ProblemDef, TimeGrid, Trajectory, builtin_example
from oracles import (
    RELAXED,
    random_certificate,
    random_problem,
    random_trajectory,
    reference_check,
    reference_contact_flags,
    reference_dynamics_defect,
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
        eta=eta if eta is not None else SignedMeasure.scalar(grid),
        p=p if p is not None else BVFunction(grid=grid, values=np.zeros((N + 1, n))),
        **s,
    )


class TestPontryagin:
    def test_atom_fixture_hamiltonian(self, ex1):
        problem, _, _ = ex1
        H = pontryagin(problem)
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = rng.normal(size=1)
            u = np.array([rng.normal()])
            x = np.array([rng.normal()])
            lamval = float(rng.uniform(0, 2))
            assert H.H(x, u, p) == pytest.approx(float(p[0] * u[0]), abs=1e-14)
            assert H.Hbar_u(x, u, p, lamval)[0] == pytest.approx(
                float(p[0] + lamval * u[0]), abs=1e-14
            )

    def test_zero_dynamics(self):
        problem = make_problem(["0"], "-x1")
        H = pontryagin(problem)
        x, u, p = np.array([2.0]), np.array([3.0]), np.array([5.0])
        assert H.H(x, u, p) == 0.0
        assert np.all(H.H_x(x, u, p) == 0.0)

    def test_arc_fixture_augmented(self, ex2):
        problem, _, _ = ex2
        H = pontryagin(problem)
        rng = np.random.default_rng(1)
        for _ in range(10):
            p = rng.normal(size=2)
            x = rng.normal(size=2)
            u = np.array([rng.normal()])
            lamval = float(rng.uniform(0, 2))
            expected = p[0] * x[1] + p[1] * u[0] + lamval * (0.5 * u[0] ** 2 - x[1])
            assert H.Hbar(x, u, p, lamval) == pytest.approx(expected, abs=1e-13)


class TestSignsSlackness:
    def test_atom_fixture_all_zero(self, ex1):
        problem, trajectory, ms = ex1
        entries = check_signs_slackness(ms, problem, trajectory)
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
        entries = {e.name: e for e in check_signs_slackness(ms, problem, trajectory)}
        assert entries["slackness"].residual == pytest.approx(0.003, abs=1e-15)

    def test_zero_multipliers_have_zero_residuals(self, ex1):
        problem, trajectory, _ = ex1
        ms = make_multipliers(trajectory.grid)
        entries = check_signs_slackness(ms, problem, trajectory)
        assert all(e.residual == 0.0 for e in entries)
        assert not check_nontriviality(ms).passed

    def test_negative_parts_reported(self, ex1):
        problem, trajectory, _ = ex1
        grid = trajectory.grid
        eta = SignedMeasure.scalar(grid, atoms={3: -0.25})
        ms = make_multipliers(grid, alpha0=-1.0, eta=eta)
        entries = {e.name: e for e in check_signs_slackness(ms, problem, trajectory)}
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
        entries = check_jump_inclusion(ms, problem, trajectory)
        assert all(e.residual == 0.0 for e in entries)

    def test_arc_fixture(self, ex2):
        problem, trajectory, ms = ex2
        entries = check_jump_inclusion(ms, problem, trajectory)
        assert all(e.residual <= 1e-12 for e in entries)

    def test_wrong_direction_distance(self, ex2):
        problem, trajectory, ms = ex2
        wrong = {
            k: SupportDirection(vector=np.zeros(2)) for k in ms.s_cells
        }
        bad = MultiplierSet(
            alpha0=ms.alpha0,
            lam=ms.lam,
            eta=ms.eta,
            s_atoms={},
            s_cells=wrong,
            p=ms.p,
        )
        entries = {e.name: e for e in check_jump_inclusion(bad, problem, trajectory)}
        assert entries["jump_inclusion"].residual == pytest.approx(1.0, abs=1e-12)

    def test_cell_weights_off_the_simplex(self, ex2):
        problem, trajectory, ms = ex2
        weights = {k: SupportDirection(weights=np.array([1.0])) for k in ms.s_cells}
        weights[min(weights)] = SupportDirection(weights=np.array([-0.25]))
        bad = MultiplierSet(
            alpha0=ms.alpha0,
            lam=ms.lam,
            eta=ms.eta,
            s_atoms={},
            s_cells=weights,
            p=ms.p,
        )
        entries = {e.name: e for e in check_jump_inclusion(bad, problem, trajectory)}
        # the negative part 0.25 plus the gap 1.25 of the sum to 1
        assert entries["jump_inclusion"].residual == 1.5

    def test_missing_direction_is_error(self, ex1):
        problem, trajectory, ms = ex1
        stripped = MultiplierSet(
            alpha0=ms.alpha0,
            lam=ms.lam,
            eta=ms.eta,
            s_atoms={},
            s_cells={},
            p=ms.p,
        )
        with pytest.raises(InputError):
            check_jump_inclusion(stripped, problem, trajectory)


class TestAdjoint:
    def test_atom_fixture_exact(self, ex1):
        problem, trajectory, ms = ex1
        entry = check_adjoint(ms, problem, trajectory)
        assert entry.residual == 0.0

    def test_constant_costate_trivial(self):
        problem = make_problem(["0"], "-x1")
        trajectory = make_flat(problem, 8)
        p = BVFunction(
            grid=trajectory.grid, values=np.full((9, 1), 1.75), atoms={}
        )
        ms = make_multipliers(trajectory.grid, p=p)
        assert check_adjoint(ms, problem, trajectory).residual == 0.0

    def test_arc_fixture_within_quadrature_error(self, ex2, ex2_variant):
        for problem, trajectory, ms in (ex2, ex2_variant):
            entry = check_adjoint(ms, problem, trajectory)
            assert entry.residual <= 2e-3

    def test_telescoping_identity(self, ex2):
        problem, trajectory, ms = ex2
        rows, _ = lmp._adjoint_profile(ms, problem, trajectory, CheckConfig())
        sdeta = lmp._direction_measure(ms, problem, trajectory, CheckConfig())
        total_measure = sdeta.mass()
        grid = trajectory.grid
        acc = np.zeros(problem.n)
        p = ms.p
        for k in range(grid.ncells):
            a_left = p.left_limit(k) @ problem.fx_at(
                trajectory.x[k], trajectory.u_left[k]
            ) + ms.lam[k] * problem.Gx_at(trajectory.x[k], trajectory.u_left[k])
            a_right = p.left_limit(k + 1) @ problem.fx_at(
                trajectory.x[k + 1], trajectory.u_right[k]
            ) + ms.lam[k] * problem.Gx_at(
                trajectory.x[k + 1], trajectory.u_right[k]
            )
            acc = acc + 0.5 * grid.widths[k] * (a_left + a_right)
        direct = p.exterior_right - p.exterior_left + acc + total_measure
        assert np.allclose(rows[-1], direct, atol=1e-12, rtol=0.0)

    def test_costate_jumps_cancel_atoms(self, ex1):
        _, trajectory, ms = ex1
        N = trajectory.grid.ncells
        for node in (0, N):
            jump = ms.p.jump(node)
            mass = ms.eta.scalar_atom(node)
            shat = ms.s_atoms[node].vector
            assert np.allclose(jump, -shat * mass, atol=1e-15)


class TestTransversality:
    def test_atom_fixture(self, ex1):
        problem, trajectory, ms = ex1
        assert check_transversality(ms, problem, trajectory).residual == 0.0

    def test_zero_cost_weight(self):
        problem = make_problem(["0"], "-x1")
        trajectory = make_flat(problem, 4)
        ms = make_multipliers(trajectory.grid)
        assert check_transversality(ms, problem, trajectory).residual == 0.0

    def test_arc_fixture(self, ex2):
        problem, trajectory, ms = ex2
        entry = check_transversality(ms, problem, trajectory)
        assert entry.residual <= 1e-12
        assert ms.p.exterior_left[1] == pytest.approx(0.25, abs=1e-15)
        assert ms.p.exterior_right[1] == pytest.approx(-0.25, abs=1e-15)


class TestStationarity:
    def test_atom_fixture(self, ex1):
        problem, trajectory, ms = ex1
        assert check_stationarity(ms, problem, trajectory).residual == 0.0

    def test_control_free_problem(self):
        problem = make_problem(["x1"], "-x1")
        trajectory = make_flat(problem, 4, x_value=1.0)
        rng = np.random.default_rng(2)
        p = BVFunction(
            grid=trajectory.grid, values=rng.normal(size=(5, 1)), atoms={}
        )
        ms = make_multipliers(
            trajectory.grid, alpha0=1.0, lam=rng.uniform(0, 1, 4), p=p
        )
        assert check_stationarity(ms, problem, trajectory).residual == 0.0

    def test_arc_fixture_cancels(self, ex2):
        problem, trajectory, ms = ex2
        assert check_stationarity(ms, problem, trajectory).residual <= 1e-15


class TestCheckCertificate:
    def test_atom_fixture_passes(self, ex1):
        problem, trajectory, ms = ex1
        report = check_certificate(problem, trajectory, ms)
        assert report.overall_pass
        assert report.diagnostics["dynamics_defect_max"] == 0.0

    def test_arc_fixture_both_splits_pass(self, ex2, ex2_variant):
        for problem, trajectory, ms in (ex2, ex2_variant):
            report = check_certificate(problem, trajectory, ms)
            assert report.overall_pass

    def test_flipped_direction_fails_inclusion_and_adjoint(self, ex1):
        problem, trajectory, ms = ex1
        N = trajectory.grid.ncells
        flipped = MultiplierSet(
            alpha0=ms.alpha0,
            lam=ms.lam,
            eta=ms.eta,
            s_atoms={
                0: SupportDirection(vector=np.array([1.0])),
                N: SupportDirection(vector=np.array([1.0])),
            },
            s_cells={},
            p=ms.p,
        )
        report = check_certificate(problem, trajectory, flipped)
        assert not report.overall_pass
        failing = {e.name for e in report.entries if not e.passed}
        assert failing == {"jump_inclusion", "adjoint"}
        # distance from +1 to {-1} is 2; the cumulative balance misses by
        # twice each atom's mass, accumulating to 4 by the far endpoint
        assert report.entry("jump_inclusion").residual == pytest.approx(2.0)
        assert report.entry("adjoint").residual == pytest.approx(4.0)

    def test_scaling_invariance(self, ex2):
        problem, trajectory, ms = ex2
        report = check_certificate(problem, trajectory, ms)
        scaled = check_certificate(problem, trajectory, ms.scaled(2.7))
        for a, b in zip(report.entries, scaled.entries):
            assert a.name == b.name
            assert a.passed == b.passed
        assert scaled.diagnostics["nu"] == pytest.approx(2.7 * ms.nu(), rel=1e-12)
        normalized = ms.normalized()
        assert normalized.nu() == pytest.approx(1.0, abs=1e-12)

    def test_grid_refinement_keeps_acceptance(self):
        for ncells in (100, 200, 400):
            problem, trajectory, ms = builtin_example("ex2", ncells=ncells)
            report = check_certificate(problem, trajectory, ms)
            assert report.overall_pass, ncells

    def test_errors_become_failing_entries(self, ex1):
        problem, trajectory, ms = ex1
        broken = MultiplierSet(
            alpha0=ms.alpha0, lam=ms.lam, eta=ms.eta, s_atoms={}, s_cells={}, p=ms.p
        )
        report = check_certificate(problem, trajectory, broken)
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
        eta = SignedMeasure.scalar(grid, atoms={2: 0.5})
        ms = make_multipliers(
            grid,
            lam=lam,
            eta=eta,
            s_atoms={2: SupportDirection(vector=np.array([-1.0]))},
        )
        merged = merge_state_constraint(problem, trajectory, ms)
        assert merged.measure.density[0, 0] == 1.0
        assert merged.measure.scalar_atom(2) == 0.5

    def test_rejects_control_dependent_constraint(self, ex1):
        problem, trajectory, ms = ex1
        with pytest.raises(InputError):
            merge_state_constraint(problem, trajectory, ms)

    def test_merged_equals_raw_with_gradient_direction(self):
        problem, trajectory = state_constrained_toy(16)
        grid = trajectory.grid
        rng = np.random.default_rng(7)
        lam = rng.uniform(0.0, 1.0, grid.ncells)
        eta = SignedMeasure.scalar(
            grid,
            atoms={0: 0.3, 7: 0.6, grid.ncells: 0.2},
            density=rng.uniform(0.0, 1.0, grid.ncells),
        )
        # raw form: directions equal the state gradient of the constraint
        gprime = {
            k: problem.Gx_at(trajectory.x[k], trajectory.u_left[min(k, grid.ncells - 1)])
            for k in range(grid.ncells + 1)
        }
        s_atoms = {k: SupportDirection(vector=gprime[k]) for k in eta.atoms}
        s_cells = {
            k: SupportDirection(vector=0.5 * (gprime[k] + gprime[k + 1]))
            for k in range(grid.ncells)
        }
        from lmpkit.measures import cumulative

        sdeta = SignedMeasure(
            grid=grid,
            dim=1,
            atoms={k: -eta.atom(k) for k in eta.atoms},
            density=-eta.density,
        )
        p = cumulative(sdeta, base=np.array([0.4]))
        ms = make_multipliers(
            grid, alpha0=0.0, lam=lam, eta=eta, p=p,
            s_atoms=s_atoms, s_cells=s_cells,
        )
        raw = check_adjoint(ms, problem, trajectory)
        merged = merge_state_constraint(problem, trajectory, ms)
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
        eta = SignedMeasure.scalar(trajectory.grid, atoms={2: 1.0})
        ms = make_multipliers(
            trajectory.grid,
            eta=eta,
            s_atoms={2: SupportDirection(vector=np.array([-1.0]))},
        )
        merged = merge_state_constraint(problem, inside, ms)
        assert merged.slackness_residual == pytest.approx(2.0, abs=1e-14)


# -- the array-based checker against the scalar reference ------------------------


def assert_matches_reference(problem, trajectory, ms, config):
    report = check_certificate(problem, trajectory, ms, config)
    expected = reference_check(problem, trajectory, ms, config)
    assert [e.name for e in report.entries] == [name for name, _, _ in expected]
    for entry, (name, residual, tol) in zip(report.entries, expected):
        assert entry.passed == (residual <= tol), name
        assert entry.tolerance == pytest.approx(tol, rel=1e-12, abs=0.0), name
        if np.isinf(residual):
            assert np.isinf(entry.residual), name
        else:
            assert abs(entry.residual - residual) <= 1e-12 * max(abs(residual), tol), name
    flags = reference_contact_flags(problem, trajectory, config.delta, config.eps)
    contact = geometry.contact_set(problem, trajectory, config.delta, config.eps)
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
    for config in (RELAXED, CheckConfig()):
        ms = random_certificate(rng, problem, trajectory, config)
        assert_matches_reference(problem, trajectory, ms, config)


@pytest.mark.parametrize("name, params", [
    ("ex1", {"ncells": 100}),
    ("ex2", {"ncells": 100}),
    ("ex2", {"ncells": 150, "contact_split": (0.0, 1.0)}),
])
def test_checker_matches_scalar_reference_on_fixtures(name, params):
    problem, trajectory, ms = builtin_example(name, **params)
    for certificate in (ms, replace(ms, alpha0=-ms.alpha0)):
        assert_matches_reference(problem, trajectory, certificate, CheckConfig())


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
        assert check_certificate(problem, trajectory, ms).overall_pass
    assert counts[100] == counts[400]


def test_convention_sensitive_nodes_are_atoms_at_two_sided_jumps(ex1):
    problem, trajectory, ms = ex1
    assert check_certificate(problem, trajectory, ms).diagnostics[
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
    eta = SignedMeasure.scalar(grid, atoms={1: 0.5, 3: 1.0}, nonnegative=True)
    certificate = make_multipliers(
        grid,
        alpha0=1.0,
        eta=eta,
        s_atoms={k: SupportDirection(vector=np.array([-1.0])) for k in (1, 3)},
    )
    report = check_certificate(problem, jumpy, certificate)
    assert report.diagnostics["convention_sensitive_nodes"] == [3]
