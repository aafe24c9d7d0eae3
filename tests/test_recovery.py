import numpy as np
import pytest

from lmpkit.cli import main
from lmpkit.problem import ProblemDef, TimeGrid, Trajectory, builtin_example
from lmpkit.recovery import (
    build_program,
    cross_validate,
    encode_certificate,
    recover,
    solve,
)


@pytest.fixture(scope="module")
def ex1_small():
    return builtin_example("ex1", t0=0.0, t1=1.0, ncells=40)


class TestBuildProgram:
    def test_atom_fixture_dimensions(self, ex1):
        problem, trajectory, _ = ex1
        program = build_program(problem, trajectory)
        assert program.dims["eta_atoms"] == 101  # every node is in contact
        assert program.dims["lambda_cells"] == 100  # G == 0 on every cell
        assert program.dims["eta_cells"] == 100

    def test_inactive_constraint_strips_unknowns(self):
        problem = ProblemDef.from_strings(
            n=1, m=1, t0=0.0, t1=1.0, f=["u1"], G="0*x1 + 0*u1 - 1", J="x1_1"
        )
        grid = TimeGrid.uniform(0.0, 1.0, 10)
        trajectory = Trajectory(
            grid=grid,
            x=np.zeros((11, 1)),
            u_left=np.zeros((10, 1)),
            u_right=np.zeros((10, 1)),
        )
        program = build_program(problem, trajectory)
        assert program.dims["eta_atoms"] == 0
        assert program.dims["eta_cells"] == 0
        assert program.dims["lambda_cells"] == 0
        assert program.dims["unknowns"] == 1  # only the cost weight survives
        result = solve(program)
        # normalisation forces alpha0 = 1, and nothing can cancel the
        # stationarity defect: recovery reports failure through the checker
        assert result.objective > 1e-3
        report = cross_validate(problem, trajectory, result.multipliers)
        assert not report.overall_pass

    def test_arc_fixture_active_everywhere(self, ex2):
        problem, trajectory, _ = ex2
        program = build_program(problem, trajectory)
        assert program.dims["lambda_cells"] == 400


class TestSolve:
    def test_atom_fixture_proportions(self, ex1_small):
        problem, trajectory, _ = ex1_small
        program = build_program(problem, trajectory)
        result = solve(program)
        assert result.objective <= 1e-12
        assert result.kkt_residual <= 1e-9
        r = result.multipliers
        N = trajectory.grid.ncells
        assert r.alpha0 == pytest.approx(1.0 / 3.0, abs=1e-6)
        assert r.eta.scalar_atom(0) == pytest.approx(r.alpha0, abs=1e-6)
        assert r.eta.scalar_atom(N) == pytest.approx(r.alpha0, abs=1e-6)
        assert float(np.max(np.abs(r.lam))) <= 1e-8
        assert r.nu() == pytest.approx(1.0, abs=1e-9)

    def test_warm_start_is_a_fixed_point(self, ex1_small):
        problem, trajectory, ms = ex1_small
        program = build_program(problem, trajectory)
        theta = encode_certificate(program, ms.normalized())
        assert program.objective(theta) <= 1e-20
        result = solve(program)
        assert result.objective <= 1e-20
        assert result.status == "optimal"

    def test_perturbed_trajectory_not_certified(self, ex1_small):
        problem, trajectory, _ = ex1_small
        shifted = Trajectory(
            grid=trajectory.grid,
            x=trajectory.x + 0.1,
            u_left=trajectory.u_left,
            u_right=trajectory.u_right,
        )
        program = build_program(problem, shifted)
        result = solve(program)
        assert result.objective > 1e-3
        report = cross_validate(problem, shifted, result.multipliers)
        assert not report.overall_pass

    def test_recover_writes_identical_certificates(self, tmp_path):
        d = tmp_path / "ex2"
        assert main(["example", "ex2", "--N", "100", "--out-dir", str(d)]) == 0
        written = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main([
                "recover", str(d / "problem.json"), str(d / "trajectory.json"),
                "--out-certificate", str(out),
            ])
            assert code == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]

    def test_objective_does_not_grow_under_refinement(self):
        values = {}
        for ncells in (10, 20):
            problem, trajectory, _ = builtin_example("ex1", ncells=ncells)
            program = build_program(problem, trajectory)
            values[ncells] = solve(program).objective
        h = 1.0 / 10
        assert values[20] <= values[10] + 10.0 * h * h


class TestCrossValidate:
    def test_atom_fixture_end_to_end(self, ex1_small):
        problem, trajectory, _ = ex1_small
        outcome = recover(problem, trajectory)
        assert outcome.certified
        assert outcome.report.overall_pass

    def test_recovered_costate_matches_closed_form(self, ex1_small):
        problem, trajectory, _ = ex1_small
        outcome = recover(problem, trajectory)
        r = outcome.result.multipliers
        scale = 1.0 / r.alpha0
        assert scale * r.p.exterior_left[0] == pytest.approx(-1.0, abs=1e-6)
        assert scale * r.p.exterior_right[0] == pytest.approx(1.0, abs=1e-6)
        interior = r.p.values[1:-1, 0]
        assert float(np.max(np.abs(interior))) <= 1e-8


class TestArcFixtureRecovery:
    @pytest.mark.parametrize("ncells", [400, 800])
    def test_certifies_on_grids_that_fit_the_arc(self, ncells):
        problem, trajectory, _ = builtin_example("ex2", ncells=ncells)
        outcome = recover(problem, trajectory)
        assert outcome.result.status == "optimal"
        assert outcome.result.objective <= 1e-20
        assert outcome.certified

    def test_arc_ends_inside_cells_fail_only_transversality(self):
        # at N=50 the arc ends +-0.5 fall inside cells; the terminal-anchored
        # costate recursion then cannot meet transversality at 1e-7 even
        # though the solve is exact
        problem, trajectory, _ = builtin_example("ex2", ncells=50)
        outcome = recover(problem, trajectory)
        assert outcome.result.status == "optimal"
        failing = [e.name for e in outcome.report.entries if not e.passed]
        assert failing == ["transversality"]
