import numpy as np
import pytest

from lmpkit.errors import EvalError, InputError
from lmpkit.problem import (
    ProblemDef,
    TimeGrid,
    Trajectory,
    builtin_example,
    dynamics_defect,
    endpoint_cost,
)


def constant_problem(n=1, m=1, f=None, G="-x1", J="x1_1"):
    return ProblemDef.from_strings(
        n=n, m=m, t0=0.0, t1=1.0, f=f or ["0"] * n, G=G, J=J
    )


def flat_trajectory(problem, ncells=10, x_value=0.0, u_value=0.0):
    grid = TimeGrid.uniform(problem.t0, problem.t1, ncells)
    return Trajectory(
        grid=grid,
        x=np.full((ncells + 1, problem.n), x_value),
        u_left=np.full((ncells, problem.m), u_value),
        u_right=np.full((ncells, problem.m), u_value),
    )


class TestTimeGrid:
    def test_uniform(self):
        grid = TimeGrid.uniform(0.0, 1.0, 4)
        assert grid.ncells == 4
        assert np.allclose(grid.widths, 0.25)

    def test_requires_increasing(self):
        with pytest.raises(InputError):
            TimeGrid(np.array([0.0, 0.5, 0.5, 1.0]))

    def test_requires_two_cells(self):
        with pytest.raises(InputError):
            TimeGrid(np.array([0.0, 1.0]))

    def test_node_index_alignment(self):
        grid = TimeGrid.uniform(0.0, 1.0, 10)
        assert grid.node_index(0.3) == 3
        with pytest.raises(InputError):
            grid.node_index(0.31)


class TestTrajectory:
    def test_undeclared_discontinuity_rejected(self):
        grid = TimeGrid.uniform(0.0, 1.0, 3)
        with pytest.raises(InputError):
            Trajectory(
                grid=grid,
                x=np.zeros((4, 1)),
                u_left=np.array([[0.0], [1.0], [1.0]]),
                u_right=np.array([[0.0], [1.0], [1.0]]),
            )

    def test_declared_jump_accepted(self):
        grid = TimeGrid.uniform(0.0, 1.0, 3)
        tr = Trajectory(
            grid=grid,
            x=np.zeros((4, 1)),
            u_left=np.array([[0.0], [1.0], [1.0]]),
            u_right=np.array([[0.0], [1.0], [1.0]]),
            jumps=(1,),
        )
        assert len(tr.control_points(1)) == 2
        assert len(tr.control_points(0)) == 1
        assert len(tr.control_points(3)) == 1

    def test_boundary_jump_rejected(self):
        grid = TimeGrid.uniform(0.0, 1.0, 3)
        with pytest.raises(InputError):
            Trajectory(
                grid=grid,
                x=np.zeros((4, 1)),
                u_left=np.zeros((3, 1)),
                u_right=np.zeros((3, 1)),
                jumps=(0,),
            )


class TestProblemDef:
    def test_dimension_checks(self):
        with pytest.raises(InputError):
            ProblemDef.from_strings(1, 1, 0.0, 1.0, ["u1", "u1"], "-x1", "x1_1")
        with pytest.raises(InputError):
            ProblemDef.from_strings(1, 1, 1.0, 0.0, ["u1"], "-x1", "x1_1")

    def test_scope_enforced(self):
        with pytest.raises(Exception):
            ProblemDef.from_strings(1, 1, 0.0, 1.0, ["u2"], "-x1", "x1_1")
        with pytest.raises(Exception):
            ProblemDef.from_strings(1, 1, 0.0, 1.0, ["u1"], "-x1", "x1")

    def test_gradient_tables(self, ex2):
        problem, _, _ = ex2
        x = np.array([0.3, 0.125])
        u = np.array([0.5])
        assert np.allclose(problem.fx_at(x, u), [[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(problem.fu_at(x, u), [[0.0], [1.0]])
        assert np.allclose(problem.Gx_at(x, u), [0.0, -1.0])
        assert np.allclose(problem.Gu_at(x, u), [0.5])


class TestDynamicsDefect:
    def test_optimal_process_exact(self, ex1):
        problem, trajectory, _ = ex1
        assert np.max(np.abs(dynamics_defect(problem, trajectory))) == 0.0

    def test_zero_dynamics_constant_state(self):
        problem = constant_problem()
        trajectory = flat_trajectory(problem, x_value=2.0, u_value=1.0)
        assert np.max(np.abs(dynamics_defect(problem, trajectory))) == 0.0

    def test_arc_fixture_defect_small(self, ex2):
        problem, trajectory, _ = ex2
        defect = dynamics_defect(problem, trajectory)
        assert np.max(np.abs(defect)) <= 1e-3
        # trapezoid is exact on the control integral; only the quadratic
        # state arc contributes, at O(h^3) per cell
        assert np.max(np.abs(defect[:, 1])) <= 1e-12


    def test_evaluation_error_names_the_first_cell(self):
        # x = 0 at node 3 is the right end of cell 2 and the left end of cell 3
        problem = constant_problem(f=["1/x1"])
        x = np.arange(11.0)[:, None] - 3.0
        trajectory = flat_trajectory(problem)
        trajectory = Trajectory(
            grid=trajectory.grid, x=x, u_left=trajectory.u_left, u_right=trajectory.u_right
        )
        with pytest.raises(EvalError, match="failed on cell 2: division by zero"):
            dynamics_defect(problem, trajectory)


class TestEndpointCost:
    def test_product_cost(self, ex1):
        problem, trajectory, _ = ex1
        assert endpoint_cost(problem, trajectory) == 1.0

    def test_coordinate_cost(self):
        problem = constant_problem()
        trajectory = flat_trajectory(problem, x_value=7.0)
        assert endpoint_cost(problem, trajectory) == 7.0

    def test_arc_cost_closed_form(self, ex2):
        problem, trajectory, _ = ex2
        m = 0.5
        assert endpoint_cost(problem, trajectory) == pytest.approx(
            -(m**3) / 6.0, abs=1e-12
        )


class TestBuiltinExamples:
    def test_constraint_active_at_nodes(self, ex1, ex2):
        for problem, trajectory, _ in (ex1, ex2):
            for k in range(trajectory.grid.ncells + 1):
                for u in trajectory.control_points(k):
                    assert problem.G_at(trajectory.x[k], u) <= 1e-12

    def test_arc_control_continuous_at_junctions(self, ex2):
        _, trajectory, _ = ex2
        grid = trajectory.grid
        for t in (-0.5, 0.5):  # +-b for T=1, m=0.5
            k = grid.node_index(t)
            left = trajectory.control_left_limit(k)
            right = trajectory.control_right_limit(k)
            assert np.array_equal(left, right)
            assert np.all(left == 0.0)

    def test_invalid_parameters(self):
        with pytest.raises(InputError):
            builtin_example("ex2", T=1.0, m=0.0, ncells=50)
        with pytest.raises(InputError):
            builtin_example("ex2", T=1.0, m=1.0, ncells=50)
        with pytest.raises(InputError):
            builtin_example("ex1", t0=1.0, t1=0.0, ncells=50)
        with pytest.raises(InputError):
            builtin_example("ex3")

    def test_multiplier_values(self, ex1, ex2):
        _, _, ms1 = ex1
        assert ms1.nu() == pytest.approx(3.0, abs=1e-14)
        _, _, ms2 = ex2
        # alpha0 + lambda mass (arcs 2*m/2 + contact 2b/2) + eta mass (2b/2)
        assert ms2.nu() == pytest.approx(1.0 + 1.0 + 0.5, abs=1e-12)
