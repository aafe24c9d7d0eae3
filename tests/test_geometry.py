import numpy as np
import pytest

from lmpkit import geometry
from lmpkit.errors import EvalError, InputError
from lmpkit.problem import ProblemDef, TimeGrid, Trajectory, builtin_example
from oracles import (
    RELAXED,
    hull_distance_bruteforce,
    random_problem,
    random_trajectory,
    reference_contact_flags,
    reference_node_generators,
)


def jumpy_trajectory():
    grid = TimeGrid.uniform(0.0, 1.0, 4)
    return Trajectory(
        grid=grid,
        x=np.zeros((5, 1)),
        u_left=np.array([[1.0], [1.0], [-1.0], [-1.0]]),
        u_right=np.array([[1.0], [1.0], [-1.0], [-1.0]]),
        jumps=(2,),
    )


class TestClm:
    def test_constant_control_single_point(self, ex1):
        _, trajectory, _ = ex1
        for t in (0.0, 0.25, 0.5, 1.0):
            value = geometry.clm_at(trajectory, t)
            assert len(value.points) == 1
            assert value.points[0][0] == 0.0

    def test_declared_jump_two_points(self):
        trajectory = jumpy_trajectory()
        value = geometry.clm_at(trajectory, 0.5)
        assert len(value.points) == 2
        assert {p[0] for p in value.points} == {1.0, -1.0}

    def test_endpoint_one_sided(self):
        trajectory = jumpy_trajectory()
        assert geometry.clm_at(trajectory, 0.0).points[0][0] == 1.0
        assert geometry.clm_at(trajectory, 1.0).points[0][0] == -1.0

    def test_off_node_time_interpolates(self, ex2):
        _, trajectory, _ = ex2
        value = geometry.clm_at(trajectory, 0.7512)
        assert len(value.points) == 1
        assert value.points[0][0] == pytest.approx(0.2512, abs=1e-12)

    def test_surjectivity_on_random_trajectories(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            trajectory = random_trajectory(rng)
            for k in range(trajectory.grid.ncells + 1):
                t = float(trajectory.grid.nodes[k])
                points = geometry.clm_at(trajectory, t).points
                assert len(points) == (2 if k in trajectory.jumps else 1)


class TestPhaseSet:
    def test_exact_phase_point(self, ex1):
        problem, _, _ = ex1
        assert geometry.in_phase_set(problem, np.array([1.0]), np.array([0.0]), 0.0, 0.0)

    def test_strict_slack_rejected(self, ex1):
        problem, _, _ = ex1
        assert not geometry.in_phase_set(
            problem, np.array([2.0]), np.array([0.0]), 0.5, 0.5
        )

    def test_relaxed_membership_bands(self, ex2):
        problem, _, _ = ex2
        x = np.array([0.0, 0.02])
        u = np.array([0.1])
        assert geometry.in_phase_set(problem, x, u, 0.02, 0.1)
        assert not geometry.in_phase_set(problem, x, u, 0.02, 0.05)

    def test_negative_tolerances_rejected(self, ex1):
        problem, _, _ = ex1
        with pytest.raises(InputError):
            geometry.in_phase_set(problem, np.array([1.0]), np.array([0.0]), -1.0, 0.0)


class TestContactSet:
    def test_whole_horizon(self, ex1):
        problem, trajectory, _ = ex1
        contact = geometry.contact_set(problem, trajectory, 1e-8, 1e-8)
        assert contact.intervals == ((0, trajectory.grid.ncells),)
        assert not contact.is_empty
        # the fixture is exact in floating point, so zero tolerances already
        # recover the full contact interval
        exact = geometry.contact_set(problem, trajectory, 0.0, 0.0)
        assert exact.intervals == contact.intervals

    def test_arc_fixture_interval(self, ex2):
        problem, trajectory, _ = ex2
        contact = geometry.contact_set(problem, trajectory, 1e-9, 1e-9)
        grid = trajectory.grid
        (lo, hi), = contact.intervals
        k_left = grid.node_index(-0.5)
        k_right = grid.node_index(0.5)
        assert abs(lo - k_left) <= 1
        assert abs(hi - k_right) <= 1

    def test_inactive_constraint_empty(self):
        problem_, trajectory, _ = builtin_example("ex1", ncells=10)
        # push the state away from the constraint surface: G = -1 everywhere
        raised = Trajectory(
            grid=trajectory.grid,
            x=trajectory.x + 1.0,
            u_left=trajectory.u_left,
            u_right=trajectory.u_right,
        )
        contact = geometry.contact_set(problem_, raised, 0.5, 0.5)
        assert contact.is_empty
        assert contact.intervals == ()


class TestJumpDirections:
    def test_atom_fixture_direction(self, ex1):
        problem, trajectory, _ = ex1
        value = geometry.jump_directions(problem, trajectory, 0.37, 1e-8, 1e-8)
        # snaps inside the cell; single generator G_x = -1
        assert len(value.generators) == 1
        assert value.generators[0][0] == -1.0

    def test_arc_fixture_direction(self, ex2):
        problem, trajectory, _ = ex2
        value = geometry.jump_directions(problem, trajectory, 0.0, 1e-9, 1e-9)
        assert len(value.generators) == 1
        assert np.array_equal(value.generators[0], np.array([0.0, -1.0]))

    def test_inactive_time_empty(self, ex2):
        problem, trajectory, _ = ex2
        value = geometry.jump_directions(problem, trajectory, 0.9, 1e-9, 1e-9)
        assert value.is_empty

    def test_tolerance_monotonicity(self, ex2):
        problem, trajectory, _ = ex2
        small = geometry.contact_set(problem, trajectory, 1e-9, 1e-9)
        large = geometry.contact_set(problem, trajectory, 1e-3, 1e-1)
        assert np.all(small.flags <= large.flags)
        for k in range(0, trajectory.grid.ncells + 1, 25):
            g_small = geometry.jump_directions_at_node(
                problem, trajectory, k, 1e-9, 1e-9
            ).generators
            g_large = geometry.jump_directions_at_node(
                problem, trajectory, k, 1e-3, 1e-1
            ).generators
            small_set = {tuple(g) for g in g_small}
            large_set = {tuple(g) for g in g_large}
            assert small_set <= large_set


class TestHullDistance:
    def test_generator_itself(self):
        gens = [np.array([2.0, 1.0]), np.array([-1.0, 0.5])]
        dist, weights = geometry.dist_to_convex_hull(gens[0], gens)
        assert dist <= 1e-12
        assert weights[0] == pytest.approx(1.0, abs=1e-9)

    def test_origin_to_segment(self):
        gens = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        dist, weights = geometry.dist_to_convex_hull(np.zeros(2), gens)
        assert dist == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
        assert np.allclose(weights, [0.5, 0.5], atol=1e-9)
        assert dist == pytest.approx(
            hull_distance_bruteforce(np.zeros(2), gens), abs=1e-3
        )

    def test_singleton(self):
        dist, weights = geometry.dist_to_convex_hull(
            np.array([0.0, -1.0]), [np.array([0.0, -1.0])]
        )
        assert dist == 0.0
        assert weights[0] == 1.0

    def test_point_distance(self):
        dist, _ = geometry.dist_to_convex_hull(
            np.array([0.0, 0.0]), [np.array([0.0, -1.0])]
        )
        assert dist == 1.0

    def test_empty_generators_error(self):
        with pytest.raises(InputError):
            geometry.dist_to_convex_hull(np.zeros(2), [])

    def test_membership_iff_zero_distance(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            d = int(rng.integers(2, 5))
            r = int(rng.integers(2, 5))
            gens = rng.normal(size=(r, d))
            w = rng.dirichlet(np.ones(r))
            inside = w @ gens
            dist, _ = geometry.dist_to_convex_hull(inside, gens)
            assert dist <= 1e-9

    def test_frank_wolfe_path_matches_exact(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            gens = rng.normal(size=(9, 2))  # many generators forces the FW path
            s = rng.normal(size=2)
            dist_fw, _ = geometry.dist_to_convex_hull(s, gens)
            dist_exact, _ = geometry._hull_distance_exact(s, gens)
            assert dist_fw == pytest.approx(dist_exact, abs=1e-6)


def test_contact_set_skips_derivatives_off_the_phase_set():
    # G_u = u1/abs(u1) is undefined at u1 = 0, where G = -1 is far from the
    # band -delta <= G <= 0; the phase test must not evaluate it there
    problem = ProblemDef.from_strings(
        n=1, m=1, t0=0.0, t1=1.0, f=["u1"], G="abs(u1) - x1", J="x1_1"
    )
    u_nodes = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    trajectory = Trajectory(
        grid=TimeGrid.uniform(0.0, 1.0, 5),
        x=np.ones((6, 1)),
        u_left=u_nodes[:-1, None],
        u_right=u_nodes[1:, None],
    )
    with pytest.raises(EvalError):
        problem.Gu_at(trajectory.x[0], trajectory.u_left[0])
    for eps in (1e-8, 2.0):
        contact = geometry.contact_set(problem, trajectory, 1e-8, eps)
        expected = reference_contact_flags(problem, trajectory, 1e-8, eps)
        assert np.array_equal(contact.flags, expected)
    assert geometry.contact_set(problem, trajectory, 1e-8, 2.0).intervals == ((3, 5),)
    for k in (3, 4):
        gens = geometry.jump_directions_at_node(problem, trajectory, k, 1e-8, 2.0).generators
        assert len(gens) == 1 and gens[0][0] == -1.0


def test_node_generators_match_reference_on_random_trajectories():
    rng = np.random.default_rng(31)
    for _ in range(10):
        trajectory = random_trajectory(rng)
        problem = random_problem(trajectory.n, trajectory.m)
        for k in range(trajectory.grid.ncells + 1):
            gens = geometry.jump_directions_at_node(
                problem, trajectory, k, RELAXED.delta, RELAXED.eps
            ).generators
            expected = reference_node_generators(
                problem, trajectory, k, RELAXED.delta, RELAXED.eps
            )
            assert len(gens) == len(expected)
            for g, e in zip(gens, expected):
                assert np.array_equal(g, e)
