import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lmpkit import geometry
from lmpkit.errors import EvalError, InputError
from lmpkit.problem import ProblemDef, TimeGrid, Trajectory, builtin_example
from lmpkit.samples import Samples
from oracles import (
    RELAXED,
    at_point,
    control_points,
    hull_distance_bruteforce,
    hull_distance_faces,
    laid_out_controls,
    node_at,
    random_problem,
    random_trajectory,
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
    """The closure in measure of the control, as Samples lays it out per node."""

    def test_constant_control_single_point(self, ex1):
        _, trajectory, _ = ex1
        for points in laid_out_controls(trajectory):
            assert len(points) == 1
            assert points[0][0] == 0.0

    def test_declared_jump_two_points(self):
        # the left limit, then the right limit
        points = laid_out_controls(jumpy_trajectory())[2]
        assert [p[0] for p in points] == [1.0, -1.0]

    def test_endpoint_one_sided(self):
        nodes = laid_out_controls(jumpy_trajectory())
        assert [p[0] for p in nodes[0]] == [1.0]
        assert [p[0] for p in nodes[-1]] == [-1.0]

    def test_surjectivity_on_random_trajectories(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            trajectory = random_trajectory(rng)
            laid_out = laid_out_controls(trajectory)
            for k in range(trajectory.grid.ncells + 1):
                expected = control_points(trajectory, k)
                assert len(expected) == (2 if k in trajectory.jumps else 1)
                assert len(laid_out[k]) == len(expected)
                for got, want in zip(laid_out[k], expected):
                    assert np.array_equal(got, want)


def phase_points(problem, x, u, delta, eps):
    """The left point set of a two-cell trajectory that stays at (x, u),
    under the phase-test tolerances (delta, eps)."""
    trajectory = Trajectory(
        grid=TimeGrid.uniform(problem.t0, problem.t1, 2),
        x=np.array([x] * 3, dtype=float),
        u_left=np.array([u] * 2, dtype=float),
        u_right=np.array([u] * 2, dtype=float),
    )
    return Samples(problem, trajectory, delta, eps).left


class TestPhaseSet:
    def test_exact_phase_point(self, ex1):
        problem, _, _ = ex1
        assert phase_points(problem, [1.0], [0.0], 0.0, 0.0).phase[0]

    def test_strict_slack_rejected(self, ex1):
        problem, _, _ = ex1
        assert not phase_points(problem, [2.0], [0.0], 0.5, 0.5).phase[0]

    def test_relaxed_membership_bands(self, ex2):
        problem, _, _ = ex2
        assert phase_points(problem, [0.0, 0.02], [0.1], 0.02, 0.1).phase[0]
        assert not phase_points(problem, [0.0, 0.02], [0.1], 0.02, 0.05).phase[0]

    def test_negative_tolerances_rejected(self, ex1):
        problem, _, _ = ex1
        with pytest.raises(InputError, match="^delta must be finite and nonnegative"):
            phase_points(problem, [1.0], [0.0], -1.0, 0.0)
        with pytest.raises(InputError, match="^eps must be finite and nonnegative"):
            phase_points(problem, [1.0], [0.0], 0.0, -1.0)


class TestContactSet:
    def test_whole_horizon(self, ex1):
        problem, trajectory, _ = ex1
        contact = geometry.contact_set(Samples(problem, trajectory, 1e-8, 1e-8))
        assert contact.intervals == ((0, trajectory.grid.ncells),)
        assert contact.flags.all()
        # the fixture is exact in floating point, so zero tolerances already
        # recover the full contact interval
        exact = geometry.contact_set(Samples(problem, trajectory, 0.0, 0.0))
        assert exact.intervals == contact.intervals

    def test_arc_fixture_interval(self, ex2):
        problem, trajectory, _ = ex2
        contact = geometry.contact_set(Samples(problem, trajectory, 1e-9, 1e-9))
        grid = trajectory.grid
        (lo, hi), = contact.intervals
        k_left = node_at(grid, -0.5)
        k_right = node_at(grid, 0.5)
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
        contact = geometry.contact_set(Samples(problem_, raised, 0.5, 0.5))
        assert not contact.flags.any()
        assert contact.intervals == ()


class TestJumpDirections:
    def test_atom_fixture_direction(self, ex1):
        problem, trajectory, _ = ex1
        k = int(np.argmin(np.abs(trajectory.grid.midpoints - 0.375)))
        value = geometry.jump_directions_at_cell_mid(Samples(problem, trajectory, 1e-8, 1e-8), k)
        # the midpoint of the cell is a phase point; single generator G_x = -1
        assert value.t == 0.375
        assert len(value.generators) == 1
        assert value.generators[0][0] == -1.0

    def test_arc_fixture_direction(self, ex2):
        problem, trajectory, _ = ex2
        k = node_at(trajectory.grid, 0.0)
        value = geometry.jump_directions_at_node(Samples(problem, trajectory, 1e-9, 1e-9), k)
        assert len(value.generators) == 1
        assert np.array_equal(value.generators[0], np.array([0.0, -1.0]))

    def test_inactive_time_empty(self, ex2):
        problem, trajectory, _ = ex2
        grid = trajectory.grid
        samples = Samples(problem, trajectory, 1e-9, 1e-9)
        node = geometry.jump_directions_at_node(samples, node_at(grid, 0.9))
        mid = geometry.jump_directions_at_cell_mid(
            samples, int(np.argmin(np.abs(grid.midpoints - 0.9)))
        )
        assert node.generators == ()
        assert mid.generators == ()

    def test_tolerance_monotonicity(self, ex2):
        problem, trajectory, _ = ex2
        tight = Samples(problem, trajectory, 1e-9, 1e-9)
        loose = Samples(problem, trajectory, 1e-3, 1e-1)
        small = geometry.contact_set(tight)
        large = geometry.contact_set(loose)
        assert np.all(small.flags <= large.flags)
        for k in range(0, trajectory.grid.ncells + 1, 25):
            g_small = geometry.jump_directions_at_node(tight, k).generators
            g_large = geometry.jump_directions_at_node(loose, k).generators
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

    def test_many_generators_match_face_enumeration(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            gens = rng.normal(size=(9, 2))
            s = rng.normal(size=2)
            dist, _ = geometry.dist_to_convex_hull(s, gens)
            assert dist == pytest.approx(hull_distance_faces(s, gens), abs=1e-9)

    def test_point_equal_to_a_generator(self):
        gens = np.array([[1.0, 2.0, 0.0], [-1.0, 0.5, 3.0], [0.0, 0.0, 1.0]])
        for k in range(3):
            dist, weights = geometry.dist_to_convex_hull(gens[k], gens)
            assert dist == 0.0
            assert weights[k] == 1.0

    def test_dimension_mismatch_error(self):
        with pytest.raises(InputError):
            geometry.dist_to_convex_hull(np.zeros(3), np.ones((2, 2)))


def assert_min_norm_point(P, start=0):
    """Weights on the simplex, Wolfe gap at the optimum, and the distance of
    the face-enumeration oracle."""
    P = np.asarray(P, dtype=float)
    res = geometry.min_norm_point(P, start)
    scale = max(1.0, float(np.max(np.sum(P * P, axis=0))))
    assert res.status == "optimal"
    assert np.all(res.w >= 0.0)
    assert float(np.sum(res.w)) == pytest.approx(1.0, abs=1e-12)
    assert res.gap <= 1e-12 * scale
    x = P @ res.w
    assert float(np.linalg.norm(x)) == pytest.approx(
        hull_distance_faces(np.zeros(P.shape[0]), P.T), abs=1e-9
    )
    return res


class TestMinNormPoint:
    @given(st.integers(1, 6), st.integers(1, 12), st.integers(0, 2**32 - 1))
    @example(1, 7, 2**32 - 2)  # the origin inside a full corral, with x ~ 3e-15
    @settings(max_examples=40, deadline=None)
    def test_random_polytopes(self, d, r, seed):
        rng = np.random.default_rng(seed)
        P = rng.normal(size=(d, r)) * rng.uniform(0.1, 10.0)
        P += rng.normal(size=(d, 1)) * rng.uniform(0.0, 3.0)  # move off the origin
        assert_min_norm_point(P)

    def test_duplicate_columns(self):
        P = np.array([[1.0, 2.0, 1.0, 2.0], [1.0, -1.0, 1.0, -1.0]])
        res = assert_min_norm_point(P)
        assert float(np.linalg.norm(P @ res.w)) == pytest.approx(np.sqrt(1.8), abs=1e-12)

    def test_zero_column(self):
        P = np.array([[1.0, 0.0, -2.0], [3.0, 0.0, 1.0]])
        res = assert_min_norm_point(P)
        assert res.w.tolist() == [0.0, 1.0, 0.0]
        assert res.gap == 0.0

    def test_collinear_points(self):
        # five points on the line x = (1, 0) + t (1, 1): the foot of the
        # origin is t = -1/2, between the second and third points
        t = np.array([-3.0, -1.0, 0.5, 2.0, 4.0])
        P = np.array([1.0 + t, t])
        res = assert_min_norm_point(P)
        assert P @ res.w == pytest.approx([0.5, -0.5], abs=1e-12)

    def test_more_points_than_the_dimension_allows(self):
        # twelve points on a circle of radius 2 around (3, 0), in the plane
        angles = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
        P = np.array([3.0 + 2.0 * np.cos(angles), 2.0 * np.sin(angles)])
        res = assert_min_norm_point(P)
        assert np.count_nonzero(res.w) <= 3

    def test_origin_inside(self):
        P = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0], [0.0, 0.0, 0.0, 0.0]])
        res = assert_min_norm_point(P)
        assert float(np.linalg.norm(P @ res.w)) <= 1e-15

    def test_ties_go_to_the_lowest_index(self):
        P = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
        res = geometry.min_norm_point(P)
        assert res.w.tolist() == [1.0, 0.0, 0.0]
        assert res.iterations == 0

    def test_empty_input_error(self):
        with pytest.raises(InputError):
            geometry.min_norm_point(np.zeros((2, 0)))


class TestStartCorral:
    @given(st.integers(1, 6), st.integers(1, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_starts_reach_the_same_point(self, d, r, seed):
        rng = np.random.default_rng(seed)
        P = rng.normal(size=(d, r)) * rng.uniform(0.1, 10.0)
        P += rng.normal(size=(d, 1)) * rng.uniform(0.0, 3.0)
        # a drawn corral, moved to the front by a column permutation
        P = P[:, rng.permutation(r)]
        start = int(rng.integers(1, r + 1))
        plain = geometry.min_norm_point(P)
        res = assert_min_norm_point(P, start)
        assert float(np.linalg.norm(P @ res.w)) == pytest.approx(
            float(np.linalg.norm(P @ plain.w)), abs=1e-9
        )
        assert res.start in (0, start)

    def test_a_positive_start_is_taken(self):
        # the affine minimiser of (1, 1) and (1, -1) is (1, 0), at weights 1/2
        P = np.array([[1.0, 1.0, 3.0], [1.0, -1.0, 0.0]])
        res = geometry.min_norm_point(P, 2)
        assert res.start == 2
        assert res.iterations == 0
        assert res.status == "optimal"
        # the weights come from linear solves, exact to a rounding
        assert res.w[:2] == pytest.approx([0.5, 0.5], abs=1e-15)
        assert res.w[2] == 0.0

    @pytest.mark.parametrize("corral", [[0, 2], [1, 1], [0, 1, 2]], ids=str)
    def test_an_affinely_dependent_start_is_refused(self, corral):
        # columns 0 and 2 coincide: a start holding both, or one column
        # twice, is affinely dependent.  The corral's columns are moved to
        # the front, a repeated one twice, so that they are the start.
        P = np.array([[1.0, 2.0, 1.0], [1.0, -1.0, 1.0]])
        P = P[:, corral + [j for j in range(3) if j not in corral]]
        res = geometry.min_norm_point(P, len(corral))
        plain = geometry.min_norm_point(P)
        assert res.start == 0
        assert np.array_equal(res.w, plain.w)
        assert (res.gap, res.iterations, res.status) == (plain.gap, plain.iterations, plain.status)

    def test_a_start_with_a_nonpositive_weight_is_refused(self):
        # the line through (1, 0) and (2, 0) is nearest the origin at the
        # weights (2, -1)
        P = np.array([[1.0, 2.0], [0.0, 0.0]])
        res = geometry.min_norm_point(P, 2)
        assert res.start == 0
        assert res.w.tolist() == [1.0, 0.0]
        assert res.status == "optimal"

    def test_a_column_outside_the_array_is_an_error(self):
        for start in (3, -1):
            with pytest.raises(InputError, match="outside the array"):
                geometry.min_norm_point(np.eye(2), start)


def test_contact_set_skips_derivatives_off_the_phase_set():
    # G_u = u1/abs(u1) is undefined at u1 = 0, where G = -1 is far from the
    # band -delta <= G <= 0.  Such data are not smooth, outside the class
    # the principle is stated for, and G_u is evaluated at every point: the
    # phase test raises at the lowest point where G_u is undefined
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
    with pytest.raises(EvalError) as scalar:
        at_point(problem, problem.G_u, trajectory.x[0], trajectory.u_left[0])
    for eps in (1e-8, 2.0):
        with pytest.raises(EvalError) as err:
            geometry.contact_set(Samples(problem, trajectory, 1e-8, eps))
        assert (err.value.sample, err.value.reason) == (0, str(scalar.value))


def test_node_generators_match_reference_on_random_trajectories():
    rng = np.random.default_rng(31)
    for _ in range(10):
        trajectory = random_trajectory(rng)
        problem = random_problem(trajectory.n, trajectory.m)
        samples = Samples(problem, trajectory, *RELAXED)
        table = samples.node_gradients
        assert table.shape == (trajectory.grid.ncells + 1, 2, trajectory.n)
        for k in range(trajectory.grid.ncells + 1):
            gens = geometry.jump_directions_at_node(samples, k).generators
            expected = reference_node_generators(problem, trajectory, k, *RELAXED)
            assert len(gens) == len(expected)
            for g, e in zip(gens, expected):
                assert np.array_equal(g, e)
            # the table row: the same generators, bit for bit, then NaN rows
            assert np.count_nonzero(~np.isnan(table[k]).any(axis=1)) == len(expected)
            leading = np.reshape(expected, (-1, trajectory.n))
            assert np.array_equal(table[k, : len(expected)], leading)
            assert np.isnan(table[k, len(expected) :]).all()


def test_G_x_is_the_same_whichever_is_read_first():
    """PointSet.phase_gradients is PointSet.G_x at the phase points: read
    in either order, or alone, they agree bit for bit."""
    rng = np.random.default_rng(37)
    for _ in range(10):
        trajectory = random_trajectory(rng)
        problem = random_problem(trajectory.n, trajectory.m)
        alone, full_first, phase_first = (
            Samples(problem, trajectory, *RELAXED) for _ in range(3)
        )
        for name in ("left", "right", "mid"):
            a, b, c = (getattr(s, name) for s in (alone, full_first, phase_first))
            b.G_x
            c.phase_gradients
            expected = a.G_x
            for points in (b, c):
                assert np.array_equal(points.G_x, expected)
                rows = points.phase_gradients
                flags = a.phase
                assert np.array_equal(rows[flags], expected[flags])
                assert np.isnan(rows[~flags]).all()
