import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmpkit.errors import InputError
from lmpkit.measures import BVFunction, SignedMeasure, running_sum
from lmpkit.problem import TimeGrid
from oracles import cumulative, cumulative_by_loop, node_rows


@pytest.fixture()
def grid():
    return TimeGrid.uniform(0.0, 1.0, 10)


class TestStieltjes:
    """The Stieltjes integral of 1 against dmu over [t0, t1] is the
    closed-interval mass: the atoms at both ends count."""

    def test_unit_atom_at_start(self, grid):
        dmu = SignedMeasure(grid, atoms=node_rows(grid, {0: 1.0}))
        assert dmu.mass()[0] == 1.0

    def test_endpoint_atoms_match_costate_increment(self, ex1):
        _, trajectory, ms = ex1
        grid = trajectory.grid
        dp = SignedMeasure(grid, atoms=node_rows(grid, {0: 1.0, grid.ncells: 1.0}))
        total = dp.mass()[0]
        assert total == 2.0
        p = ms.p
        assert total == float(p.exterior_right[0] - p.exterior_left[0])

    def test_arc_fixture_density_mass(self, ex2):
        _, _, ms = ex2
        assert ms.eta.mass()[0] == pytest.approx(0.5, abs=1e-12)


class TestCumulative:
    def test_single_atom_step(self, grid):
        dmu = SignedMeasure(grid, atoms=node_rows(grid, {3: 1.0}))
        p = cumulative(dmu)
        assert p.values[3, 0] == 0.0  # left-continuous at the jump
        assert p.right_limits()[3, 0] == 1.0
        assert p.values[7, 0] == 1.0

    def test_endpoint_atoms_step_function(self, ex1):
        _, trajectory, ms = ex1
        p = cumulative(ms.eta)
        N = trajectory.grid.ncells
        assert p.exterior_left[0] == 0.0
        assert p.right_limits()[0, 0] == 1.0
        assert p.values[N, 0] == 1.0
        assert p.exterior_right[0] == 2.0

    def test_density_ramp(self, grid):
        dmu = SignedMeasure(grid, density=2.0 * np.ones(grid.ncells))
        p = cumulative(dmu)
        assert np.allclose(p.values[:, 0], 2.0 * grid.nodes)
        assert p.exterior_right[0] == pytest.approx(2.0, abs=1e-15)


class TestNonnegativeFlag:
    def test_rejects_negative_parts(self, grid):
        with pytest.raises(InputError):
            SignedMeasure(grid, atoms=node_rows(grid, {0: -1.0}), nonnegative=True)
        with pytest.raises(InputError):
            SignedMeasure(
                grid, density=-np.ones(grid.ncells), nonnegative=True
            )

    def test_nonnegative_has_nondecreasing_cumulative(self, grid):
        rng = np.random.default_rng(0)
        for _ in range(20):
            atoms = {
                int(k): float(rng.uniform(0, 2))
                for k in rng.integers(0, grid.ncells + 1, size=3)
            }
            dmu = SignedMeasure(
                grid,
                atoms=node_rows(grid, atoms),
                density=rng.uniform(0, 1, grid.ncells),
                nonnegative=True,
            )
            p = cumulative(dmu)
            seq = [p.exterior_left[0]]
            right = p.right_limits()
            for k in range(grid.ncells + 1):
                seq.extend([p.values[k, 0], right[k, 0]])
            seq.append(p.exterior_right[0])
            assert np.all(np.diff(seq) >= 0.0)


@st.composite
def scalar_measures(draw):
    ncells = 6
    grid = TimeGrid.uniform(0.0, 1.0, ncells)
    atoms = {}
    for k in range(ncells + 1):
        if draw(st.booleans()):
            atoms[k] = draw(st.floats(-3, 3, allow_nan=False))
    density = np.array(
        [draw(st.floats(-3, 3, allow_nan=False)) for _ in range(ncells)]
    )
    return SignedMeasure(grid, atoms=node_rows(grid, atoms), density=density)


@given(scalar_measures(), st.integers(0, 6), st.integers(0, 6))
@settings(max_examples=120, deadline=None)
def test_integral_equals_cumulative_increment(dmu, a, b):
    """The closed-interval mass over [a, b], the mass of dmu cut to the
    atoms of nodes a to b and the density of the cells between them, is
    p(b+0) - p(a-0)."""
    if a > b:
        a, b = b, a
    p = cumulative(dmu)
    nodes = np.arange(dmu.grid.ncells + 1)
    atoms = np.where((a <= nodes) & (nodes <= b), dmu.atoms[:, 0], 0.0)
    density = np.where((a <= nodes[:-1]) & (nodes[:-1] < b), dmu.density[:, 0], 0.0)
    lhs = SignedMeasure(dmu.grid, atoms=atoms, density=density).mass()[0]
    rhs = float(p.right_limits()[b, 0] - p.values[a, 0])
    # the two sum the same terms in different orders
    assert lhs == pytest.approx(rhs, abs=1e-12, rel=1e-14)


@given(scalar_measures(), scalar_measures(), st.floats(-2, 2, allow_nan=False))
@settings(max_examples=80, deadline=None)
def test_cumulative_is_linear(mu, nu, c):
    """``cumulative`` is the running sum of a measure's atoms and cell
    masses, and ``running_sum`` is linear in those two arrays."""
    (atoms_mu, cells_mu), (atoms_nu, cells_nu) = (
        (m.atoms, m.density * m.grid.widths[:, None]) for m in (mu, nu)
    )
    combo = running_sum(np.zeros(1), c * atoms_mu + atoms_nu, c * cells_mu + cells_nu)
    assert np.allclose(
        combo[0::2], c * cumulative(mu).values + cumulative(nu).values, atol=1e-12, rtol=0.0
    )


finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def vector_measures(draw):
    """A measure of dimension 1 to 3 on a random grid, and a base value."""
    dim = draw(st.integers(1, 3))
    widths = draw(st.lists(st.floats(0.01, 2.0), min_size=2, max_size=12))
    grid = TimeGrid(np.concatenate([[0.0], np.cumsum(widths)]))
    row = st.lists(finite, min_size=dim, max_size=dim)
    nodes = draw(st.sets(st.integers(0, grid.ncells)))
    atoms = {k: np.array(draw(row)) for k in sorted(nodes)}
    density = np.array([draw(row) for _ in range(grid.ncells)])
    base = np.array(draw(row))
    return SignedMeasure(grid, dim, node_rows(grid, atoms, dim), density), base


@given(vector_measures())
@settings(max_examples=150, deadline=None)
def test_cumulative_matches_the_node_loop_bitwise(measure):
    dmu, base = measure
    p = cumulative(dmu, base=base)
    expected = cumulative_by_loop(dmu, base=base)
    # running_sum makes the loop's additions in the loop's order: equal to
    # the last bit
    assert p.values.tobytes() == expected.values.tobytes()
    assert p.right_limits().tobytes() == expected.right_limits().tobytes()
    assert p.atoms.tobytes() == expected.atoms.tobytes()


class TestBVFunction:
    def test_rows_of_the_wrong_shape_are_refused(self, grid):
        values = np.zeros((grid.ncells + 1, 2))
        with pytest.raises(InputError, match=r"atoms must have shape \(11, 2\), got \(11, 1\)"):
            BVFunction(grid=grid, values=values, atoms=np.zeros(grid.ncells + 1))
        with pytest.raises(InputError, match=r"atoms must have shape \(11, 1\), got \(10, 1\)"):
            SignedMeasure(grid, atoms=np.zeros(grid.ncells))

    def test_exterior_values(self, grid):
        values = np.linspace(0.0, 1.0, grid.ncells + 1).reshape(-1, 1)
        p = BVFunction(grid=grid, values=values, atoms=node_rows(grid, {grid.ncells: 0.5}))
        assert p.exterior_left[0] == 0.0
        assert p.exterior_right[0] == 1.5
