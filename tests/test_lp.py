import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lmpkit import cones, lp
from lmpkit.errors import NumericalError
from oracles import lp_by_basis_enumeration

SMALL = st.integers(-3, 3)


@st.composite
def small_programs(draw):
    """Integer programs with m <= 4 rows and n <= 8 columns; optionally one
    row repeated (a redundant row) and one column whose only entry is -1 on
    a row with b = 0 (a starting basis that negates the row)."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 7))
    A = np.array(draw(st.lists(st.lists(SMALL, min_size=n, max_size=n), min_size=m, max_size=m)))
    b = np.array(draw(st.lists(SMALL, min_size=m, max_size=m)), dtype=float)
    c = np.array(draw(st.lists(SMALL, min_size=n, max_size=n)), dtype=float)
    A = A.astype(float)
    if draw(st.booleans()):
        i = draw(st.integers(0, m - 1))
        b[i] = 0.0
        A = np.column_stack([A, -np.eye(m)[i]])
        c = np.append(c, draw(SMALL))
    if m < 4 and draw(st.booleans()):
        i = draw(st.integers(0, m - 1))
        A = np.vstack([A, A[i]])
        b = np.append(b, b[i])
    return c, A, b


@settings(max_examples=300, deadline=None)
@given(small_programs())
# a negative unit column on a b = 0 row, next to a positive one
@example((np.array([-1.0, 0, 0, 0]), np.array([[1.0, -1, -1, 0], [1, 1, 0, 1]]), np.array([0.0, 2])))
# a duplicated row
@example((np.array([1.0, 2, 3]), np.array([[1.0, 1, 1], [1, 1, 1]]), np.array([1.0, 1])))
# a row with b < 0
@example((np.array([1.0, 1, 0]), np.array([[-1.0, -1, 1]]), np.array([-2.0])))
# infeasible
@example((np.array([0.0, 0]), np.array([[1.0, 1]]), np.array([-1.0])))
# unbounded
@example((np.array([-1.0, 0]), np.array([[1.0, -1]]), np.array([0.0])))
def test_simplex_agrees_with_basis_enumeration(program):
    c, A, b = program
    result = lp.solve_standard_form(c, A, b)
    status, objective = lp_by_basis_enumeration(c, A, b)
    assert result.status == status
    if status == "optimal":
        assert result.objective == pytest.approx(objective, abs=1e-9)
        assert result.x.min() >= -1e-9
        assert np.max(np.abs(A @ result.x - b)) <= 1e-9


def test_phase_one_only_for_rows_without_a_unit_column(monkeypatch):
    """The margin LP starts from its surplus and box columns and skips
    phase 1; the separation LP needs one artificial, for its normalisation
    row, and so runs both phases."""
    phases = []
    real = lp._solve_phase

    def counted(tableau, basis, cost, full):
        phases.append(full.shape[1] - 1)
        return real(tableau, basis, cost, full)

    monkeypatch.setattr(lp, "_solve_phase", counted)
    family = cones.random_family(np.random.default_rng(3), dim=3)
    cones.intersection_nonempty(family)
    assert len(phases) == 1
    phases.clear()
    cones.approx_separate(family, eps=1e-6)
    assert len(phases) == 2
    assert phases[0] == phases[1] + 1  # phase 1 has one artificial column


# min -x1 - 2 x2 with x1 - x2 <= 1 and x1 + x2 <= 3 through slacks x3 and
# x4: the starting basis is {x3, x4}, x1 enters first, and the optimum is
# x2 = 3.
BOX = (
    np.array([-1.0, -2.0, 0.0, 0.0]),
    np.array([[1.0, -1.0, 1.0, 0.0], [1.0, 1.0, 0.0, 1.0]]),
    np.array([1.0, 3.0]),
)


def test_fresh_check_recovers_from_a_corrupted_tableau(monkeypatch):
    real = lp._pivot
    pivots = []

    def corrupt_once(tableau, basis, row, col):
        real(tableau, basis, row, col)
        if not pivots:
            # a false entry that hides the negative reduced cost of x2
            tableau[row, 1] = 5.0
        pivots.append(col)

    monkeypatch.setattr(lp, "_pivot", corrupt_once)
    result = lp.solve_standard_form(*BOX)
    assert pivots[0] == 0 and len(pivots) > 1  # the rebuilt tableau goes on
    assert result.status == "optimal"
    assert result.objective == pytest.approx(-6.0, abs=1e-12)
    np.testing.assert_allclose(result.x, [0.0, 3.0, 4.0, 0.0], atol=1e-12)


def test_fresh_check_that_keeps_failing_raises(monkeypatch):
    real = lp._pivot

    def wrong_row(tableau, basis, row, col):
        # pivots on the last row with a nonzero entry, not on the row the
        # ratio test chose, which leaves a basis with x_B < 0
        real(tableau, basis, np.flatnonzero(tableau[:, col])[-1], col)

    monkeypatch.setattr(lp, "_pivot", wrong_row)
    # min -x1 with x1 <= 1 and x1 <= 2: the ratio test picks the first row
    c = np.array([-1.0, 0.0, 0.0])
    A = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    with pytest.raises(NumericalError, match="fresh check"):
        lp.solve_standard_form(c, A, np.array([1.0, 2.0]))
