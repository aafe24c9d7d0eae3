import logging

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lmpkit import cones, lp
from lmpkit.errors import NumericalError
from oracles import lp_by_basis_enumeration

SMALL = st.integers(-3, 3)


def with_start_columns(draw, c, A, b):
    """The program with one unit column appended per row, and those columns
    as its start basis: each has the sign of its row's b, or, where b = 0,
    either sign."""
    m, n = A.shape
    signs = np.array(draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=m, max_size=m)))
    costs = np.array(draw(st.lists(SMALL, min_size=m, max_size=m)), dtype=float)
    return (
        np.append(c, costs),
        np.column_stack([A, np.diag(np.where(b == 0, signs, np.sign(b)))]),
        b,
        np.arange(n, n + m),
    )


@st.composite
def small_programs(draw):
    """Integer programs with m <= 4 rows and n + m <= 8 columns, the last m
    of them the rows' start columns."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 8 - m))
    A = draw(st.lists(st.lists(SMALL, min_size=n, max_size=n), min_size=m, max_size=m))
    b = draw(st.lists(SMALL, min_size=m, max_size=m))
    c = draw(st.lists(SMALL, min_size=n, max_size=n))
    return with_start_columns(
        draw, np.array(c, dtype=float), np.array(A, dtype=float), np.array(b, dtype=float)
    )


@settings(max_examples=300, deadline=None)
@given(small_programs())
# a negative unit column on a b = 0 row, next to a positive one
@example((
    np.array([-1.0, 0, 0, 0]), np.array([[1.0, -1, -1, 0], [1, 1, 0, 1]]), np.array([0.0, 2]),
    [2, 3],
))
# a row with b < 0
@example((np.array([1.0, 1, 0]), np.array([[-1.0, -1, -1]]), np.array([-2.0]), [2]))
# unbounded
@example((np.array([-1.0, 0]), np.array([[1.0, -1]]), np.array([0.0]), [1]))
def test_simplex_agrees_with_basis_enumeration(program):
    """Every drawn program is feasible, as its start basis is; an unbounded
    one is refused by name."""
    c, A, b, basis = program
    status, objective = lp_by_basis_enumeration(c, A, b)
    if status == "unbounded":
        with pytest.raises(NumericalError, match="^LP is unbounded"):
            lp.solve_standard_form(c, A, b, basis)
        return
    result = lp.solve_standard_form(c, A, b, basis)
    assert result.objective == pytest.approx(objective, abs=1e-9)
    assert result.x.min() >= -1e-9
    assert np.max(np.abs(A @ result.x - b)) <= 1e-9


@pytest.mark.parametrize("A, b, basis, reason", [
    # a basis column with a second nonzero entry
    ([[1.0, 1, 1], [1, 1, 1]], [1.0, 1], [0, 1], "unit columns"),
    # unit columns, each named for the other's row
    ([[1.0, 0, 0], [0, 1, 0]], [1.0, 1], [1, 0], "unit columns"),
    # one column named for two rows
    ([[1.0, 0, 0], [0, 1, 0]], [1.0, 1], [0, 0], "unit columns"),
    # a negative entry where b > 0, and a positive one where b < 0
    ([[1.0, 0, 0], [0, -1, 0]], [1.0, 1], [0, 1], "unit columns"),
    ([[1.0, 0, 0], [0, 1, 0]], [1.0, -1], [0, 1], "unit columns"),
    # columns the LP does not have, and a basis shorter than the rows
    ([[1.0, 0, 0], [0, 1, 0]], [1.0, 1], [0, 3], "inconsistent"),
    ([[1.0, 0, 0], [0, 1, 0]], [1.0, 1], [-3, 1], "inconsistent"),
    ([[1.0, 0, 0], [0, 1, 0]], [1.0, 1], [0], "inconsistent"),
], ids=[
    "second-nonzero", "other-rows", "one-column-twice", "negative-entry", "positive-entry",
    "no-such-column", "negative-index", "short-basis",
])
def test_a_start_basis_that_is_not_feasible_unit_columns_is_refused(
    monkeypatch, A, b, basis, reason
):
    """There is no phase 1: a start basis that is not unit columns of its
    rows, or that would leave b < 0, is refused before any pivot."""

    def no_pivot(*args):
        raise AssertionError("pivoted without a start basis")

    monkeypatch.setattr(lp, "_solve_phase", no_pivot)
    with pytest.raises(NumericalError, match=reason):
        lp.solve_standard_form(np.array([1.0, 2, 3]), np.array(A), np.array(b), basis)


# min -x1 - 2 x2 with x1 - x2 <= 1 and x1 + x2 <= 3 through slacks x3 and
# x4: the starting basis is {x3, x4}, and the optimum is x2 = 3.
BOX = (
    np.array([-1.0, -2.0, 0.0, 0.0]),
    np.array([[1.0, -1.0, 1.0, 0.0], [1.0, 1.0, 0.0, 1.0]]),
    np.array([1.0, 3.0]),
    [2, 3],
)


def test_fresh_check_recovers_from_a_corrupted_tableau(monkeypatch):
    real_pivot, real_fresh = lp._pivot, lp._fresh_tableau
    pivots = []
    fresh = []

    def corrupt_once(tableau, basis, row, col):
        real_pivot(tableau, basis, row, col)
        if not pivots:
            # a false entry in the pivot row, in its lowest-index nonbasic
            # column, that makes that column look improving to the carried
            # reduced costs, whichever column entered
            nonbasic = np.setdiff1d(np.arange(tableau.shape[1] - 1), basis)
            tableau[row, nonbasic[0]] = -5.0
        pivots.append(col)

    def recorded(full, basis):
        fresh.append(basis.copy())
        return real_fresh(full, basis)

    monkeypatch.setattr(lp, "_pivot", corrupt_once)
    monkeypatch.setattr(lp, "_fresh_tableau", recorded)
    result = lp.solve_standard_form(*BOX)
    # the first stop fails its fresh check, and the rebuilt tableau goes on
    assert len(fresh) > 1 and len(pivots) > 1
    assert result.objective == pytest.approx(-6.0, abs=1e-12)
    np.testing.assert_allclose(result.x, [0.0, 3.0, 4.0, 0.0], atol=1e-12)


def test_unbounded_stop_is_confirmed_afresh(monkeypatch):
    real_pivot = lp._pivot
    pivots = []

    def corrupt_once(tableau, basis, row, col):
        real_pivot(tableau, basis, row, col)
        if not pivots:
            # x1 enters first on row 0 (Bland), leaving the basis {x1, x4};
            # false entries in that row make x2 look non-improving and x3
            # improving, and x3's column then has no positive entry
            tableau[row, 1:3] = [5.0, -5.0]
        pivots.append(col)

    monkeypatch.setattr(lp, "_DEGENERATE_RUN", 0)
    monkeypatch.setattr(lp, "_pivot", corrupt_once)
    result = lp.solve_standard_form(*BOX)
    # the carried tableau stops unbounded after one pivot; the fresh
    # tableau of that basis shows x2 improving with a positive entry
    assert pivots[0] == 0 and len(pivots) > 1
    assert result.objective == pytest.approx(-6.0, abs=1e-12)
    np.testing.assert_allclose(result.x, [0.0, 3.0, 4.0, 0.0], atol=1e-12)


# Beale's example (Beale 1955): the most-negative-reduced-cost rule, with
# ratio ties leaving by the lowest-index basic variable, cycles through six
# degenerate bases back to the starting one.
BEALE = (
    np.array([0.0, 0.0, 0.0, -0.75, 20.0, -0.5, 6.0]),
    np.array(
        [
            [1.0, 0.0, 0.0, 0.25, -8.0, -1.0, 9.0],
            [0.0, 1.0, 0.0, 0.5, -12.0, -0.5, 3.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
        ]
    ),
    np.array([0.0, 0.0, 1.0]),
    [0, 1, 2],
)


def test_bland_fallback_ends_the_cycle_of_beales_example(monkeypatch, caplog):
    with caplog.at_level(logging.DEBUG, logger="lmpkit.lp"):
        result = lp.solve_standard_form(*BEALE)
    assert caplog.messages == [f"simplex on 3 x 7: optimal after {result.iterations} pivots"]
    assert result.objective == pytest.approx(-1.25, abs=1e-12)
    np.testing.assert_allclose(result.x, [0.75, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0], atol=1e-12)
    # without the fallback the same program cycles: 12 pivots visit 6 bases
    real = lp._pivot
    bases = []

    def recorded(tableau, basis, row, col):
        real(tableau, basis, row, col)
        bases.append(frozenset(basis.tolist()))
        if len(bases) == 12:
            raise StopIteration

    monkeypatch.setattr(lp, "_DEGENERATE_RUN", 10**9)
    monkeypatch.setattr(lp, "_pivot", recorded)
    with pytest.raises(StopIteration):
        lp.solve_standard_form(*BEALE)
    assert len(set(bases)) == 6 and bases[6:] == bases[:6]


@pytest.mark.parametrize("b", [(1e-18, 0.0, 1.0), (1e-17, 1e-17, 1.0)])
def test_rounding_residue_counts_as_a_degenerate_ratio(b):
    """Beale's cycle with right-hand sides that are zero but for rounding
    residue: ratios such as 1e-18 must still count as degenerate pivots, or
    the Bland fallback never starts and Dantzig cycles to the pivot cap."""
    c, A, _, basis = BEALE
    result = lp.solve_standard_form(c, A, np.array(b), basis)
    assert result.objective == pytest.approx(-1.25, abs=1e-12)
    assert result.iterations == 18


@st.composite
def degenerate_programs(draw):
    """Programs with m <= 5 rows and n <= 10 columns plus the rows' start
    columns, where each entry of b is zero with probability about one half,
    so that many vertices are degenerate."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 10))
    A = draw(st.lists(st.lists(SMALL, min_size=n, max_size=n), min_size=m, max_size=m))
    b = draw(st.lists(st.one_of(st.just(0), SMALL), min_size=m, max_size=m))
    c = draw(st.lists(SMALL, min_size=n, max_size=n))
    return with_start_columns(
        draw, np.array(c, dtype=float), np.array(A, dtype=float), np.array(b, dtype=float)
    )


@settings(max_examples=300, deadline=None)
@given(degenerate_programs())
@example(BOX)
@example(BEALE)
def test_optimal_results_carry_an_optimality_certificate(program):
    """Every optimal result is checked against a certificate computed here,
    from the final basis alone: A x = b and x >= 0; y from B^T y = c_B;
    c - A^T y >= 0; and c.x = b.y.  Every result counts its pivots.  An LP
    refused as unbounded has an improving ray at the last basis checked."""
    c, A, b, start = program
    bases = []
    pivots = []
    real_fresh, real_pivot = lp._fresh_tableau, lp._pivot

    def recorded(full, basis):
        bases.append(basis.copy())
        return real_fresh(full, basis)

    def counted(tableau, basis, row, col):
        pivots.append(col)
        real_pivot(tableau, basis, row, col)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp, "_fresh_tableau", recorded)
        patch.setattr(lp, "_pivot", counted)
        try:
            result = lp.solve_standard_form(c, A, b, start)
        except NumericalError as err:
            assert str(err).startswith("LP is unbounded")
            result = None
    basis = bases[-1]  # the basis the last fresh check confirmed
    if result is None:
        # a column d: d_col = 1 and d_B = -B^-1 A_col, with A d = 0, d >= 0 and c.d < 0
        T = np.linalg.solve(A[:, basis], A)
        ray = (c - c[basis] @ T < -1e-11) & (T <= 1e-11).all(axis=0)
        d = np.eye(c.size)[ray.argmax()]
        d[basis] -= T[:, ray.argmax()]
        assert ray.any() and d.min() >= -1e-9 and c @ d < 0
        assert np.max(np.abs(A @ d)) <= 1e-9
        return
    assert result.iterations == len(pivots)
    x = result.x
    assert np.all(x[np.setdiff1d(np.arange(c.size), basis)] == 0.0)
    assert x.min() >= -1e-9
    assert np.max(np.abs(A @ x - b), initial=0.0) <= 1e-9
    y = np.linalg.solve(A[:, basis].T, c[basis])
    assert (c - A.T @ y).min() >= -1e-9
    assert c @ x == pytest.approx(b @ y, abs=1e-9)
    # the result's own multipliers, in the rows as given (some have b < 0)
    assert np.max(np.abs(A[:, basis].T @ result.y - c[basis]), initial=0.0) <= 1e-9
    assert (c - A.T @ result.y).min() >= -1e-9
    assert result.objective == pytest.approx(b @ result.y, abs=1e-9)


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
        lp.solve_standard_form(c, A, np.array([1.0, 2.0]), [1, 2])


def test_cone_lps_start_from_the_basis_they_are_built_on(monkeypatch):
    """z+_i on a generator row with b_i >= 0, z-_i where b_i < 0, and on
    the normalisation row the coefficient of largest weight, whose column
    is zero on the generator rows."""
    programs = []
    real = cones.solve_standard_form

    def recorded(c, A, b, basis):
        programs.append((c.size, A.copy(), b.copy(), basis.copy()))
        return real(c, A, b, basis)

    monkeypatch.setattr(cones, "solve_standard_form", recorded)
    for seed in range(50):
        family = cones.random_family(np.random.default_rng(seed))
        cones.intersection_nonempty(family)
        cones.approx_separate(family, eps=1e-6)
    assert len(programs) == 100
    for n, A, b, basis in programs:
        d = b.size - 1
        k = n - 2 * d
        z = k + np.arange(d) + d * (b[:d] < 0)
        np.testing.assert_array_equal(basis, np.append(z, A[d, :k].argmax()))
        assert not A[:d, basis[d]].any()


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["c", "A", "b"])
def test_non_finite_data_is_refused_before_any_pivot(monkeypatch, where, value):
    """Without the check, this LP ends 'optimal' with NaN or inf in b, and
    pivots up to the iteration limit with NaN in A or c."""
    c, A, b = (v.copy() for v in BOX[:3])
    {"c": c, "A": A, "b": b}[where][0] = value

    def no_pivot(tableau, basis, row, col):
        raise AssertionError("pivoted on non-finite data")

    monkeypatch.setattr(lp, "_pivot", no_pivot)
    with pytest.raises(NumericalError, match="finite"):
        lp.solve_standard_form(c, A, b, BOX[3])


@pytest.mark.parametrize("m", [0, 2])
def test_lp_without_columns(m):
    """No start basis can name a column of an LP without columns."""
    with pytest.raises(NumericalError, match="^inconsistent LP dimensions$"):
        lp.solve_standard_form(np.zeros(0), np.zeros((m, 0)), np.zeros(m), np.zeros(m, dtype=int))
