"""One-pass table evaluation of PointSet against evaluating each entry
on its own by expr.evaluate_table."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lmpkit import expr
from lmpkit.errors import EvalError
from lmpkit.problem import ProblemDef, TimeGrid, Trajectory
from lmpkit.samples import PointSet, Samples

PROBLEM = ProblemDef.from_strings(
    n=2, m=1, t0=0.0, t1=1.0, f=["x2", "u1"], G="0.5*u1^2 - x2", J="x1_1"
)
# (delta, eps) of the phase test, which no test here reads
TOLERANCES = (1e-8, 1e-8)
# constants, bare variables and compound entries, some failing where a
# column is zero or negative
ENTRIES = [
    "0", "-1.5", "2.5", "x1", "x2", "u1", "0.5*u1^2 - x2", "x1*u1 + 1",
    "log(x1)", "sqrt(x2)", "1/u1", "1/(x1 - 1)", "exp(x2)", "u1^-2", "sin(x1)/x2",
]


def outcome(call):
    """The values of a call, or the (sample, reason) of its EvalError."""
    try:
        return call()
    except EvalError as err:
        return err.sample, err.reason


def entry_by_entry(points, table):
    """Each entry as a table of one; the error of the lowest failing sample,
    ties going to the first entry in table order."""
    nested = isinstance(table[0], tuple)
    flat = [e for row in table for e in row] if nested else list(table)
    values, errors = [], []
    for j, e in enumerate(flat):
        try:
            values.append(expr.evaluate_table((e,), points.columns, points.size)[:, 0])
        except EvalError as err:
            errors.append((err.sample, j, err.reason))
    if errors:
        sample, _, reason = min(errors)
        return sample, reason
    shape = (len(table), len(table[0])) if nested else (len(table),)
    return np.stack(values, axis=-1).reshape(points.size, *shape)


def assert_same(points, table):
    got = outcome(lambda: points.evaluate(table))
    want = entry_by_entry(points, table)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) and got.shape == want.shape
        assert np.array_equal(got, want)


VALUES = st.sampled_from([0.0, -1.0, 1.0, 2.0, 0.5, -0.0, 1e200])


@given(
    st.integers(1, 6).flatmap(lambda k: hnp.arrays(float, (k, 3), elements=VALUES)),
    st.lists(st.sampled_from(ENTRIES), min_size=1, max_size=6),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_one_pass_matches_entry_by_entry(data_xu, sources, nested):
    points = PointSet(PROBLEM, data_xu[:, :2], data_xu[:, 2:], *TOLERANCES)
    flat = tuple(expr.parse(s) for s in sources)
    table = tuple((e,) for e in flat) if nested else flat
    assert_same(points, table)


def test_entries_failing_at_different_samples_and_at_one():
    x = np.array([[2.0, 1.0], [2.0, -1.0], [0.0, 1.0], [-1.0, -1.0]])
    u = np.array([[1.0], [1.0], [0.0], [1.0]])
    points = PointSet(PROBLEM, x, u, *TOLERANCES)
    log, sqrt, inv = (expr.parse(s) for s in ("log(x1)", "sqrt(x2)", "1/u1"))
    # sqrt fails first (sample 1), though log comes first in the table
    assert outcome(lambda: points.evaluate((expr.Const(1.0), log, sqrt))) == (
        1, "sqrt of a negative value"
    )
    # log and 1/u1 both fail first at sample 2: table order picks the reason
    assert outcome(lambda: points.evaluate((inv, log))) == (2, "division by zero")
    assert outcome(lambda: points.evaluate(((log,), (inv,)))) == (
        2, "log of a non-positive value"
    )
    for table in [(log, sqrt), (inv, log), ((log,), (inv,))]:
        assert_same(points, table)


def test_mid_points_of_huge_finite_nodes_are_finite():
    grid = TimeGrid.uniform(0.0, 1.0, 4)
    x = np.array([[0.0, 1.0], [1.5e308, 1.0], [1.5e308, 1.0], [0.0, 1.0], [0.0, 1.0]])
    u = np.array([[1.7e308], [1.7e308], [-1.7e308], [0.0], [0.0]])
    trajectory = Trajectory(grid=grid, x=x, u_left=u[:-1], u_right=u[1:])
    mid = Samples(PROBLEM, trajectory).mid
    np.testing.assert_array_equal(mid.columns["x1"], [0.75e308, 1.5e308, 0.75e308, 0.0])
    np.testing.assert_array_equal(mid.columns["u1"], [1.7e308, 0.0, -0.85e308, 0.0])
    assert_same(mid, (expr.Var("x2"), expr.Var("x1")))


def test_bare_variable_on_an_infinite_column_is_an_error():
    x = np.array([[0.0, 1.0], [np.inf, 1.0], [np.inf, 1.0], [0.0, 1.0]])
    points = PointSet(PROBLEM, x, np.zeros((4, 1)), *TOLERANCES)
    x1, x2 = expr.Var("x1"), expr.Var("x2")
    with pytest.raises(EvalError) as err:
        points.evaluate((x2, x1))
    assert (err.value.sample, err.value.reason) == (
        1, "expression evaluated to a non-finite value"
    )
    assert_same(points, (x2, x1))

