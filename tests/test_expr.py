import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmpkit import expr
from lmpkit.errors import EvalError, ParseError
from oracles import (
    central_difference,
    fd_comparable_sample,
    random_binding,
    random_expression,
)

G_EX1 = "0.5*u1^2 - x1 + 1"


def test_parse_constraint_expression():
    e = expr.parse(G_EX1)
    assert expr.evaluate(e, {"x1": 1.0, "u1": 0.0}) == 0.0
    assert expr.evaluate(e, {"x1": 0.0, "u1": 2.0}) == 3.0
    assert expr.free_variables(e) == {"x1", "u1"}


def test_parse_single_variable():
    e = expr.parse("x1")
    assert isinstance(e, expr.Var)
    assert expr.evaluate(e, {"x1": 3.5}) == 3.5


def test_node_count_rule():
    # counting rule: operators, leaves and calls are one node each; a power
    # contributes itself plus its integer exponent literal
    e = expr.parse("sin(x1)+cos(x1)^2")
    assert expr.node_count(e) == 7


@pytest.mark.parametrize(
    "source",
    ["0.5*u1^2 - x1 + 1", "x1", "sin(x1)+cos(x1)^2", "-x1^2", "2*-x1", "x1^-2",
     "(x1 + u1)/(x1 - u1)", "exp(log(x1))*sqrt(u1)"],
)
def test_print_parse_print_idempotent(source):
    once = expr.to_source(expr.parse(source))
    twice = expr.to_source(expr.parse(once))
    assert once == twice


def test_eval_matches_phase_point(ex1):
    problem, _, _ = ex1
    assert problem.G_at(np.array([1.0]), np.array([0.0])) == 0.0


def test_eval_arc_constraint_active():
    e = expr.parse("0.5*u1^2 - x2")
    assert expr.evaluate(e, {"x2": 0.125, "u1": 0.5}) == 0.0


@pytest.mark.parametrize(
    "source, binding, exc",
    [
        ("log(x1)", {"x1": -1.0}, EvalError),
        ("x1/u1", {"x1": 1.0, "u1": 0.0}, EvalError),
        ("sqrt(x1)", {"x1": -2.0}, EvalError),
        ("x1^-1", {"x1": 0.0}, EvalError),
        ("exp(x1)", {"x1": 1e9}, EvalError),
        ("x1", {}, EvalError),
    ],
)
def test_eval_domain_errors(source, binding, exc):
    with pytest.raises(exc):
        expr.evaluate(expr.parse(source), binding)


@pytest.mark.parametrize(
    "source",
    ["", "1 +", "(x1", "x1 ** 2", "u1^x1", "u1^2.5", "foo(x1)", "y1", "x0"],
)
def test_parse_errors(source):
    with pytest.raises(ParseError):
        expr.parse(source)


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        expr.parse("x1 + ?")
    assert err.value.position == 5


def test_scope_rejects_out_of_range():
    scope = expr.Scope(2, 1)
    expr.parse("x2 + u1", scope)
    with pytest.raises(ParseError):
        expr.parse("x3", scope)
    with pytest.raises(ParseError):
        expr.parse("u2", scope)
    with pytest.raises(ParseError):
        expr.parse("x0_1", scope)
    endpoint = expr.Scope(2, 0, endpoint=True)
    expr.parse("x0_2*x1_1", endpoint)
    with pytest.raises(ParseError):
        expr.parse("x1", endpoint)


def test_diff_of_constraint_control_gradient():
    e = expr.parse(G_EX1)
    d = expr.differentiate(e, "u1")
    for u in (0.0, 1.5, -2.0):
        assert expr.evaluate(d, {"x1": 4.0, "u1": u}) == u
    assert expr.evaluate(d, {"x1": 1.0, "u1": 0.0}) == 0.0


def test_diff_unrelated_variable_is_zero():
    d = expr.differentiate(expr.parse("x1"), "u1")
    assert expr.is_zero(d)


def test_diff_product_against_fd():
    e = expr.parse("x1*u1^2")
    binding = {"x1": 2.0, "u1": 3.0}
    d = expr.evaluate(expr.differentiate(e, "u1"), binding)
    assert d == pytest.approx(12.0, abs=1e-12)
    assert d == pytest.approx(central_difference(e, "u1", binding), abs=1e-6)


def test_diff_constants_and_identity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        c = expr.Const(float(rng.uniform(-5, 5)))
        assert expr.is_zero(expr.differentiate(c, "x1"))
    d = expr.differentiate(expr.Var("x1"), "x1")
    for _ in range(5):
        assert expr.evaluate(d, random_binding(rng, ["x1"])) == 1.0


def test_diff_abs_matches_sign():
    e = expr.parse("abs(x1)")
    d = expr.differentiate(e, "x1")
    assert expr.evaluate(d, {"x1": 2.0}) == 1.0
    assert expr.evaluate(d, {"x1": -3.0}) == -1.0
    with pytest.raises(EvalError):
        expr.evaluate(d, {"x1": 0.0})


def test_fd_agreement_sampled():
    rng = np.random.default_rng(11)
    for _ in range(100):
        e, var, binding = fd_comparable_sample(rng, ["x1", "x2", "u1"])
        sym = expr.evaluate(expr.differentiate(e, var), binding)
        fd = central_difference(e, var, binding)
        scale = 1.0 + abs(expr.evaluate(e, binding))
        assert abs(sym - fd) <= 1e-5 * scale


@st.composite
def safe_asts(draw):
    """Hypothesis ASTs over sin/cos/exp with bounded constants."""
    depth = draw(st.integers(0, 3))

    def build(d):
        if d == 0:
            if draw(st.booleans()):
                return expr.Const(draw(st.floats(-2, 2, allow_nan=False)))
            return expr.Var(draw(st.sampled_from(["x1", "u1"])))
        kind = draw(st.integers(0, 4))
        if kind <= 2:
            op = draw(st.sampled_from("+-*"))
            return expr.Binary(op, build(d - 1), build(d - 1))
        if kind == 3:
            return expr.Neg(build(d - 1))
        func = draw(st.sampled_from(["sin", "cos"]))
        return expr.Call(func, build(d - 1))

    return build(depth)


@given(safe_asts(), st.floats(-2, 2, allow_nan=False), st.floats(-2, 2, allow_nan=False))
@settings(max_examples=150, deadline=None)
def test_roundtrip_evaluates_identically(e, x, u):
    binding = {"x1": x, "u1": u}
    reparsed = expr.parse(expr.to_source(e))
    assert expr.evaluate(reparsed, binding) == pytest.approx(
        expr.evaluate(e, binding), rel=1e-12, abs=1e-12
    )


@given(safe_asts())
@settings(max_examples=150, deadline=None)
def test_print_is_stable(e):
    once = expr.to_source(e)
    assert expr.to_source(expr.parse(once)) == once


def test_evaluate_never_returns_nonfinite():
    e = expr.parse("exp(x1)^3")
    with pytest.raises(EvalError):
        expr.evaluate(e, {"x1": 400.0})
    assert math.isfinite(expr.evaluate(e, {"x1": 1.0}))


# -- evaluation over arrays ------------------------------------------------------


def _exact_ops_only(e) -> bool:
    """True when the tree uses only + - * / and negation."""
    if isinstance(e, (expr.Const, expr.Var)):
        return True
    if isinstance(e, expr.Neg):
        return _exact_ops_only(e.child)
    if isinstance(e, expr.Binary):
        return _exact_ops_only(e.left) and _exact_ops_only(e.right)
    return False


def _magnitude(e, binding) -> float:
    """Largest absolute value over the subexpressions of e at a binding."""
    try:
        top = abs(expr.evaluate(e, binding))
    except EvalError:
        return math.inf
    if isinstance(e, (expr.Const, expr.Var)):
        return top
    if isinstance(e, expr.Binary):
        return max(top, _magnitude(e.left, binding), _magnitude(e.right, binding))
    child = e.child if isinstance(e, expr.Neg) else (
        e.base if isinstance(e, expr.Pow) else e.arg
    )
    return max(top, _magnitude(child, binding))


# numpy's exp, log and pow may differ from the math module in the last bit;
# where they appear, values agree within this many units of the largest
# subexpression magnitude
ARRAY_KERNEL_TOL = 1e-12


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_evaluate_many_matches_evaluate(seed):
    rng = np.random.default_rng(seed)
    names = ["x1", "x2", "u1"]
    e = random_expression(rng, names, depth=int(rng.integers(1, 6)))
    size = int(rng.integers(1, 30))
    columns = {name: rng.uniform(-2.0, 2.0, size) for name in names}
    for column in columns.values():  # exact zeros reach the division checks
        column[rng.random(size) < 0.2] = 0.0
    bindings = [{name: float(c[i]) for name, c in columns.items()} for i in range(size)]
    expected, first_error = [], None
    for i, binding in enumerate(bindings):
        try:
            expected.append(expr.evaluate(e, binding))
        except EvalError as err:
            first_error = first_error or (i, str(err))
    if first_error is not None:
        with pytest.raises(EvalError) as info:
            expr.evaluate_many(e, columns)
        assert (info.value.sample, info.value.reason) == first_error
        return
    values = expr.evaluate_many(e, columns)
    expected = np.array(expected)
    if _exact_ops_only(e):
        assert np.array_equal(values.view(np.uint64), expected.view(np.uint64))
        return
    scale = np.array([_magnitude(e, b) for b in bindings])
    assert np.all(np.abs(values - expected) <= ARRAY_KERNEL_TOL * (1.0 + scale))


@pytest.mark.parametrize(
    "source, bad, reason",
    [
        ("x1/u1", {"u1": 0.0}, "division by zero"),
        ("1/(1/u1)", {"u1": 0.0}, "division by zero"),
        ("x1^-1", {"x1": 0.0}, "zero raised to a negative power"),
        ("log(x1)", {"x1": 0.0}, "log of a non-positive value"),
        ("sqrt(x1)", {"x1": -1.0}, "sqrt of a negative value"),
        ("exp(x1)", {"x1": 1e9}, "exp left the real domain"),
        ("x1^3", {"x1": 1e200}, "power overflow"),
        ("x1*x1 - x1*x1", {"x1": 1e200}, "expression evaluated to a non-finite value"),
    ],
)
def test_evaluate_many_names_first_bad_sample(source, bad, reason):
    e = expr.parse(source)
    columns = {"x1": np.full(8, 1.5), "u1": np.full(8, 2.0)}
    for name, value in bad.items():
        columns[name][[3, 6]] = value
    with pytest.raises(EvalError) as info:
        expr.evaluate_many(e, columns)
    assert (info.value.sample, info.value.reason) == (3, reason)
    binding = {name: float(column[3]) for name, column in columns.items()}
    with pytest.raises(EvalError, match=reason):
        expr.evaluate(e, binding)
