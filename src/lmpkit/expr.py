"""Scalar expressions: parsing, evaluation, and exact symbolic differentiation.

Expressions are immutable ASTs over real literals, variables, the arithmetic
operators ``+ - * / ^`` (with integer exponents only, so differentiation is
closed over the grammar), unary minus, and the functions sin, cos, exp, log,
sqrt, abs.  The grammar (EBNF):

    expr    = term { ("+" | "-") term } ;
    term    = unary { ("*" | "/") unary } ;
    unary   = ("-" | "+") unary | power ;
    power   = atom { "^" [ "-" ] integer } ;
    atom    = number | variable | function "(" expr ")" | "(" expr ")" ;

Variables are ``x1..xn`` (state), ``u1..um`` (control), and the endpoint
values ``x0_1..x0_n`` / ``x1_1..x1_n`` used by terminal cost expressions.
Fractional powers are written via exp/log.

Evaluation never returns NaN or infinity: any excursion outside the reals
raises :class:`~lmpkit.errors.EvalError`.  The library evaluates only with
:func:`evaluate_table`, which takes a sequence of expressions over arrays of
sample points in one pass and names the first bad sample; the scalar
:func:`evaluate` is the reference the tests compare it against.  Expressions
are immutable after parsing, so evaluation is reentrant and thread-safe.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence, Union

import numpy as np

from .errors import EvalError, ParseError

__all__ = [
    "Const",
    "Var",
    "Neg",
    "Binary",
    "Pow",
    "Call",
    "Expression",
    "Scope",
    "parse",
    "evaluate",
    "evaluate_table",
    "differentiate",
    "free_variables",
    "to_source",
    "validate_scope",
    "classify_variable",
    "is_zero",
]

FUNCTIONS: dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "abs": abs,
}


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    child: "Expression"


@dataclass(frozen=True)
class Binary:
    op: str  # one of + - * /
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Pow:
    base: "Expression"
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expression"


Expression = Union[Const, Var, Neg, Binary, Pow, Call]

_VAR_PATTERNS = (
    ("start", re.compile(r"^x0_(\d+)$")),
    ("end", re.compile(r"^x1_(\d+)$")),
    ("state", re.compile(r"^x(\d+)$")),
    ("control", re.compile(r"^u(\d+)$")),
)


def classify_variable(name: str) -> tuple[str, int] | None:
    """Return (kind, 1-based index) for a variable name, or None."""
    for kind, pat in _VAR_PATTERNS:
        m = pat.match(name)
        if m:
            return kind, int(m.group(1))
    return None


@dataclass(frozen=True)
class Scope:
    """Declared variable ranges an expression may reference.

    ``endpoint=False`` admits x1..xn and u1..um; ``endpoint=True`` admits
    only the endpoint values x0_1..x0_n and x1_1..x1_n.
    """

    n: int
    m: int
    endpoint: bool = False

    def check(self, name: str, position: int) -> None:
        info = classify_variable(name)
        if info is None:
            raise ParseError(f"unknown identifier '{name}'", position)
        kind, index = info
        if index < 1:
            raise ParseError(f"variable index in '{name}' must be >= 1", position)
        if self.endpoint:
            if kind not in ("start", "end"):
                raise ParseError(
                    f"'{name}' is not an endpoint variable (expected x0_i or x1_i)",
                    position,
                )
            bound = self.n
        elif kind == "state":
            bound = self.n
        elif kind == "control":
            bound = self.m
        else:
            raise ParseError(
                f"endpoint variable '{name}' not allowed here", position
            )
        if index > bound:
            raise ParseError(
                f"variable index out of declared range: '{name}' (max {bound})",
                position,
            )


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)


def _tokenize(source: str) -> Iterator[tuple[str, str, int]]:
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", pos)
        pos = m.end()
        kind = m.lastgroup
        if kind != "ws":
            yield kind, m.group(), m.start()
    yield "eof", "", len(source)


class _Parser:
    def __init__(self, source: str, scope: Scope | None):
        self.tokens = list(_tokenize(source))
        self.index = 0
        self.scope = scope

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, text, pos = self.take()
        if kind != "op" or text != op:
            raise ParseError(f"expected '{op}'", pos)

    def parse(self) -> Expression:
        e = self.expr()
        kind, text, pos = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected token {text!r}", pos)
        return e

    def expr(self) -> Expression:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.take()
                node = Binary(text, node, self.term())
            else:
                return node

    def term(self) -> Expression:
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.take()
                node = Binary(text, node, self.unary())
            else:
                return node

    def unary(self) -> Expression:
        kind, text, _ = self.peek()
        if kind == "op" and text in "+-":
            self.take()
            child = self.unary()
            return Neg(child) if text == "-" else child
        return self.power()

    def power(self) -> Expression:
        node = self.atom()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text == "^":
                self.take()
                node = Pow(node, self.exponent())
            else:
                return node

    def exponent(self) -> int:
        sign = 1
        kind, text, pos = self.take()
        if kind == "op" and text == "-":
            sign = -1
            kind, text, pos = self.take()
        if kind != "num":
            raise ParseError("expected an integer exponent after '^'", pos)
        value = float(text)
        if not value.is_integer():
            raise ParseError("exponent must be an integer literal", pos)
        return sign * int(value)

    def atom(self) -> Expression:
        kind, text, pos = self.take()
        if kind == "num":
            return Const(float(text))
        if kind == "ident":
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            if self.scope is not None:
                self.scope.check(text, pos)
            else:
                info = classify_variable(text)
                if info is None:
                    raise ParseError(f"unknown identifier '{text}'", pos)
                if info[1] < 1:
                    raise ParseError(
                        f"variable index in '{text}' must be >= 1", pos
                    )
            return Var(text)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {text!r}", pos)


def parse(source: str, scope: Scope | None = None) -> Expression:
    """Parse expression text; with a scope, variable ranges are enforced."""
    if not source.strip():
        raise ParseError("empty expression", 0)
    return _Parser(source, scope).parse()


def validate_scope(e: Expression, scope: Scope) -> None:
    """Re-check an existing AST against declared variable ranges."""
    for name in sorted(free_variables(e)):
        scope.check(name, 0)


def free_variables(e: Expression) -> frozenset[str]:
    if isinstance(e, Const):
        return frozenset()
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Neg):
        return free_variables(e.child)
    if isinstance(e, Binary):
        return free_variables(e.left) | free_variables(e.right)
    if isinstance(e, Pow):
        return free_variables(e.base)
    return free_variables(e.arg)


def evaluate(e: Expression, binding: Mapping[str, float]) -> float:
    """Evaluate at a binding.  NaN or infinity is an error, not a value.
    The tests' reference for :func:`evaluate_table`; the library calls it nowhere."""
    value = _eval(e, binding)
    if not math.isfinite(value):
        raise EvalError("expression evaluated to a non-finite value")
    return value


def _eval(e: Expression, binding: Mapping[str, float]) -> float:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return float(binding[e.name])
        except KeyError:
            raise EvalError(f"unbound variable '{e.name}'") from None
    if isinstance(e, Neg):
        return -_eval(e.child, binding)
    if isinstance(e, Binary):
        a = _eval(e.left, binding)
        b = _eval(e.right, binding)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if b == 0.0:
            raise EvalError("division by zero")
        return a / b
    if isinstance(e, Pow):
        base = _eval(e.base, binding)
        if base == 0.0 and e.exponent < 0:
            raise EvalError("zero raised to a negative power")
        try:
            out = float(base**e.exponent)
        except OverflowError:
            raise EvalError("power overflow") from None
        if not math.isfinite(out):
            raise EvalError("power overflow")
        return out
    arg = _eval(e.arg, binding)
    if e.func == "log" and arg <= 0.0:
        raise EvalError("log of a non-positive value")
    if e.func == "sqrt" and arg < 0.0:
        raise EvalError("sqrt of a negative value")
    try:
        out = FUNCTIONS[e.func](arg)
    except (OverflowError, ValueError):
        raise EvalError(f"{e.func} left the real domain") from None
    if not math.isfinite(out):
        raise EvalError(f"{e.func} overflowed")
    return float(out)


# -- evaluation over arrays ----------------------------------------------------

_ARRAY_FUNCTIONS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
}

# Arguments for which the math module raises instead of returning a
# non-finite value; they get the "left the real domain" message.
_RAISING_ARGUMENT: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "exp": np.isfinite,
    "sin": np.isinf,
    "cos": np.isinf,
}


class _Faults:
    """The first failure of every sample, in evaluation order."""

    def __init__(self, size: int):
        self.size = size
        self.code: np.ndarray | None = None  # made at the first failure
        self.reasons = [""]

    def flag(self, bad: np.ndarray, reason: str) -> None:
        # np.count_nonzero, not .any(): this runs once per operation node
        if not np.count_nonzero(bad):
            return
        if self.code is None:
            self.code = np.zeros(self.size, dtype=np.intp)
        fresh = bad & (self.code == 0)
        if np.count_nonzero(fresh):
            self.reasons.append(reason)
            self.code[fresh] = len(self.reasons) - 1

    def raise_first(self) -> None:
        """Raise the failure of the lowest failing sample, if any."""
        if len(self.reasons) > 1:
            first = int(np.argmax(self.code != 0))
            raise EvalError(self.reasons[self.code[first]], sample=first)


_NON_FINITE = "expression evaluated to a non-finite value"


def evaluate_table(
    table: Sequence[Expression], columns: Mapping[str, np.ndarray], size: int
) -> np.ndarray:
    """Evaluate several expressions in one pass at ``size`` samples, given by
    columns of that length, one per variable the table names, into a
    (size, len(table)) array.

    Raises the EvalError of the lowest failing sample, with the reason
    :func:`evaluate` gives there; of the expressions failing there, the first
    in table order gives it.  An unbound variable raises at once.  + - * /
    and negation give evaluate's floats; powers and functions use numpy's
    kernels and may differ from the math module in the last bit.  Only
    compound expressions run the interpreter.
    """
    out = np.empty((size, len(table)))
    faults = _Faults(size)
    with np.errstate(all="ignore"):
        for j, e in enumerate(table):
            if isinstance(e, Const):
                out[:, j] = e.value
                if not math.isfinite(e.value):
                    faults.flag(np.ones(size, dtype=bool), _NON_FINITE)
                continue
            value = _eval_many(e, columns, faults)
            faults.flag(~np.isfinite(value), _NON_FINITE)
            out[:, j] = value
    faults.raise_first()
    return out


def _eval_many(e: Expression, columns, faults: _Faults) -> np.ndarray | np.float64:
    if isinstance(e, Const):
        # a numpy scalar, which broadcasts, and divides by 0.0 without raising
        return np.float64(e.value)
    if isinstance(e, Var):
        try:
            return np.asarray(columns[e.name], dtype=float)
        except KeyError:
            raise EvalError(f"unbound variable '{e.name}'") from None
    if isinstance(e, Neg):
        return -_eval_many(e.child, columns, faults)
    if isinstance(e, Binary):
        a = _eval_many(e.left, columns, faults)
        b = _eval_many(e.right, columns, faults)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        faults.flag(b == 0.0, "division by zero")
        return a / b
    if isinstance(e, Pow):
        base = _eval_many(e.base, columns, faults)
        if e.exponent < 0:
            faults.flag(base == 0.0, "zero raised to a negative power")
        out = np.power(base, float(e.exponent))
        faults.flag(~np.isfinite(out), "power overflow")
        return out
    arg = _eval_many(e.arg, columns, faults)
    if e.func == "log":
        faults.flag(arg <= 0.0, "log of a non-positive value")
    if e.func == "sqrt":
        faults.flag(arg < 0.0, "sqrt of a negative value")
    out = _ARRAY_FUNCTIONS[e.func](arg)
    bad = ~np.isfinite(out)
    raising = _RAISING_ARGUMENT.get(e.func)
    if raising is not None:
        faults.flag(bad & raising(arg), f"{e.func} left the real domain")
    faults.flag(bad, f"{e.func} overflowed")
    return out


# -- differentiation ---------------------------------------------------------
#
# Smart constructors fold only exact identities (0 and 1 absorption, constant
# arithmetic); no canonicalisation beyond that is attempted.


def _const(v: float) -> Const:
    return Const(float(v))


_ZERO = _const(0.0)
_ONE = _const(1.0)


def _is_const(e: Expression, v: float) -> bool:
    return isinstance(e, Const) and e.value == v


def is_zero(e: Expression) -> bool:
    """Structural zero test (a literal 0), used for pure-state-constraint checks."""
    return _is_const(e, 0.0)


def _add(a: Expression, b: Expression) -> Expression:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return _const(a.value + b.value)
    return Binary("+", a, b)


def _sub(a: Expression, b: Expression) -> Expression:
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return _const(a.value - b.value)
    return Binary("-", a, b)


def _neg(a: Expression) -> Expression:
    if isinstance(a, Const):
        return _const(-a.value)
    if isinstance(a, Neg):
        return a.child
    return Neg(a)


def _mul(a: Expression, b: Expression) -> Expression:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return _const(a.value * b.value)
    return Binary("*", a, b)


def _div(a: Expression, b: Expression) -> Expression:
    if _is_const(a, 0.0):
        return _ZERO
    if _is_const(b, 1.0):
        return a
    return Binary("/", a, b)


def _pow(base: Expression, exponent: int) -> Expression:
    if exponent == 0:
        return _ONE
    if exponent == 1:
        return base
    return Pow(base, exponent)


def differentiate(e: Expression, var: str) -> Expression:
    """Exact derivative with respect to a variable name.

    Closed over the grammar: the result is again an Expression on the same
    variable set.  abs differentiates to arg/abs(arg) times the inner
    derivative, so evaluating it at a zero of the argument raises the same
    domain error a division by zero would.
    """
    if isinstance(e, Const):
        return _ZERO
    if isinstance(e, Var):
        return _ONE if e.name == var else _ZERO
    if isinstance(e, Neg):
        return _neg(differentiate(e.child, var))
    if isinstance(e, Binary):
        da = differentiate(e.left, var)
        db = differentiate(e.right, var)
        if e.op == "+":
            return _add(da, db)
        if e.op == "-":
            return _sub(da, db)
        if e.op == "*":
            return _add(_mul(da, e.right), _mul(e.left, db))
        numer = _sub(_mul(da, e.right), _mul(e.left, db))
        return _div(numer, _pow(e.right, 2))
    if isinstance(e, Pow):
        inner = differentiate(e.base, var)
        if e.exponent == 0:
            return _ZERO
        factor = _mul(_const(e.exponent), _pow(e.base, e.exponent - 1))
        return _mul(factor, inner)
    inner = differentiate(e.arg, var)
    a = e.arg
    if e.func == "sin":
        outer: Expression = Call("cos", a)
    elif e.func == "cos":
        outer = _neg(Call("sin", a))
    elif e.func == "exp":
        outer = Call("exp", a)
    elif e.func == "log":
        outer = _div(_ONE, a)
    elif e.func == "sqrt":
        outer = _div(_ONE, _mul(_const(2.0), Call("sqrt", a)))
    else:  # abs
        outer = _div(a, Call("abs", a))
    return _mul(outer, inner)


# -- printing ----------------------------------------------------------------

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5


def _format_number(v: float) -> str:
    if v.is_integer() and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _render(e: Expression) -> tuple[str, int]:
    if isinstance(e, Const):
        text = _format_number(e.value)
        return text, (_PREC_NEG if e.value < 0 else _PREC_ATOM)
    if isinstance(e, Var):
        return e.name, _PREC_ATOM
    if isinstance(e, Neg):
        return "-" + _wrap(e.child, _PREC_NEG), _PREC_NEG
    if isinstance(e, Binary):
        if e.op in "+-":
            left = _wrap(e.left, _PREC_ADD)
            right = _wrap(e.right, _PREC_ADD + 1)
            return f"{left} {e.op} {right}", _PREC_ADD
        left = _wrap(e.left, _PREC_MUL)
        right = _wrap(e.right, _PREC_MUL + 1)
        return f"{left}{e.op}{right}", _PREC_MUL
    if isinstance(e, Pow):
        base = _wrap(e.base, _PREC_ATOM)
        return f"{base}^{e.exponent}", _PREC_POW
    arg, _ = _render(e.arg)
    return f"{e.func}({arg})", _PREC_ATOM


def _wrap(e: Expression, minimum: int) -> str:
    text, prec = _render(e)
    if prec < minimum:
        return f"({text})"
    return text


def to_source(e: Expression) -> str:
    """Print to grammar text; print-parse-print is idempotent."""
    return _render(e)[0]
