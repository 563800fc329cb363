"""Closed-form coordinate expressions: parsing and jet evaluation.  Derivatives come from evaluating an expression on coordinate
jets (:mod:`semiweyl.jets`); :func:`finite_difference` is the independent
central-difference oracle for them.

Grammar (EBNF)::

    expr    = term { ("+" | "-") term } ;
    term    = unary { ("*" | "/") unary } ;
    unary   = "-" unary | power ;
    power   = atom [ "^" [ "-" ] integer ] ;
    atom    = number | identifier | identifier "(" expr ")" | "(" expr ")" ;

Identifiers are coordinate names; the recognized functions are ``exp``,
``log``, ``sin``, ``cos`` and ``sqrt``.  Exponents are integer literals.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .jets import EvaluationDomainError, Jet, jet_stack

__all__ = [
    "Expression",
    "Num",
    "Var",
    "ExpressionSyntaxError",
    "UnknownSymbolError",
    "parse_expression",
    "eval_jet",
    "eval_jets",
    "eval_value",
    "finite_difference",
    "FUNCTIONS",
]

FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt")


class ExpressionSyntaxError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UnknownSymbolError(ValueError):
    def __init__(self, name, position):
        super().__init__(f"unknown symbol {name!r} (at offset {position})")
        self.name = name


class Expression:
    """Immutable AST node; subclasses implement jet evaluation."""

    def jet(self, coord_jets):
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class Num(Expression):
    value: float

    def jet(self, coord_jets):
        probe = coord_jets[0]
        return Jet.constant(self.value, probe.n, probe.order)


@dataclass(frozen=True, eq=False)
class Var(Expression):
    index: int
    name: str

    def jet(self, coord_jets):
        return coord_jets[self.index]


@dataclass(frozen=True, eq=False)
class Add(Expression):
    a: Expression
    b: Expression

    def jet(self, coord_jets):
        return self.a.jet(coord_jets) + self.b.jet(coord_jets)


@dataclass(frozen=True, eq=False)
class Sub(Expression):
    a: Expression
    b: Expression

    def jet(self, coord_jets):
        return self.a.jet(coord_jets) - self.b.jet(coord_jets)


@dataclass(frozen=True, eq=False)
class Mul(Expression):
    a: Expression
    b: Expression

    def jet(self, coord_jets):
        return self.a.jet(coord_jets) * self.b.jet(coord_jets)


@dataclass(frozen=True, eq=False)
class Div(Expression):
    a: Expression
    b: Expression

    def jet(self, coord_jets):
        return self.a.jet(coord_jets) / self.b.jet(coord_jets)


@dataclass(frozen=True, eq=False)
class Neg(Expression):
    a: Expression

    def jet(self, coord_jets):
        return -self.a.jet(coord_jets)


@dataclass(frozen=True, eq=False)
class Pow(Expression):
    base: Expression
    exponent: int

    def jet(self, coord_jets):
        return self.base.jet(coord_jets) ** self.exponent


@dataclass(frozen=True, eq=False)
class Func(Expression):
    name: str
    arg: Expression

    def jet(self, coord_jets):
        j = self.arg.jet(coord_jets)
        return getattr(j, self.name)()


# -- parser -------------------------------------------------------------------

_NUM_RE = re.compile(r"(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?")


class _Parser:
    def __init__(self, text, coord_names):
        self.text = text
        self.coord_names = list(coord_names)
        self.tokens = []
        pos = 0
        while pos < len(text):
            if text[pos].isspace():
                pos += 1
                continue
            m = _NUM_RE.match(text, pos)
            if m:
                self.tokens.append(("num", m.group(0), pos))
                pos = m.end()
                continue
            m = re.match(r"[A-Za-z_][A-Za-z_0-9]*", text[pos:])
            if m:
                self.tokens.append(("name", m.group(0), pos))
                pos += m.end()
                continue
            if text[pos] in "+-*/^()":
                self.tokens.append(("op", text[pos], pos))
                pos += 1
                continue
            raise ExpressionSyntaxError(f"unexpected character {text[pos]!r}", pos)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ExpressionSyntaxError(f"expected {op!r}", pos)
        self.next()

    def parse(self):
        e = self.expr()
        kind, val, pos = self.peek()
        if kind is not None:
            raise ExpressionSyntaxError(f"unexpected token {val!r}", pos)
        return e

    def expr(self):
        e = self.term()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                e = Add(e, rhs) if val == "+" else Sub(e, rhs)
            else:
                return e

    def term(self):
        e = self.unary()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.unary()
                e = Mul(e, rhs) if val == "*" else Div(e, rhs)
            else:
                return e

    def unary(self):
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            sign = 1
            kind, val, pos = self.peek()
            if kind == "op" and val == "-":
                self.next()
                sign = -1
                kind, val, pos = self.peek()
            if kind == "op" and val == "(":
                self.next()
                kind, val, pos = self.peek()
                if kind == "op" and val == "-":
                    self.next()
                    sign = -sign
                    kind, val, pos = self.peek()
                if kind != "num" or "." in val or "e" in val.lower():
                    raise ExpressionSyntaxError("integer exponent expected", pos)
                self.next()
                k = sign * int(val)
                self.expect_op(")")
                return Pow(base, k)
            if kind != "num" or "." in val or "e" in val.lower():
                raise ExpressionSyntaxError("integer exponent expected", pos)
            self.next()
            return Pow(base, sign * int(val))
        return base

    def atom(self):
        kind, val, pos = self.next()
        if kind == "num":
            return Num(float(val))
        if kind == "name":
            nkind, nval, npos = self.peek()
            if nkind == "op" and nval == "(":
                if val not in FUNCTIONS:
                    raise UnknownSymbolError(val, pos)
                self.next()
                arg = self.expr()
                self.expect_op(")")
                return Func(val, arg)
            if val in self.coord_names:
                return Var(self.coord_names.index(val), val)
            raise UnknownSymbolError(val, pos)
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ExpressionSyntaxError(
            "unexpected end of input" if kind is None else f"unexpected token {val!r}", pos
        )


def parse_expression(text, coord_names):
    """Parse ``text`` over the given coordinate names into an AST."""
    return _Parser(text, coord_names).parse()


def _coordinate_jets(points, order):
    """The coordinate jets at a point ``(n,)``, or at a point set ``(P, n)``
    with the points on a leading batch axis."""
    points = np.asarray(points, dtype=float)
    n = points.shape[-1]
    return [Jet.coordinate(x, i, n, order) for i, x in enumerate(points.T)]


def _checked(j):
    if not j.is_finite():
        raise EvaluationDomainError("non-finite value in expression evaluation")
    return j


# Overflow and invalid operations raise no numpy warning while an expression
# is evaluated: a non-finite layer raises EvaluationDomainError instead.
_QUIET = dict(over="ignore", invalid="ignore")


def eval_jet(e, point, order):
    """Evaluate ``e`` and its partials up to ``order`` at ``point``."""
    with np.errstate(**_QUIET):
        return _checked(e.jet(_coordinate_jets(point, order)))


def eval_jets(exprs, points, order):
    """Jets of the expressions ``exprs`` at a point ``(n,)``, stacked on a
    new first axis, or on a point set ``(P, n)``, of tensor shape ``(P,
    len(exprs))`` with constants broadcast; an expression object listed
    more than once is evaluated once.  A set raises only from a domain
    check; a row that is not finite is for its reader to raise."""
    coords = _coordinate_jets(points, order)
    batch = np.shape(points)[:-1]
    done = {}
    with np.errstate(**_QUIET):
        for e in exprs:
            if id(e) not in done:
                j = e.jet(coords)
                if not batch:
                    j = _checked(j)
                elif j.shape != batch:
                    j = Jet(j.n, [np.broadcast_to(L, batch + np.shape(L)) for L in j.layers])
                done[id(e)] = j
    return jet_stack([done[id(e)] for e in exprs], axis=len(batch))


def eval_value(e, point):
    return eval_jet(e, point, 0).value


def finite_difference(e, point, coord, h):
    """Central difference ``(e(p + h e_i) - e(p - h e_i)) / 2h``."""
    point = np.asarray(point, dtype=float)
    pp = point.copy()
    pm = point.copy()
    pp[coord] += h
    pm[coord] -= h
    return (eval_value(e, pp) - eval_value(e, pm)) / (2.0 * h)
