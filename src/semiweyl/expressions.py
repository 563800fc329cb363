"""Closed-form coordinate expressions: parsing, printing and jet
evaluation.  Derivatives come from evaluating an expression on coordinate
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
    def __init__(self, name, position=None):
        where = "" if position is None else f" (at offset {position})"
        super().__init__(f"unknown symbol {name!r}{where}")
        self.name = name


class Expression:
    """Immutable AST node; subclasses implement jet evaluation and printing."""

    def jet(self, coord_jets):
        raise NotImplementedError

    def __str__(self):
        return self._print(0)

    def _print(self, prec):
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self})"

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self):
        return hash((type(self).__name__, self._key()))


@dataclass(frozen=True, eq=False)
class Num(Expression):
    value: float

    def jet(self, coord_jets):
        probe = coord_jets[0]
        return Jet.constant(self.value, probe.n, probe.order)

    def _print(self, prec):
        v = self.value
        if v == int(v) and abs(v) < 1e15:
            s = str(int(v))
        else:
            s = repr(v)
        if v < 0 and prec > 0:
            return f"({s})"
        return s

    def _key(self):
        return (self.value,)


@dataclass(frozen=True, eq=False)
class Var(Expression):
    index: int
    name: str

    def jet(self, coord_jets):
        return coord_jets[self.index]

    def _print(self, prec):
        return self.name

    def _key(self):
        return (self.index, self.name)


@dataclass(frozen=True, eq=False)
class Add(Expression):
    a: Expression
    b: Expression

    def jet(self, coord_jets):
        return self.a.jet(coord_jets) + self.b.jet(coord_jets)

    def _print(self, prec):
        s = f"{self.a._print(1)} + {self.b._print(1)}"
        return f"({s})" if prec > 1 else s

    def _key(self):
        return (self.a, self.b)


@dataclass(frozen=True, eq=False)
class Sub(Expression):
    a: Expression
    b: Expression

    def jet(self, coord_jets):
        return self.a.jet(coord_jets) - self.b.jet(coord_jets)

    def _print(self, prec):
        s = f"{self.a._print(1)} - {self.b._print(2)}"
        return f"({s})" if prec > 1 else s

    def _key(self):
        return (self.a, self.b)


@dataclass(frozen=True, eq=False)
class Mul(Expression):
    a: Expression
    b: Expression

    def jet(self, coord_jets):
        return self.a.jet(coord_jets) * self.b.jet(coord_jets)

    def _print(self, prec):
        s = f"{self.a._print(2)}*{self.b._print(2)}"
        return f"({s})" if prec > 2 else s

    def _key(self):
        return (self.a, self.b)


@dataclass(frozen=True, eq=False)
class Div(Expression):
    a: Expression
    b: Expression

    def jet(self, coord_jets):
        return self.a.jet(coord_jets) / self.b.jet(coord_jets)

    def _print(self, prec):
        s = f"{self.a._print(2)}/{self.b._print(3)}"
        return f"({s})" if prec > 2 else s

    def _key(self):
        return (self.a, self.b)


@dataclass(frozen=True, eq=False)
class Neg(Expression):
    a: Expression

    def jet(self, coord_jets):
        return -self.a.jet(coord_jets)

    def _print(self, prec):
        s = f"-{self.a._print(3)}"
        return f"({s})" if prec > 1 else s

    def _key(self):
        return (self.a,)


@dataclass(frozen=True, eq=False)
class Pow(Expression):
    base: Expression
    exponent: int

    def jet(self, coord_jets):
        return self.base.jet(coord_jets) ** self.exponent

    def _print(self, prec):
        e = self.exponent
        es = str(e) if e >= 0 else f"({e})"
        s = f"{self.base._print(4)}^{es}"
        return f"({s})" if prec > 3 else s

    def _key(self):
        return (self.base, self.exponent)


@dataclass(frozen=True, eq=False)
class Func(Expression):
    name: str
    arg: Expression

    def jet(self, coord_jets):
        j = self.arg.jet(coord_jets)
        return getattr(j, self.name)()

    def _print(self, prec):
        return f"{self.name}({self.arg._print(0)})"

    def _key(self):
        return (self.name, self.arg)


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


def _coordinate_jets(point, order, dim):
    point = np.asarray(point, dtype=float)
    n = dim if dim is not None else point.shape[0]
    return [Jet.coordinate(point[i], i, n, order) for i in range(n)]


def _checked(j):
    if not j.is_finite():
        raise EvaluationDomainError("non-finite value in expression evaluation")
    return j


# Overflow and invalid operations raise no numpy warning while an expression
# is evaluated: a non-finite layer raises EvaluationDomainError instead.
_QUIET = dict(over="ignore", invalid="ignore")


def eval_jet(e, point, order, dim=None):
    """Evaluate ``e`` and its partials up to ``order`` at ``point``."""
    with np.errstate(**_QUIET):
        return _checked(e.jet(_coordinate_jets(point, order, dim)))


def eval_jets(exprs, point, order, dim=None):
    """Jets of the expressions ``exprs`` at ``point``, stacked on a new
    first axis; an expression object listed more than once is evaluated
    once."""
    coords = _coordinate_jets(point, order, dim)
    done = {}
    with np.errstate(**_QUIET):
        for e in exprs:
            if id(e) not in done:
                done[id(e)] = _checked(e.jet(coords))
    return jet_stack([done[id(e)] for e in exprs])


def eval_value(e, point, dim=None):
    return eval_jet(e, point, 0, dim=dim).value


def finite_difference(e, point, coord, h):
    """Central difference ``(e(p + h e_i) - e(p - h e_i)) / 2h``."""
    point = np.asarray(point, dtype=float)
    pp = point.copy()
    pm = point.copy()
    pp[coord] += h
    pm[coord] -= h
    return (eval_value(e, pp) - eval_value(e, pm)) / (2.0 * h)
