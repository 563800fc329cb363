"""Closed-form coordinate expressions: parsing and jet evaluation.

An expression is a tree of :class:`Expression` nodes: ``Expression(op,
*args)`` evaluates to ``op`` applied to the jets of its operands, so each
derivative rule is the one :class:`~semiweyl.jets.Jet` operator ``op``
already implements.  The leaves are a constant :class:`Num` and a
coordinate :class:`Var`.  The parser takes each ``op`` from two tables:
:data:`BINARY` for ``+ - * /`` and :data:`FUNCTIONS` for the function
names; ``-x`` is :func:`operator.neg` and ``x^k`` raises its base to the
integer ``k``.  Derivatives come from evaluating an expression on
coordinate jets (:mod:`semiweyl.jets`).

Grammar (EBNF)::

    expr    = term { ("+" | "-") term } ;
    term    = unary { ("*" | "/") unary } ;
    unary   = "-" unary | power ;
    power   = atom [ "^" [ "-" ] ( integer | "(" [ "-" ] integer ")" ) ] ;
    atom    = number | identifier | identifier "(" expr ")" | "(" expr ")" ;

Identifiers are coordinate names; the recognized functions are ``exp``,
``log``, ``sin``, ``cos`` and ``sqrt``.  Exponents are integer literals.
"""

from __future__ import annotations

import math
import operator
import re

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
    "BINARY",
    "FUNCTIONS",
]

BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
FUNCTIONS = {name: getattr(Jet, name) for name in ("exp", "log", "sin", "cos", "sqrt")}


class ExpressionSyntaxError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UnknownSymbolError(ValueError):
    def __init__(self, name, position):
        super().__init__(f"unknown symbol {name!r} (at offset {position})")
        self.name = name


class Expression:
    """A node: ``op`` of the jets of the operand nodes ``args``.  Nodes are
    never changed after they are built, and compare by identity."""

    def __init__(self, op, *args):
        self.op = op
        self.args = args

    def jet(self, coord_jets):
        args = [a.jet(coord_jets) for a in self.args]
        if not any(isinstance(a, Jet) for a in args):
            # an operation on numbers alone takes them as constant jets, and
            # raises (or not) as it does on jets
            probe = coord_jets[0]
            args[0] = Jet.constant(args[0], probe.n, probe.order)
        return self.op(*args)


class Num(Expression):
    """The constant ``value``, whose jet is the float itself."""

    def __init__(self, value):
        self.value = value

    def jet(self, coord_jets):
        return self.value


class Var(Expression):
    """The coordinate of index ``index``."""

    def __init__(self, index):
        self.index = index

    def jet(self, coord_jets):
        return coord_jets[self.index]


# -- parser -------------------------------------------------------------------

# one token: a number, a name, an operator, or any other character (an error)
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()])|(?P<bad>\S))"
)


class _Parser:
    def __init__(self, text, coord_names):
        self.text = text
        self.coord_names = list(coord_names)
        self.tokens = []
        pos = 0
        while m := _TOKEN_RE.match(text, pos):
            kind = m.lastgroup
            if kind == "bad":
                raise ExpressionSyntaxError(f"unexpected character {m[kind]!r}", m.start(kind))
            self.tokens.append((kind, m[kind], m.start(kind)))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def take(self, ops):
        """The next token if it is one of the operators ``ops``, taken; else
        ``None``, taking nothing."""
        kind, val, _ = self.peek()
        if kind == "op" and val in ops:
            self.i += 1
            return val
        return None

    def expect_op(self, op):
        if not self.take(op):
            raise ExpressionSyntaxError(f"expected {op!r}", self.peek()[2])

    def parse(self):
        e = self.expr()
        kind, val, pos = self.peek()
        if kind is not None:
            raise ExpressionSyntaxError(f"unexpected token {val!r}", pos)
        return e

    def expr(self):
        e = self.term()
        while op := self.take("+-"):
            e = Expression(BINARY[op], e, self.term())
        return e

    def term(self):
        e = self.unary()
        while op := self.take("*/"):
            e = Expression(BINARY[op], e, self.unary())
        return e

    def unary(self):
        if self.take("-"):
            return Expression(operator.neg, self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if not self.take("^"):
            return base
        sign = -1 if self.take("-") else 1
        paren = self.take("(")
        if paren and self.take("-"):
            sign = -sign
        kind, val, pos = self.next()
        if kind != "num" or not val.isdigit():
            raise ExpressionSyntaxError("integer exponent expected", pos)
        if paren:
            self.expect_op(")")
        k = sign * int(val)
        return Expression(lambda j: j**k, base)

    def atom(self):
        if self.take("("):
            e = self.expr()
            self.expect_op(")")
            return e
        kind, val, pos = self.next()
        if kind == "num":
            return Num(float(val))
        if kind == "name":
            if self.take("("):
                if val not in FUNCTIONS:
                    raise UnknownSymbolError(val, pos)
                arg = self.expr()
                self.expect_op(")")
                return Expression(FUNCTIONS[val], arg)
            if val in self.coord_names:
                return Var(self.coord_names.index(val))
            raise UnknownSymbolError(val, pos)
        raise ExpressionSyntaxError(
            "unexpected end of input" if kind is None else f"unexpected token {val!r}", pos
        )


def parse_expression(text, coord_names):
    """Parse ``text`` over the given coordinate names into an AST."""
    return _Parser(text, coord_names).parse()


def _coordinate_jets(points, order):
    """The coordinate jets at a point ``(n,)``, or at a point set ``(P, n)``
    with the points on a leading batch axis, the innermost in memory."""
    points = np.asfortranarray(points, dtype=float)
    n = points.shape[-1]
    return [Jet.coordinate(x, i, n, order) for i, x in enumerate(points.T)]


def _checked(j):
    if not (j.is_finite() if isinstance(j, Jet) else math.isfinite(j)):
        raise EvaluationDomainError("non-finite value in expression evaluation", None)
    return j


# Overflow and invalid operations raise no numpy warning while an expression
# is evaluated: a non-finite layer raises EvaluationDomainError instead.
_QUIET = dict(over="ignore", invalid="ignore")


def eval_jet(e, point, order):
    """Evaluate ``e`` and its partials up to ``order`` at ``point``."""
    coords = _coordinate_jets(point, order)
    with np.errstate(**_QUIET):
        j = _checked(e.jet(coords))
    return j if isinstance(j, Jet) else Jet.constant(j, coords[0].n, order)


def eval_jets(exprs, points, order):
    """Jets of the expressions ``exprs`` at a point ``(n,)``, stacked on a
    new first axis, or on a point set ``(P, n)``, of tensor shape ``(P,
    len(exprs))`` with constants broadcast; an expression object listed
    more than once is evaluated once.  A set raises only from a domain
    check; a row that is not finite is for its reader to raise."""
    coords = _coordinate_jets(points, order)
    x = coords[0]  # a constant takes its shapes and layout
    batch = x.shape
    done = {}
    with np.errstate(**_QUIET):
        for e in exprs:
            if id(e) not in done:
                j = e.jet(coords)
                if not batch:
                    j = _checked(j)
                if not isinstance(j, Jet) or j.shape != batch:  # a constant
                    c = j.layers if isinstance(j, Jet) else [j]
                    j = Jet(x.n, [np.zeros_like(L) + (c[r] if r < len(c) else 0.0) for r, L in enumerate(x.layers)])
                done[id(e)] = j
    return jet_stack([done[id(e)] for e in exprs], axis=len(batch))

