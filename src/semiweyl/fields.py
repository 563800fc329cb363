"""Charts and pointwise jet-evaluable tensor fields.

Every field is a function from a chart point to an object array of jets of
a requested order.  Expression-backed fields are the common case; derived
fields (duals, induced connections, transformed structures) are closures
over other fields, so derivative information flows through every
construction without symbolic matrix algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expressions import Expression, Num, eval_jet, parse_expression
from .jets import Jet, constant_jets

__all__ = [
    "Chart",
    "DegeneratePointError",
    "ScalarField",
    "OneFormField",
    "VectorField",
    "MetricField",
    "ConnectionField",
    "eta_tensor_id",
    "id_tensor_eta",
    "g_tensor_vector",
    "negate_tensor",
    "sum_tensors",
]


class DegeneratePointError(ArithmeticError):
    """Metric (or frame) degenerate at the sample point."""


@dataclass(frozen=True)
class Chart:
    """A single coordinate chart: names plus an open sample-domain box."""

    coord_names: tuple
    lo: tuple
    hi: tuple

    def __post_init__(self):
        if len(self.coord_names) < 1:
            raise ValueError("chart dimension must be >= 1")
        if not (len(self.lo) == len(self.hi) == len(self.coord_names)):
            raise ValueError("domain box must match chart dimension")
        if any(l >= h for l, h in zip(self.lo, self.hi)):
            raise ValueError("domain box must have lo < hi componentwise")

    @property
    def dim(self):
        return len(self.coord_names)

    def center(self):
        return np.array([(l + h) / 2.0 for l, h in zip(self.lo, self.hi)])

    def parse(self, text):
        return parse_expression(text, self.coord_names)


class _Field:
    """Base: wraps ``fn(point, order) -> object array of jets``."""

    shape_rank = 0

    def __init__(self, chart, fn, expressions=None):
        self.chart = chart
        self._fn = fn
        self.expressions = expressions  # AST grid when expression-backed

    def jet(self, p, order):
        return self._fn(np.asarray(p, dtype=float), order)

    def value(self, p):
        out = self.jet(p, 0)
        if isinstance(out, Jet):
            return out.value
        vals = np.empty(out.shape, dtype=float)
        for idx in np.ndindex(out.shape):
            vals[idx] = out[idx].value
        return vals


def _expr_of(item, chart):
    if isinstance(item, Expression):
        return item
    if isinstance(item, str):
        return chart.parse(item)
    return Num(float(item))


class ScalarField(_Field):
    @classmethod
    def from_expression(cls, chart, expr):
        e = _expr_of(expr, chart)
        return cls(chart, lambda p, order: eval_jet(e, p, order, dim=chart.dim), expressions=e)

    @classmethod
    def zero(cls, chart):
        return cls.from_expression(chart, Num(0.0))


class OneFormField(_Field):
    @classmethod
    def from_expressions(cls, chart, comps):
        es = [_expr_of(c, chart) for c in comps]
        if len(es) != chart.dim:
            raise ValueError("one-form needs one component per coordinate")

        def fn(p, order):
            out = np.empty(chart.dim, dtype=object)
            for i, e in enumerate(es):
                out[i] = eval_jet(e, p, order, dim=chart.dim)
            return out

        return cls(chart, fn, expressions=es)

    @classmethod
    def zero(cls, chart):
        return cls.from_expressions(chart, [Num(0.0)] * chart.dim)

    @classmethod
    def d(cls, chart, phi: ScalarField):
        """Exterior derivative of a scalar field."""

        def fn(p, order):
            j = phi.jet(p, order + 1)
            out = np.empty(chart.dim, dtype=object)
            for i in range(chart.dim):
                out[i] = j.partial(i)
            return out

        return cls(chart, fn)

    def is_zero(self):
        if self.expressions is None:
            return False
        return all(isinstance(e, Num) and e.value == 0.0 for e in self.expressions)


class VectorField(_Field):
    @classmethod
    def from_expressions(cls, chart, comps):
        es = [_expr_of(c, chart) for c in comps]

        def fn(p, order):
            out = np.empty(chart.dim, dtype=object)
            for i, e in enumerate(es):
                out[i] = eval_jet(e, p, order, dim=chart.dim)
            return out

        return cls(chart, fn, expressions=es)


class MetricField(_Field):
    @classmethod
    def from_expressions(cls, chart, grid):
        n = chart.dim
        es = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                e = _expr_of(grid[i][j], chart)
                upper = _expr_of(grid[j][i], chart)
                if str(upper) != str(e):
                    raise ValueError(f"metric components ({i},{j}) and ({j},{i}) differ")
                # shared node keeps g symmetric bitwise under evaluation
                es[i][j] = es[j][i] = e

        def fn(p, order):
            out = np.empty((n, n), dtype=object)
            for i in range(n):
                for j in range(i, n):
                    out[i, j] = out[j, i] = eval_jet(es[i][j], p, order, dim=n)
            return out

        return cls(chart, fn, expressions=es)

    @classmethod
    def from_diagonal(cls, chart, diag):
        n = chart.dim
        grid = [[diag[i] if i == j else Num(0.0) for j in range(n)] for i in range(n)]
        return cls.from_expressions(chart, grid)

    @classmethod
    def euclidean(cls, chart):
        return cls.from_diagonal(chart, [Num(1.0)] * chart.dim)

    def scaled(self, factor: ScalarField):
        """Pointwise conformal scaling ``e -> factor * g`` (factor a scalar field)."""

        def fn(p, order):
            G = self.jet(p, order)
            f = factor.jet(p, order)
            n = self.chart.dim
            out = np.empty((n, n), dtype=object)
            for i in range(n):
                for j in range(i, n):
                    out[i, j] = out[j, i] = f * G[i, j]
            return out

        return MetricField(self.chart, fn)


class ConnectionField(_Field):
    """Coefficients ``gamma[k, i, j]`` of ``nabla_{d_i} d_j = gamma^k_{ij} d_k``."""

    @classmethod
    def from_expressions(cls, chart, grid):
        n = chart.dim
        es = [[[_expr_of(grid[k][i][j], chart) for j in range(n)] for i in range(n)] for k in range(n)]

        def fn(p, order):
            out = np.empty((n, n, n), dtype=object)
            for k in range(n):
                for i in range(n):
                    for j in range(n):
                        out[k, i, j] = eval_jet(es[k][i][j], p, order, dim=n)
            return out

        return cls(chart, fn, expressions=es)

    @classmethod
    def flat(cls, chart):
        n = chart.dim

        def fn(p, order):
            return constant_jets(np.zeros((n, n, n)), n, order)

        return cls(chart, fn)

    def add_tensor(self, tensor_fn):
        """Connection plus a (1,2) difference tensor.

        ``tensor_fn(p, order)`` must return a (k, i, j) object array of jets.
        """

        def fn(p, order):
            G = self.jet(p, order)
            K = tensor_fn(p, order)
            n = self.chart.dim
            out = np.empty((n, n, n), dtype=object)
            for idx in np.ndindex((n, n, n)):
                out[idx] = G[idx] + K[idx]
            return out

        return ConnectionField(self.chart, fn)


# -- difference-tensor constructors -------------------------------------------
#
# The recurring connection modifications all have the shape of a (1,2)
# tensor added to a base connection.


def eta_tensor_id(chart, eta: OneFormField):
    """``K^k_{ij} = eta_i delta^k_j`` (the ``eta (x) I`` shape)."""
    n = chart.dim

    def fn(p, order):
        ej = eta.jet(p, order)
        zero = Jet.constant(0.0, n, order)
        out = np.empty((n, n, n), dtype=object)
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    out[k, i, j] = ej[i] if k == j else zero
        return out

    return fn


def id_tensor_eta(chart, eta: OneFormField):
    """``K^k_{ij} = delta^k_i eta_j`` (the ``I (x) d phi`` shape)."""
    n = chart.dim

    def fn(p, order):
        ej = eta.jet(p, order)
        zero = Jet.constant(0.0, n, order)
        out = np.empty((n, n, n), dtype=object)
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    out[k, i, j] = ej[j] if k == i else zero
        return out

    return fn


def g_tensor_vector(g: MetricField, V: VectorField):
    """``K^k_{ij} = g_ij V^k`` (the ``g (x) V`` shape)."""
    n = g.chart.dim

    def fn(p, order):
        G = g.jet(p, order)
        Vj = V.jet(p, order)
        out = np.empty((n, n, n), dtype=object)
        for i in range(n):
            for j in range(n):
                gij = G[i, j]
                for k in range(n):
                    out[k, i, j] = gij * Vj[k]
        return out

    return fn


def negate_tensor(tensor_fn):
    def fn(p, order):
        K = tensor_fn(p, order)
        out = np.empty(K.shape, dtype=object)
        for idx in np.ndindex(K.shape):
            out[idx] = -K[idx]
        return out

    return fn


def sum_tensors(*tensor_fns):
    def fn(p, order):
        parts = [t(p, order) for t in tensor_fns]
        out = np.empty(parts[0].shape, dtype=object)
        for idx in np.ndindex(parts[0].shape):
            acc = parts[0][idx]
            for q in parts[1:]:
                acc = acc + q[idx]
            out[idx] = acc
        return out

    return fn
