"""Charts and pointwise jet-evaluable tensor fields.

Every field is a function from a chart point to a dense
:class:`~semiweyl.jets.Jet` of a requested order, whose tensor shape is the
field's components (``()`` for a scalar field, ``(n, n)`` for a metric).
Expression-backed fields evaluate their component expressions into one
jet (:func:`~semiweyl.expressions.eval_jets`); derived fields (duals,
induced connections, transformed structures) are closures over other
fields, so derivative information flows through every construction
without symbolic matrix algebra.  Derived fields combine jets with
:func:`~semiweyl.jets.jet_einsum` (contractions and outer products),
:func:`~semiweyl.jets.partials` (coordinate derivatives) and jet
arithmetic (``G + K``, ``-K``, ``G * f``).

Three rules share work.  Each field keeps its results at the most recent
point, one per order, so the laws asking a field for one point build its
chain once; they are shared, hence read-only, and a field's ``fn`` may
depend on nothing but ``(p, order)``.  An owner keeps what is derived
from it (:func:`kept`), so each derived structure, frame and predicate
verdict of a spec is one Python object, built once.  And an expression
field asked at a point of the sample set of a running pass
(:func:`sample_set`) evaluates on the whole set at once; the set keeps
that batch for the pass, at the highest order asked.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import wraps

import numpy as np

from .expressions import Expression, Num, _checked, eval_jets, parse_expression
from .jets import EvaluationDomainError, Jet, jet_einsum, partials

__all__ = [
    "Chart",
    "DegeneratePointError",
    "kept",
    "sample_set",
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


def kept(build):
    """``build(owner, *args)``, built once per owner and arguments and kept
    by the owner.

    The owner and the arguments are compared as dictionary keys: fields,
    structures and maps by identity, a ``TransformData`` by its two fields,
    a ``RunConfig`` or a string by value.  A build that raises keeps
    nothing."""

    @wraps(build)
    def get(owner, *args):
        memo = vars(owner).setdefault("_kept", {})
        key = (build, *args)
        if key not in memo:
            memo[key] = build(owner, *args)
        return memo[key]

    return get


class _Field:
    """Base: wraps ``fn(point, order) -> Jet`` (or other per-point data
    built from jets, such as a frame solve)."""

    def __init__(self, chart, fn, expressions=None):
        self.chart = chart
        self._fn = fn
        self._point = None
        self._by_order = {}
        self.expressions = expressions  # AST grid when expression-backed

    def jet(self, p, order):
        """The jet of order ``order`` at ``p``.  The results at the most
        recent point (by its float bytes) are kept per order and shared by
        every caller, so the layers of a jet, an array, or a tuple or dict
        of them are read-only.  Nothing is kept when ``fn`` raises."""
        p = np.asarray(p, dtype=float)
        key = p.tobytes()
        if key != self._point:
            self._point, self._by_order = key, {}
        by_order = self._by_order
        out = by_order.get(order)
        if out is None:
            out = self._fn(p, order)
            items = out.values() if isinstance(out, dict) else out if isinstance(out, tuple) else (out,)
            for a in items:
                for L in a.layers if isinstance(a, Jet) else (a,):
                    if isinstance(L, np.ndarray):
                        L.flags.writeable = False
            by_order[order] = out
        return out

    def value(self, p):
        return self.jet(p, 0).value  # a float for a scalar field


def _expr_of(item, chart):
    if isinstance(item, Expression):
        return item
    if isinstance(item, str):
        return chart.parse(item)
    return Num(float(item))


# the running pass's points, {point bytes: row} and batches (per thread)
_samples = ContextVar("samples", default=None)


@contextmanager
def sample_set(pts):
    """Hold the points ``pts`` of a pass over them until the pass ends or
    raises: an expression field asked at one of them evaluates on all of
    them at once, and the set keeps that batch until then."""
    token = _samples.set((pts, {p.tobytes(): row for row, p in enumerate(pts)}, {}))
    try:
        yield
    finally:
        _samples.reset(token)


def _components(exprs, shape):
    """``fn(p, order)`` evaluating the flat list ``exprs`` into a jet of
    tensor shape ``shape``: at a point of the sample set, the point's row
    of the set's batch, truncated to ``order``."""

    def fn(p, order):
        samples = _samples.get()
        row = samples and samples[1].get(p.tobytes())
        batch = row is not None and _batch(samples, fn, exprs, order, shape)
        if not batch:
            return eval_jets(exprs, p, order).reshape(shape)
        jet, finite = batch
        out = Jet(jet.n, [L[row] for L in jet.layers[: order + 1]])
        return out if finite else _checked(out)

    return fn


def _batch(samples, key, exprs, order, shape):
    """``(jet, finite)``: the read-only jet of ``exprs`` on the sample set
    ``samples``, kept by it under ``key`` at the highest order asked, and
    whether all of it is finite.  False when a domain check fails on the
    set, which is then evaluated point by point, so each point raises as
    alone."""
    pts, _, batches = samples
    batch = batches.get(key)
    if batch is None or batch and batch[0].order < order:
        try:
            jet = eval_jets(exprs, pts, order).reshape((len(pts),) + shape)
        except EvaluationDomainError:
            batch = False
        else:
            for L in jet.layers:
                L.flags.writeable = False
            batch = jet, jet.is_finite()
        batches[key] = batch
    return batch


class ScalarField(_Field):
    @classmethod
    def from_expression(cls, chart, expr):
        e = _expr_of(expr, chart)
        return cls(chart, _components([e], ()), expressions=e)

    @classmethod
    def zero(cls, chart):
        return cls.from_expression(chart, Num(0.0))


class OneFormField(_Field):
    @classmethod
    def from_expressions(cls, chart, comps):
        es = [_expr_of(c, chart) for c in comps]
        if len(es) != chart.dim:
            raise ValueError("one-form needs one component per coordinate")
        return cls(chart, _components(es, (chart.dim,)), expressions=es)

    @classmethod
    def zero(cls, chart):
        return cls.from_expressions(chart, [Num(0.0)] * chart.dim)

    @classmethod
    def d(cls, chart, phi: ScalarField):
        """Exterior derivative of a scalar field."""

        return cls(chart, lambda p, order: partials(phi.jet(p, order + 1)))

    def is_zero(self):
        if self.expressions is None:
            return False
        return all(isinstance(e, Num) and e.value == 0.0 for e in self.expressions)


class VectorField(_Field):
    """A vector along the chart: a tangent vector (one component per
    coordinate) or a vector of a larger ambient space (an immersion's
    coordinates, a transversal)."""

    @classmethod
    def from_expressions(cls, chart, comps):
        es = [_expr_of(c, chart) for c in comps]
        return cls(chart, _components(es, (len(es),)), expressions=es)


class MetricField(_Field):
    @classmethod
    def from_expressions(cls, chart, grid):
        n = chart.dim
        es = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                # the same text, the same number or the same node
                if grid[j][i] != grid[i][j]:
                    raise ValueError(f"metric components ({i},{j}) and ({j},{i}) differ")
                # one shared node, evaluated once, keeps g symmetric bitwise
                es[i][j] = es[j][i] = _expr_of(grid[i][j], chart)

        return cls(chart, _components([e for row in es for e in row], (n, n)), expressions=es)

    @classmethod
    def from_diagonal(cls, chart, diag):
        n = chart.dim
        zero = Num(0.0)
        grid = [[diag[i] if i == j else zero for j in range(n)] for i in range(n)]
        return cls.from_expressions(chart, grid)

    @classmethod
    def euclidean(cls, chart):
        return cls.from_diagonal(chart, [Num(1.0)] * chart.dim)

    def scaled(self, factor: ScalarField):
        """Pointwise conformal scaling ``e -> factor * g`` (factor a scalar field)."""

        return MetricField(self.chart, lambda p, order: self.jet(p, order) * factor.jet(p, order))


class ConnectionField(_Field):
    """Coefficients ``gamma[k, i, j]`` of ``nabla_{d_i} d_j = gamma^k_{ij} d_k``."""

    @classmethod
    def from_expressions(cls, chart, grid):
        n = chart.dim
        es = [[[_expr_of(grid[k][i][j], chart) for j in range(n)] for i in range(n)] for k in range(n)]
        flat = [e for plane in es for row in plane for e in row]
        return cls(chart, _components(flat, (n, n, n)), expressions=es)

    @classmethod
    def flat(cls, chart):
        n = chart.dim
        return cls(chart, lambda p, order: Jet.constant(np.zeros((n, n, n)), n, order))

    @kept
    def add_tensor(self, tensor_fn):
        """Connection plus a (1,2) difference tensor.

        ``tensor_fn(p, order)`` must return a (k, i, j) jet.
        """

        return ConnectionField(self.chart, lambda p, order: self.jet(p, order) + tensor_fn(p, order))


# -- difference-tensor constructors -------------------------------------------
#
# The recurring connection modifications all have the shape of a (1,2)
# tensor added to a base connection.


def eta_tensor_id(chart, eta: OneFormField):
    """``K^k_{ij} = eta_i delta^k_j`` (the ``eta (x) I`` shape)."""
    eye = np.eye(chart.dim)
    return lambda p, order: jet_einsum("i,kj->kij", eta.jet(p, order), eye)


def id_tensor_eta(chart, eta: OneFormField):
    """``K^k_{ij} = delta^k_i eta_j`` (the ``I (x) d phi`` shape)."""
    eye = np.eye(chart.dim)
    return lambda p, order: jet_einsum("j,ki->kij", eta.jet(p, order), eye)


def g_tensor_vector(g: MetricField, V: VectorField):
    """``K^k_{ij} = g_ij V^k`` (the ``g (x) V`` shape)."""
    return lambda p, order: jet_einsum("ij,k->kij", g.jet(p, order), V.jet(p, order))


def negate_tensor(tensor_fn):
    return lambda p, order: -tensor_fn(p, order)


def sum_tensors(*tensor_fns):
    def fn(p, order):
        parts = [t(p, order) for t in tensor_fns]
        return sum(parts[1:], parts[0])

    return fn
