"""Charts and pointwise jet-evaluable tensor fields.

Every field is a function from a chart point to a dense
:class:`~semiweyl.jets.Jet` of a requested order, whose tensor shape is the
field's components (``()`` for a scalar field, ``(n, n)`` for a metric),
and from a point set ``(P, n)`` to the same with a leading ``P`` axis on
every leaf of the result, innermost in memory (see :mod:`semiweyl.jets`):
each row is bitwise that point's row in any set of two or more points,
and within rounding the result at that point alone.
Expression-backed fields evaluate their component expressions into one
jet (:func:`~semiweyl.expressions.eval_jets`); derived fields (duals,
induced connections, transformed structures) are closures over other
fields, so derivative information flows through every construction
without symbolic matrix algebra.  Derived fields combine jets with
:func:`~semiweyl.jets.jet_einsum` (contractions and outer products),
:func:`~semiweyl.jets.partials` (coordinate derivatives) and jet
arithmetic (``G + K``, ``-K``, ``G * f``).

Three rules share work.  A field's results are shared, hence read-only,
and a field's ``fn`` may depend on nothing but ``(p, order)``.  The result
store of a run (:func:`result_store`, which ``report.run_spec`` opens for
one spec, and a call outside any run for itself) is the only cache: one
dict, whose entry per (field, order, points) is written once, from one
``fn`` call at those points (:func:`_kept`), whether they are one point or
a point set, such as the running pass's sample set (:func:`sample_set`) or
its images under an embedding, or truncated from a result at a higher
order: an entry at order k answers every lower order, as layer r of a jet
depends only on layers up to r.  A derived field asks its operands at the
same points.  An entry is the result, its failure (a point error of that
call or, on a set, a row that is not finite), or a sub-set fill with
per-row failures: each row a set's point error names keeps its own, and
the other rows fill one sub-set entry, which a derived field reuses.  A
point of the running pass reads its row of a set or sub-set, or its kept
error, and is otherwise evaluated alone.  What a run derives (:func:`kept`)
is in the same store, under its build and arguments, so each derived
structure, frame field and predicate verdict is one object per run, and
no object keeps what is derived from it.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property, wraps
from typing import NamedTuple

import numpy as np

from .expressions import Expression, Num, eval_jets, parse_expression
from .jets import EvaluationDomainError, Jet, PointError, at_points, jet_einsum, partials

__all__ = [
    "Chart",
    "DegeneratePointError",
    "kept",
    "result_store",
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


class DegeneratePointError(PointError):
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
    """``build(*args)``, built once per arguments in the running
    :func:`result_store` and kept there under ``(build, *args)``, or built
    on each call when no store is running.  The arguments are compared as
    dictionary keys: fields, structures and maps by identity, a
    ``TransformData`` by its two fields, a ``RunConfig`` or a string by
    value.  A build that raises keeps nothing."""

    @wraps(build)
    def get(*args):
        store = _store.get()
        if store is None:
            return build(*args)
        key = (build, *args)
        if key not in store:
            store[key] = build(*args)
        return store[key]

    return get


def _values_field(compute):
    """``compute(owner, *args, p)`` read through a field of ``owner`` and
    ``args`` (:func:`kept`): evaluated once per points in the running
    result store, a point error kept with it, and a point of a set that
    failed evaluated alone."""

    @kept
    def field(owner, *args):
        return _Field(owner.chart, lambda p, _order: compute(owner, *args, p))

    @wraps(compute)
    def values(owner, *args_and_p):
        *args, p = args_and_p
        return field(owner, *args).jet(p, 0)

    return values


class _Field:
    """Base: wraps ``fn(p, order)``, which returns a :class:`Jet` (or other
    data built from jets, such as a frame solve: a tuple or dict of jets,
    arrays and floats) at a point ``p`` of shape ``(n,)``, and the same
    with a leading ``P`` axis on every leaf at a point set ``(P, n)``."""

    def __init__(self, chart, fn, expressions=None):
        self.chart = chart
        self._fn = fn
        self.expressions = expressions  # AST grid when expression-backed

    def jet(self, p, order):
        """The jet of order ``order`` at the point or point set ``p``,
        shared by every caller, so the layers of a jet, an array, or a
        tuple or dict of them are read-only.  It is what the running
        :func:`result_store` keeps at ``p`` (see :func:`_kept`), whose point
        error is raised at each read; a point of the set the running pass
        holds (see :func:`sample_set`) reads its row of the set's result or
        sub-set, or raises its kept error, unless the set failed naming no
        rows.  A call outside any run keeps it in a store of its own."""
        p = np.asarray(p, dtype=float)
        store = _store.get()
        if store is None:
            with result_store():
                return self.jet(p, order)
        key = p.tobytes()
        held = _samples.get()
        row = None if held is None or p.ndim != 1 else held.rows.get(key)
        if row is not None:
            out = _kept(store, self, order, held.pts, held.where)
            if type(out) is _Split:
                if out.named[row]:
                    raise out.named[row][0](*out.named[row][1], None)
                out, row = out.rest, out.at[row]
            if type(out) is not _Raised:
                return _row(out, row)
        out = _kept(store, self, order, p, (p.shape, key))
        if type(out) is _Split:
            raise out.raised.kind(*out.raised.args, out.named)
        if type(out) is _Raised:
            raise out.kind(*out.args, None)
        return out

    def value(self, p):
        return self.jet(p, 0).value  # a float for a scalar field


def _expr_of(item, chart):
    if isinstance(item, Expression):
        return item
    if isinstance(item, str):
        return chart.parse(item)
    return Num(float(item))


# -- the result store -----------------------------------------------------------

def _leaves(out):
    """The leaves of a result of a field's ``fn``: the layers of a jet, the
    leaves of the items of a tuple or dict, or the result itself."""
    if isinstance(out, Jet):
        return out.layers
    if isinstance(out, (tuple, dict)):
        return [L for item in (out.values() if isinstance(out, dict) else out) for L in _leaves(item)]
    return [out]


def _each(out, layers, leaf):
    """A field's result ``out`` with the layers of each of its jets
    ``layers(jet.layers)`` and each other leaf ``x`` as ``leaf(x)``, in
    tuples and dicts of ``out``'s types."""
    if isinstance(out, Jet):
        return Jet(out.n, layers(out.layers))
    if isinstance(out, tuple):
        return tuple(_each(item, layers, leaf) for item in out)
    if isinstance(out, dict):
        return type(out)({k: _each(item, layers, leaf) for k, item in out.items()})
    return leaf(out)


def _row(out, row):
    """The result at the point of row ``row`` of a result ``out`` on a point
    set: each of its leaves indexed by ``row``."""
    return _each(out, lambda layers: [L[row] for L in layers], lambda x: x[row])


class _Raised(NamedTuple):
    """A point error's type and arguments, kept without its traceback."""

    kind: type
    args: tuple


class _Split(NamedTuple):
    """A set whose call raised a point error that named rows: the error, the
    ``(type, args)`` of each named row, and for the others their row ``at``
    in ``rest``, their entry as one sub-set, whose failure names no rows."""

    raised: _Raised
    named: list
    at: np.ndarray
    rest: object


def _kept(store, field, order, p, where):
    """The entry of ``store`` for ``field`` at order ``order`` at the point
    or point set ``p``, whose key ``where`` is ``(p.shape, p.tobytes())``.
    On a miss it is truncated from a result at a higher order
    (:func:`_truncated`) or made from one ``fn`` call: the result, its leaves
    made read-only in place, or the :class:`_Raised` of a point error of that
    call or, on a point set, of a row of its result that is not finite, or a
    :class:`_Split`.  A call that raises anything else keeps nothing."""
    key = (field, order, where)
    out = store.get(key)
    if out is not None:
        return out
    out = _truncated(store, field, order, where)
    if out is None:
        try:
            out = field._fn(p, order)
            leaves = _leaves(out)
            if p.ndim > 1 and not all(np.isfinite(L).all() for L in leaves):
                raise EvaluationDomainError("non-finite value in a result on a point set", None)
        except PointError as exc:
            out, named = _Raised(type(exc), exc.args), exc.rows or []
            if p.ndim > 1 and len(named) == len(p) and any(named):
                out = _split(store, field, order, p, out, named)
        else:
            for L in leaves:
                if isinstance(L, np.ndarray):
                    L.flags.writeable = False
    store[key] = out
    return out


def _truncated(store, field, order, where):
    """``field`` at ``order`` truncated from its nearest result at the same
    points at an order up to 6, each jet less its top ``k - order`` layers,
    or ``None``: a kept failure answers no lower order (``sqrt`` of 0 fails
    only above order 0)."""
    for k in range(order + 1, 7):
        out = store.get((field, k, where))
        if out is not None and type(out) is not _Raised and type(out) is not _Split:
            return _each(out, lambda layers: layers[: len(layers) - (k - order)], lambda x: x)


def _split(store, field, order, p, raised, named):
    """The :class:`_Split` of the set ``p`` whose call raised ``raised``
    naming the rows ``named``: the others fill one entry, and the rows its
    call names in turn are named too."""
    keep = np.array([r is None for r in named])
    at = np.cumsum(keep) - 1
    sub = p[keep]
    rest = _kept(store, field, order, sub, (sub.shape, sub.tobytes())) if len(sub) else None
    if type(rest) is _Split:
        named = [r or rest.named[a] for r, a in zip(named, at)]
        at, rest = rest.at[at], rest.rest
    return _Split(raised, named, at, rest)


class _Held:
    """The points of the running pass, their key in the store and, once a
    point is asked alone in the pass, the row of each point by its bytes."""

    def __init__(self, pts):
        self.pts = pts
        self.where = (pts.shape, pts.tobytes())

    @cached_property
    def rows(self):
        return {p.tobytes(): row for row, p in enumerate(self.pts)}


# the running run's store, and the running pass's points (per thread)
_store = ContextVar("store", default=None)
_samples = ContextVar("samples", default=None)


@contextmanager
def result_store():
    """Keep, until the block ends or raises, each field's results asked in
    it, per (field, order, points), whether the points are one point or a
    set: a later pass or call at the same points reads them."""
    token = _store.set({})
    try:
        yield
    finally:
        _store.reset(token)


@contextmanager
def sample_set(pts):
    """Hold the points ``pts`` of a pass over them until the pass ends or
    raises: a field asked at one of them, or at all of them, reads its
    result from the running :func:`result_store`, or from a store of its
    own that lasts the pass when none is running."""
    if _store.get() is None:
        with result_store(), sample_set(pts):
            yield
        return
    token = _samples.set(_Held(pts))
    try:
        yield
    finally:
        _samples.reset(token)


def _components(exprs, shape):
    """``fn(p, order)`` evaluating the flat list ``exprs`` into a jet of
    tensor shape ``shape`` at a point ``p``, or with a leading axis over a
    point set ``p``."""
    return lambda p, order: eval_jets(exprs, p, order).reshape(p.shape[:-1] + shape)


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

        return MetricField(self.chart, lambda p, order: self.jet(p, order) * factor.jet(p, order)[..., None, None])


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
        return cls(chart, lambda p, order: at_points(Jet.constant(np.zeros((n, n, n)), n, order), p))

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
    return lambda p, order: jet_einsum("...i,...kj->...kij", eta.jet(p, order), at_points(eye, p))


def id_tensor_eta(chart, eta: OneFormField):
    """``K^k_{ij} = delta^k_i eta_j`` (the ``I (x) d phi`` shape)."""
    eye = np.eye(chart.dim)
    return lambda p, order: jet_einsum("...j,...ki->...kij", eta.jet(p, order), at_points(eye, p))


def g_tensor_vector(g: MetricField, V: VectorField):
    """``K^k_{ij} = g_ij V^k`` (the ``g (x) V`` shape)."""
    return lambda p, order: jet_einsum("...ij,...k->...kij", g.jet(p, order), V.jet(p, order))


def negate_tensor(tensor_fn):
    return lambda p, order: -tensor_fn(p, order)


def sum_tensors(*tensor_fns):
    def fn(p, order):
        parts = [t(p, order) for t in tensor_fns]
        return sum(parts[1:], parts[0])

    return fn
