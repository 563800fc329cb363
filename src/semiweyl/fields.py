"""Charts and pointwise jet-evaluable tensor fields.

Every field is a function from a chart point to a dense
:class:`~semiweyl.jets.Jet` of a requested order, whose tensor shape is the
field's components (``()`` for a scalar field, ``(n, n)`` for a metric),
and from a point set ``(P, n)`` to the same with a leading ``P`` axis on
every leaf of the result, each row bitwise the result at its point alone.
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
one spec, and a call outside any run for itself) is the only cache of
field results, and writes each once.  On a point set, such as the running
pass's sample set (:func:`sample_set`) or its images under an embedding,
it keeps per (field, set, order) the result of one ``fn`` call on the set,
in which a derived field asks its operands for the whole set too, or the
set's failure: a point error of that call, or a row that is not finite.
A point of the running pass reads its row of a set that did not fail;
every point evaluated alone keeps its result, or its point error, per
(field, order).  An owner keeps what is derived from it (:func:`kept`), so
each derived structure, frame and predicate verdict of a spec is one
Python object, built once, and so one key of the store.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import wraps
from typing import NamedTuple

import numpy as np

from .expressions import Expression, Num, eval_jets, parse_expression
from .jets import EvaluationDomainError, Jet, jet_einsum, partials

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
        :func:`result_store` keeps at the set, or at the point: its row of a
        set the running pass holds (see :func:`sample_set`) unless that set
        failed, else the point evaluated alone, whose point error is kept
        and raised at each read.  A call outside any run keeps it in a store
        of its own."""
        p = np.asarray(p, dtype=float)
        store = _store.get()
        if store is None:
            with result_store():
                return self.jet(p, order)
        if p.ndim != 1:
            return store.set_of(p).whole(self, order)
        key = p.tobytes()
        running = _samples.get()
        row = None if running is None else running.rows.get(key)
        if row is not None:
            out = running.result(self, row, order)
            if out is not None:
                return out
        out = store.points.get((self, order, key))
        if out is None:
            try:
                out = self._fn(p, order)
            except _POINT_ERRORS as exc:
                store.points[self, order, key] = _Raised(type(exc), exc.args)
                raise
            for L in _leaves(out):
                if isinstance(L, np.ndarray):
                    L.flags.writeable = False
            store.points[self, order, key] = out
        elif type(out) is _Raised:
            raise out.kind(*out.args)
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

# what a point may raise for a skip, kept by the store
_POINT_ERRORS = (EvaluationDomainError, DegeneratePointError)


def _leaves(out):
    """The leaves of a result of a field's ``fn``: the layers of a jet, the
    leaves of the items of a tuple or dict, or the result itself."""
    if isinstance(out, Jet):
        return out.layers
    if isinstance(out, (tuple, dict)):
        return [L for item in (out.values() if isinstance(out, dict) else out) for L in _leaves(item)]
    return [out]


def _reader(out, columns):
    """``row -> result``: a result shaped like ``out`` whose leaves are the
    rows ``row`` of ``columns`` (an iterator, taken in the order of
    :func:`_leaves`); ``row`` may be a slice."""
    if isinstance(out, Jet):
        n, cs = out.n, [next(columns) for _ in out.layers]
        return lambda row: Jet(n, [c[row] for c in cs])
    if isinstance(out, tuple):
        parts = [_reader(item, columns) for item in out]
        return lambda row: tuple(f(row) for f in parts)
    if isinstance(out, dict):
        parts = [(k, _reader(item, columns)) for k, item in out.items()]
        return lambda row: {k: f(row) for k, f in parts}
    return next(columns).__getitem__


def _read_only(column):
    view = column.view()
    view.flags.writeable = False
    return view


class _Raised(NamedTuple):
    """A point error's type and arguments, kept without its traceback."""

    kind: type
    args: tuple


class _Entry:
    """One field's result at one order on a point set of ``size`` points,
    from one ``fn`` call on the whole set, its rows read as read-only
    views; a result with a row that is not finite raises instead."""

    def __init__(self, out, size):
        leaves = _leaves(out)
        finite = np.logical_and.reduce([np.isfinite(L).reshape(size, -1).all(axis=1) for L in leaves])
        if not finite.all():
            raise EvaluationDomainError("non-finite value in a result on a point set")
        self.read = _reader(out, map(_read_only, leaves))
        self.whole = None


class _Set:
    """A point set ``pts`` and, per (field, order), the :class:`_Entry` of
    the field's result on it or the :class:`_Raised` of its failure."""

    def __init__(self, pts):
        self.pts = pts
        self.rows = {p.tobytes(): row for row, p in enumerate(pts)}
        self.entries = {}

    def entry(self, field, order):
        """``field``'s entry at order ``order``, or the :class:`_Raised` of
        the set's failure: a point error of the one ``fn`` call on the
        whole set made on a miss, or a row of its result that is not
        finite.  A call that raises anything else keeps nothing."""
        entry = self.entries.get((field, order))
        if entry is None:
            try:
                entry = _Entry(field._fn(self.pts, order), len(self.pts))
            except _POINT_ERRORS as exc:
                entry = _Raised(type(exc), exc.args)
            self.entries[field, order] = entry
        return entry

    def result(self, field, row, order):
        """``field``'s result at order ``order`` at the point of row
        ``row``, or ``None`` when the set failed: the point is then
        evaluated alone."""
        entry = self.entries.get((field, order)) or self.entry(field, order)
        return None if type(entry) is _Raised else entry.read(row)

    def whole(self, field, order):
        """``field``'s result at order ``order`` on the whole set, with a
        leading axis over its points.  When the set failed, it raises, so a
        field that asks for it falls back to its points."""
        entry = self.entry(field, order)
        if type(entry) is _Raised:
            raise entry.kind(*entry.args)
        if entry.whole is None:
            entry.whole = entry.read(slice(None))
        return entry.whole


class _Store:
    """The results of one run: a :class:`_Set` per point set, and the
    result of each (field, order) at each point evaluated alone, by its
    bytes, or the :class:`_Raised` of its point error."""

    def __init__(self):
        self.sets = {}
        self.points = {}

    def set_of(self, pts):
        key = (pts.shape, pts.tobytes())
        s = self.sets.get(key)
        if s is None:
            s = self.sets[key] = _Set(pts)
        return s


# the running run's store, and the running pass's set (per thread)
_store = ContextVar("store", default=None)
_samples = ContextVar("samples", default=None)


@contextmanager
def result_store():
    """Keep, until the block ends or raises, each field's results asked in
    it, per (field, set, order) on a point set and per (field, order) at
    any other point: a later pass or call at the same points reads them."""
    token = _store.set(_Store())
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
    store = _store.get()
    if store is None:
        with result_store(), sample_set(pts):
            yield
        return
    token = _samples.set(store.set_of(pts))
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
        return cls(chart, lambda p, order: Jet.constant(np.zeros(p.shape[:-1] + (n, n, n)), n, order))

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
    return lambda p, order: jet_einsum("...i,kj->...kij", eta.jet(p, order), eye)


def id_tensor_eta(chart, eta: OneFormField):
    """``K^k_{ij} = delta^k_i eta_j`` (the ``I (x) d phi`` shape)."""
    eye = np.eye(chart.dim)
    return lambda p, order: jet_einsum("...j,ki->...kij", eta.jet(p, order), eye)


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
