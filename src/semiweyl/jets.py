"""Truncated Taylor (jet) arithmetic of any order, stored densely.

A :class:`Jet` is a tensor of smooth functions at a point together with
their partial derivatives up to a fixed order in ``n`` variables.  It
holds one dense array per order: ``layers[r]`` has the tensor shape
followed by ``r`` derivative axes of length ``n`` (value, grad, hess,
third, ...).  A scalar jet is the shape-``()`` case; its value is a float.
Arithmetic implements the product and chain rules exactly (the truncated
Taylor arithmetic of Griewank & Walther, *Evaluating Derivatives*, 2nd ed.,
ch. 13), so any quantity assembled from jets carries exact derivatives of
the assembly.

Products and elementwise functions spell out layers 1 to 3 by hand.  Above
order 3 one rule builds on these closed forms: layer ``r`` of ``a b`` is
layer ``r - 1`` of ``da b + a db``, and layer ``r`` of ``f(g)`` is layer
``r - 1`` of ``f'(g) dg``, both products of jets one order lower (above
order 4, by the same rule again).  So a layer does not depend on the order
it is computed to.  :func:`jet_compose` applies the same rule at every
order: layer ``r`` of ``f o F`` is layer ``r - 1`` of ``(Df o F) dF``.
Contractions take layer ``r`` as a Leibniz sum over the ways of sharing the
``r`` derivative slots between the operands, one ``np.einsum`` per way,
its terms built once per order and operand layout and cached.

A jet of a point set has a leading batch axis, one row per point, ahead of
the tensor axes; tensor code indexes from the end (``J[..., i, :]``), so
the same code serves a point and a set.  In memory the batch axis is the
innermost (a set's arrays are born in Fortran order: the coordinate jets,
:func:`jet_stack`, the inverse in :func:`jet_solve`, :func:`at_points`),
and numpy's default ``order="K"`` carries that layout through ufuncs and
einsums, so their inner loops run over the points rather than over a few
tensor entries (memory layout decides the loop: Harris et al., "Array
programming with NumPy", *Nature* 585, 2020).  Each sum of a contraction
then runs in the same order for every row, so a row of a set has the same
bits in every set of two or more points (a point alone, or a set of one,
may take numpy's contiguous dot loop and differ by rounding).  Jets index
and reshape their tensor axes, :meth:`Jet.transpose` permutes the trailing
ones (``.T`` swaps the last two), and ``+ - * /`` broadcast between jets,
float arrays and floats as numpy arrays do (a constant touches only the
layers it changes); a jet has no length and no iteration, which would walk
the batch axis.  The helpers work on the layers: :func:`jet_einsum`
contracts jets by the Leibniz rule, :func:`partials` turns the first
derivative axis into a tensor axis, :func:`jet_solve` solves linear systems
(differentiating ``A(x) s(x) = b(x)`` order by order), :func:`jet_compose`
applies the chain rule, :func:`jet_stack` stacks jets on a new axis, and
:func:`jet_cross` is the generalized cross product, which gives normals.
A jet is never modified in place, so results may share layers with their
operands.
"""

from __future__ import annotations

import functools
import itertools
import math
import string

import numpy as np

__all__ = [
    "Jet",
    "JetOrderError",
    "PointError",
    "EvaluationDomainError",
    "jet_solve",
    "jet_solve_with",
    "singular",
    "jet_cross",
    "jet_compose",
    "jet_einsum",
    "jet_stack",
    "partials",
    "at_points",
    "innermost",
]


class JetOrderError(ValueError):
    """Requested derivative order not carried by the operand."""


class PointError(ArithmeticError):
    """An error of a point, which skips it.  Raised on a point set, it may
    name the rows of the set's leading axis it applies to: ``rows`` holds
    per row the ``(type, args)`` that row raises alone, or ``None``."""

    def __init__(self, message, rows):
        super().__init__(message)
        self.rows = rows

    @classmethod
    def where(cls, bad, message):
        """The error where ``bad`` holds, naming each row of its leading axis
        where it holds anywhere (no rows at a point alone, where ``bad`` has
        no axis), with ``message``, or ``message(row)`` (``...`` for all)."""
        text = (lambda at: message) if isinstance(message, str) else message
        rows = None if np.ndim(bad) == 0 else np.reshape(bad, (len(bad), -1)).any(axis=1).tolist()
        return cls(text(...), rows and [(cls, (text(at),)) if b else None for at, b in enumerate(rows)])


class EvaluationDomainError(PointError):
    """Evaluation hit a point outside the domain of a primitive
    (division by zero, log/sqrt of a non-positive value)."""


# -- layer helpers ---------------------------------------------------------------


def _up(x, k):
    """``x`` with ``k`` unit axes appended, to broadcast a value (or an
    elementwise coefficient) against a layer with ``k`` derivative axes; a
    float broadcasts as it is."""
    return x if isinstance(x, float) else x[(Ellipsis,) + (None,) * k]


def _scalar(x):
    """A 0-d array as a float (the value layer of a scalar jet)."""
    return x[()] if isinstance(x, np.ndarray) and x.ndim == 0 else x


def _any(cond):
    return cond.any() if isinstance(cond, np.ndarray) else cond


def _finite(x):
    return math.isfinite(x) if isinstance(x, float) else bool(np.isfinite(x).all())


def _sym3(t):
    """Sum of the three placements of the first derivative axis of
    ``t[..., i, j, k] = u_i v_jk`` (``v`` symmetric)."""
    s = t.swapaxes(-3, -2)
    return t + s + s.swapaxes(-2, -1)


def _cross12(u, v):
    """``u_i v_jk`` for layers ``u`` with one and ``v`` with two derivative axes."""
    return u[..., :, None, None] * v[..., None, :, :]


def _const(c):
    """A constant operand of a jet: a number as a float, else a float array."""
    return float(c) if isinstance(c, (int, float)) else np.asarray(c, dtype=float)


def _divisor(v):
    """Raise where the value(s) ``v`` of a divisor are zero or not finite."""
    if _any(v == 0.0) or not _finite(v):
        raise EvaluationDomainError.where((v == 0.0) | ~np.isfinite(v), "division by zero")


def _pow(v, k):
    """``v ** k``, elementwise as for each float alone: numpy's vector
    ``power`` rounds up to a few percent of its results otherwise than the
    C library's ``pow`` that a float's ``**`` calls."""
    try:
        if isinstance(v, float):
            return v ** k
        layout = "F" if v.flags.f_contiguous else "C"  # a set's points stay innermost
        return np.array([x ** k for x in v.ravel(layout).tolist()]).reshape(v.shape, order=layout)
    except OverflowError as exc:
        raise EvaluationDomainError("overflow in a power", None) from exc


def _falling_factorials(a, order):
    """``(r, a (a-1) ... (a-r+1))`` for ``r = 0 .. order``: the coefficients
    of the derivatives of ``v ** a``."""
    c = 1.0
    for r in range(order + 1):
        yield r, c
        c *= a - r


class Jet:
    """A tensor of values plus partial derivatives up to ``order`` in ``n``
    variables: ``layers[r]`` has shape ``shape + (n,) * r``."""

    __slots__ = ("n", "layers")
    __array_ufunc__ = None  # numpy operators defer to the jet's own
    __iter__ = None  # not iterable, not even by indexing: it would walk a set's points

    def __init__(self, n, layers):
        if not layers:
            raise JetOrderError("a jet needs at least its value layer")
        self.n = n
        self.layers = layers

    # -- constructors -----------------------------------------------------

    @staticmethod
    def constant(c, n, order):
        """Jet of the constant(s) ``c``: every derivative is zero.  Its
        layers are laid out as at a point; :func:`at_points` of it gives a
        set's constant."""
        if order < 0:
            raise JetOrderError(f"jet order must be >= 0, got {order}")
        if isinstance(c, (int, float)):
            c, shape = float(c), ()
        else:
            c = _scalar(np.asarray(c, dtype=float))
            shape = np.shape(c)
        return Jet(n, [c] + [np.zeros(shape + (n,) * r) for r in range(1, order + 1)])

    @staticmethod
    def coordinate(value, index, n, order):
        """Jet of the coordinate ``index`` at ``value``: a float at a point,
        or one value per point of a set, whose point axis is innermost."""
        shape = np.shape(value)
        layers = [np.zeros(shape + (n,) * r, order="F" if shape else "C") for r in range(1, order + 1)]
        if order >= 1:
            layers[0][..., index] = 1.0
        return Jet(n, [value if shape else float(value)] + layers)

    # -- layers and tensor axes ---------------------------------------------

    @property
    def order(self):
        return len(self.layers) - 1

    @property
    def shape(self):
        return np.shape(self.layers[0])

    @property
    def ndim(self):
        return len(self.shape)

    @property
    def value(self):
        return self.layers[0]

    def _layer(self, r):
        if r > self.order:
            raise JetOrderError(f"a jet of order {self.order} has no derivatives of order {r}")
        return self.layers[r]

    grad = property(lambda self: self._layer(1))
    hess = property(lambda self: self._layer(2))
    third = property(lambda self: self._layer(3))

    def __array__(self, *args, **kwargs):
        raise TypeError("a Jet is not a numpy array: read its .value or .layers")

    def __bool__(self):
        raise TypeError("a Jet has no truth value: compare its .value")

    def __getitem__(self, idx):
        """Index the tensor axes; the derivative axes are kept.  With an
        ``...``, ``None`` adds unit axes, also to a scalar jet."""
        idx = idx if isinstance(idx, tuple) else (idx,)
        if any(i is Ellipsis for i in idx):
            return Jet(self.n, [_scalar(np.asarray(L)[idx + (slice(None),) * r]) for r, L in enumerate(self.layers)])
        L0, *rest = self.layers
        return Jet(self.n, [L0[idx]] + [L[idx + (Ellipsis,)] for L in rest])

    def transpose(self, *axes):
        """Permute the last ``len(axes)`` tensor axes, numbered from 0 among
        themselves; the axes before them (a batch axis) stay in place."""
        if len(axes) == 1 and not isinstance(axes[0], int):
            axes = tuple(axes[0])
        k, m = self.ndim, len(axes)
        axes = tuple(range(k - m)) + tuple(k - m + a % m for a in axes)
        return Jet(self.n, [np.transpose(L, axes + tuple(range(k, k + r))) for r, L in enumerate(self.layers)])

    @property
    def T(self):
        """The last two tensor axes swapped."""
        return self.transpose(1, 0)

    def reshape(self, *shape):
        if len(shape) == 1 and not isinstance(shape[0], int):
            shape = tuple(shape[0])
        value = np.reshape(self.layers[0], shape)
        shape = value.shape
        return Jet(self.n, [_scalar(value)] + [L.reshape(shape + (self.n,) * r) for r, L in enumerate(self.layers) if r])

    def is_finite(self):
        return all(_finite(L) for L in self.layers)

    def __repr__(self):
        return f"Jet(shape={self.shape}, order={self.order}, n={self.n})"

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        """Layers of the jets ``self`` and ``other`` at their lower order."""
        if other.n != self.n:
            raise ValueError("jet dimension mismatch")
        a, b = self.layers, other.layers
        if len(a) == len(b):
            return a, b
        o = min(len(a), len(b))
        return a[:o], b[:o]

    def __add__(self, other):
        if not isinstance(other, Jet):
            value = _scalar(self.layers[0] + _const(other))
            if np.shape(value) == self.shape:  # a constant moves only the values
                return Jet(self.n, [value] + self.layers[1:])
            other = Jet.constant(other, self.n, self.order)
        a, b = self._coerce(other)
        return Jet(self.n, [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.n, [-L for L in self.layers])

    def __sub__(self, other):
        if not isinstance(other, Jet):
            return self + -_const(other)
        a, b = self._coerce(other)
        return Jet(self.n, [x - y for x, y in zip(a, b)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            # a constant has no derivatives: each layer is scaled
            c = _const(other)
            return Jet(self.n, [_scalar(self.layers[0] * c)] + [L * _up(c, r) for r, L in enumerate(self.layers) if r])
        a, b = self._coerce(other)
        a0, b0 = a[0], b[0]
        out = [a0 * b0]
        o = len(a) - 1
        if o >= 1:
            out.append(_up(a0, 1) * b[1] + _up(b0, 1) * a[1])
        if o >= 2:
            t = a[1][..., :, None] * b[1][..., None, :]
            out.append(_up(a0, 2) * b[2] + _up(b0, 2) * a[2] + t + t.swapaxes(-1, -2))
        if o >= 3:
            out.append(_up(a0, 3) * b[3] + _up(b0, 3) * a[3] + _sym3(_cross12(a[1], b[2]) + _cross12(b[1], a[2])))
        if o >= 4:
            # layer r is layer r - 1 of d(ab) = da b + a db, one order down
            A, B = Jet(self.n, a[:o])[..., None], Jet(self.n, b[:o])[..., None]
            out += (Jet(self.n, a[1:]) * B + A * Jet(self.n, b[1:])).layers[3:]
        return Jet(self.n, out)

    __rmul__ = __mul__

    def _chain(self, f):
        """Chain rule through a function applied elementwise: ``f[r]`` is
        its ``r``-th derivative at the values, up to ``self.order``."""
        L = self.layers
        o = len(L) - 1
        out = [f[0]]
        if o >= 1:
            g = L[1]
            out.append(_up(f[1], 1) * g)
        if o >= 2:
            gg = g[..., :, None] * g[..., None, :]
            out.append(_up(f[1], 2) * L[2] + _up(f[2], 2) * gg)
        if o >= 3:
            ggg = gg[..., None] * g[..., None, None, :]
            out.append(_up(f[1], 3) * L[3] + _up(f[2], 3) * _sym3(_cross12(g, L[2])) + _up(f[3], 3) * ggg)
        if o >= 4:
            # layer r is layer r - 1 of d f(g) = f'(g) dg, one order down
            out += (Jet(self.n, L[:o])._chain(f[1:])[..., None] * Jet(self.n, L[1:])).layers[3:]
        return Jet(self.n, out)

    def reciprocal(self):
        v = self.layers[0]
        _divisor(v)
        return self._chain([c / _pow(v, r + 1) for r, c in _falling_factorials(-1, self.order)])

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            c = _const(other)
            _divisor(c)
            return self * (1.0 / c)
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, k):
        k = int(k)
        v = self.layers[0]
        if k == 0:
            return Jet(self.n, [_scalar(np.ones_like(v))] + [np.zeros_like(L) for L in self.layers[1:]])
        if k < 0 and _any(v == 0.0):
            raise EvaluationDomainError.where(v == 0.0, "zero raised to a negative power")
        # the falling factorial vanishes once r > k >= 0
        return self._chain([c * _pow(v, k - r) if c else 0.0 for r, c in _falling_factorials(k, self.order)])

    # -- elementary functions -------------------------------------------------

    def exp(self):
        e = np.exp(self.layers[0])
        return self._chain((e,) * (self.order + 1))

    def log(self):
        v = self.layers[0]
        if _any(v <= 0.0):
            raise EvaluationDomainError.where(v <= 0.0, "log of a non-positive value")
        # d^r log v = (d^(r-1) of v^-1) = (-1)_(r-1) / v^r
        return self._chain([np.log(v)] + [c / _pow(v, r + 1) for r, c in _falling_factorials(-1, self.order - 1)])

    def sin(self):
        v = self.layers[0]
        s, c = np.sin(v), np.cos(v)
        cycle = (s, c, -s, -c)
        return self._chain([cycle[r % 4] for r in range(self.order + 1)])

    def cos(self):
        v = self.layers[0]
        s, c = np.sin(v), np.cos(v)
        cycle = (c, -s, -c, s)
        return self._chain([cycle[r % 4] for r in range(self.order + 1)])

    def sqrt(self):
        v = self.layers[0]
        if _any(v < 0.0) or (self.order >= 1 and _any(v == 0.0)):
            raise EvaluationDomainError.where((v < 0.0) | ((v == 0.0) & (self.order >= 1)), "sqrt of a negative value")
        rt = np.sqrt(v)
        # d^r v^(1/2) = (1/2)_r v^(1/2 - r) = (1/2)_r / rt^(2r - 1)
        return self._chain([rt] + [c / _pow(rt, 2 * r - 1) for r, c in _falling_factorials(0.5, self.order) if r])


# -- contractions, solves and composition on the layers ----------------------------


def _shared(jets):
    """Variable count of ``jets`` and their lowest order (the order a
    product truncates to)."""
    n = jets[0].n
    if any(j.n != n for j in jets):
        raise ValueError("jet dimension mismatch")
    return n, min(len(j.layers) for j in jets) - 1


@functools.lru_cache(maxsize=None)
def _leibniz_terms(inputs, output, depths, r):
    """``(einsum spec, layer index per operand)`` of each order-``r`` term
    of the Leibniz rule: one per assignment of the ``r`` derivative slots to
    the operands, skipping those that need a layer an operand of ``depths``
    layers lacks (its higher layers are zero)."""
    used = "".join(inputs) + output
    slots = "".join(c for c in string.ascii_letters if c not in used)[:r]
    terms = []
    for assign in itertools.product(range(len(inputs)), repeat=r):
        counts = tuple(assign.count(k) for k in range(len(inputs)))
        if all(c < d for c, d in zip(counts, depths)):
            specs = [spec + "".join(s for s, owner in zip(slots, assign) if owner == k) for k, spec in enumerate(inputs)]
            terms.append((",".join(specs) + "->" + output + slots, counts))
    return tuple(terms)


def _leibniz(inputs, output, layers, r):
    """Order-``r`` layer of the einsum product ``inputs -> output`` of
    operands given by their dense layers (a constant has one layer)."""
    parts = [
        np.einsum(spec, *(L[c] for L, c in zip(layers, counts)))
        for spec, counts in _leibniz_terms(tuple(inputs), output, tuple(len(L) for L in layers), r)
    ]
    return sum(parts[1:], parts[0])


def jet_einsum(subscripts, *operands):
    """``np.einsum`` over jets, with exact derivatives.

    Float arrays count as constants.  The product rule is applied up to the
    lowest jet order, one ``np.einsum`` per sharing of a layer's derivative
    slots among the operands.  Subscripts must be in explicit ``...->...``
    form.  With no jet operand it is ``np.einsum``, the einsum of floats.
    """
    jets = [op for op in operands if isinstance(op, Jet)]
    if not jets:
        return np.einsum(subscripts, *operands)
    inputs, output = subscripts.replace(" ", "").split("->")
    n, order = _shared(jets)
    layers = [op.layers[: order + 1] if isinstance(op, Jet) else [np.asarray(op, dtype=float)] for op in operands]
    out = [_leibniz(inputs.split(","), output, layers, r) for r in range(order + 1)]
    out[0] = _scalar(out[0])
    return Jet(n, out)


def partials(J):
    """First partials of a jet, one order lower, on a new last tensor axis:
    ``partials(J)[..., a]`` is the jet of ``d/dx_a J``."""
    if J.order < 1:
        raise JetOrderError("partials() needs a jet of order >= 1")
    return Jet(J.n, J.layers[1:])


def jet_stack(items, axis):
    """``np.stack`` for jets: the jets among ``items`` share one shape, and
    floats or float arrays among them are constants, broadcast to it (a
    constant row of every point of a set).  A negative ``axis`` counts from
    the end of the result's tensor axes.  The result has the lowest order
    of the jets, and the memory layout of the first: its layers are
    stacked on a new first axis, the slowest in memory, so a set's points
    stay innermost."""
    jets = [x for x in items if isinstance(x, Jet)]
    n, order = _shared(jets)
    if axis < 0:
        axis += jets[0].ndim + 1
    return Jet(n, [
        np.moveaxis(np.stack([x.layers[r] if isinstance(x, Jet) else np.zeros_like(L) + (0.0 if r else x) for x in items]), 0, axis)
        for r, L in enumerate(jets[0].layers[: order + 1])
    ])


def at_points(c, p):
    """The constant array or jet ``c`` at the point ``p`` ``(n,)``: ``c``
    itself; or at each point of a set ``(P, n)``: each array of ``c``
    broadcast to ``(P,) + its shape``, its points innermost, as a set's
    arrays are."""
    if isinstance(c, Jet):
        return Jet(c.n, [at_points(L, p) for L in c.layers])
    return c if np.ndim(p) == 1 else np.asfortranarray(np.broadcast_to(c, p.shape[:-1] + np.shape(c)))


def innermost(m, ndim):
    """``m``, an array of ``ndim`` axes at a point or a stack ``(P, ...)`` of
    them on a set, with a set's points innermost: numpy's linear algebra
    returns a stack with them outermost."""
    return np.asfortranarray(m) if m.ndim > ndim else m


def _singular_alone(m):
    try:
        np.linalg.inv(m)
    except np.linalg.LinAlgError:
        return True
    return False


def singular(a):
    """Whether ``np.linalg.inv`` finds each matrix of the stack ``a``
    singular, as it finds that matrix alone."""
    return np.reshape([_singular_alone(m) for m in a.reshape((-1,) + a.shape[-2:])], a.shape[:-2])


def jet_solve(A, b):
    """Solve ``A s = b`` with jet entries, propagating derivatives.

    ``A`` is a (k, k) jet, or a ``(P, k, k)`` jet of a point set; ``b`` has
    shape ``A.shape[:-1] + (...)`` and is a jet in the same variables, or a
    float array of shape ``(k, ...)``, the same at every point of a set.
    The solution has the shape of ``b`` (with ``A``'s leading axes) and the
    lower order of the two.  Raises :class:`EvaluationDomainError` when the
    value-level matrix is singular (at any point of a set, naming its rows).
    A metric's jet is solved with its kept inverse by :func:`jet_solve_with`.
    """
    try:
        inv = np.linalg.inv(A.value)
    except np.linalg.LinAlgError as exc:
        raise EvaluationDomainError.where(singular(A.value), "singular frame in jet solve") from exc
    return jet_solve_with(A, innermost(inv, 2), b)


def jet_solve_with(A, inv, b):
    """:func:`jet_solve` of ``A s = b`` given ``inv``, the inverse of ``A``'s
    value layer (of each point of a set)."""
    b_is_jet = isinstance(b, Jet)
    n, order = _shared([A, b] if b_is_jet else [A])
    a = A.layers[: order + 1]
    rhs = b.layers[: order + 1] if b_is_jet else [np.asarray(b, dtype=float)]
    # labels of the axes of b after the one that A's rows contract
    tail = "klmnopqrst"[: b.ndim - A.ndim + 1 if b_is_jet else np.ndim(b) - 1]
    s = [np.einsum(f"...ij,...j{tail}->...i{tail}", inv, rhs[0])]
    for r in range(1, order + 1):
        # order r of A s = b: every Leibniz term but A s_r (not yet in s)
        # moves to the right; a constant b has no layer r
        rest = _leibniz(("...ij", f"...j{tail}"), f"...i{tail}", [a, s], r)
        slots = string.ascii_uppercase[:r]
        s.append(np.einsum(f"...ij,...j{tail}{slots}->...i{tail}{slots}", inv, (rhs[r] if r < len(rhs) else 0.0) - rest))
    return Jet(n, s)


@functools.lru_cache(maxsize=None)
def _permutation_signs(k):
    """The ``k``-index permutation symbol: ``eps[s] = sign(s)`` for each
    permutation ``s`` of ``range(k)``, zero elsewhere (read-only)."""
    eps = np.zeros((k,) * k)
    for perm in itertools.permutations(range(k)):
        inversions = sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k))
        eps[perm] = -1.0 if inversions % 2 else 1.0
    eps.flags.writeable = False
    return eps


def jet_cross(rows):
    """Generalized cross product of the rows of a ``(k - 1, k)`` jet (with a
    leading batch axis on a point set): the covector ``c_i = eps_{i a b ...}
    rows[..., 0, a] rows[..., 1, b] ...``, whose entries are the cofactors
    of a first row placed above ``rows``."""
    k = rows.shape[-1]
    i, *idx = string.ascii_letters[:k]
    # the rows past the second one at a time, the last first: one einsum of
    # all the rows sums k^k terms per point
    c, two = _permutation_signs(k), min(k - 1, 2)
    for a in reversed(range(two, k - 1)):
        c = jet_einsum(f"...{i}{''.join(idx[: a + 1])},...{idx[a]}->...{i}{''.join(idx[:a])}", c, rows[..., a, :])
    head = idx[:two]
    return jet_einsum(f"...{i}{''.join(head)},{','.join('...' + a for a in head)}->...{i}", c, *(rows[..., a, :] for a in range(two)))


def jet_compose(outer, inner):
    """Chain rule: ``outer`` is a jet (of any shape) in the m image
    variables, ``inner`` a shape-``(m,)`` jet in the source variables, or
    ``(P, m)`` on a point set, where ``outer`` has the same leading axis.
    Returns the jet of the composition in the source variables, at the
    lower order of the two.  Layer ``r`` is layer ``r - 1`` of
    ``d(f o F) = (Df o F) dF``, a composition one order down contracted
    with the inner partials.  A point is composed as a set of one, whose
    leading axis that contraction names."""
    if inner.ndim == 1:
        return jet_compose(outer[None, ...], inner[None, ...])[0]
    order = min(outer.order, inner.order)
    if order == 0:
        return Jet(inner.n, outer.layers[:1])
    Df = jet_compose(Jet(outer.n, outer.layers[1 : order + 1]), Jet(inner.n, inner.layers[:order]))
    dF = Jet(inner.n, inner.layers[1 : order + 1])
    return Jet(inner.n, outer.layers[:1] + jet_einsum("z...A,zAa->z...a", Df, dF).layers)
