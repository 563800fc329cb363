"""Truncated Taylor (jet) arithmetic up to third order.

A ``Jet`` carries the value of a smooth function at a point together with
its partial derivatives up to a fixed order (0 to 3).  Arithmetic on jets
implements the product and chain rules exactly, so any quantity assembled
from jets carries exact derivatives of the assembly.

Modules combine object arrays of jets through four helpers, which gather
each operand once into dense value/grad/hess/third layers and scatter the
result back into jets: :func:`jet_einsum` contracts them by the Leibniz
rule, :func:`partials` appends a derivative axis, :func:`jet_solve` solves
linear systems (differentiating ``A(x) s(x) = b(x)`` order by order) and
:func:`jet_compose` applies the chain rule.  Elementwise sums, negation and
scaling are plain object-array arithmetic (``G + K``, ``-K``, ``G * f``).
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
    "EvaluationDomainError",
    "jet_solve",
    "jet_matinv",
    "jet_det",
    "jet_compose",
    "jet_einsum",
    "partials",
    "constant_jets",
    "values_of",
]


class JetOrderError(ValueError):
    """Requested derivative order not carried by the operand."""


class EvaluationDomainError(ArithmeticError):
    """Evaluation hit a point outside the domain of a primitive
    (division by zero, log/sqrt of a non-positive value)."""


class Jet:
    """Value plus partial derivatives up to ``order`` in ``n`` variables."""

    __slots__ = ("n", "order", "value", "grad", "hess", "third")

    def __init__(self, n, order, value, grad=None, hess=None, third=None):
        if not 0 <= order <= 3:
            raise JetOrderError(f"jet order must be in 0..3, got {order}")
        self.n = n
        self.order = order
        self.value = float(value)
        self.grad = grad if grad is not None else (np.zeros(n) if order >= 1 else None)
        self.hess = hess if hess is not None else (np.zeros((n, n)) if order >= 2 else None)
        self.third = third if third is not None else (np.zeros((n, n, n)) if order >= 3 else None)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def constant(c, n, order):
        return Jet(n, order, c)

    @staticmethod
    def coordinate(value, index, n, order):
        j = Jet(n, order, value)
        if order >= 1:
            j.grad[index] = 1.0
        return j

    # -- basic queries -----------------------------------------------------

    def is_finite(self):
        ok = math.isfinite(self.value)
        if ok and self.order >= 1:
            ok = bool(np.all(np.isfinite(self.grad)))
        if ok and self.order >= 2:
            ok = bool(np.all(np.isfinite(self.hess)))
        if ok and self.order >= 3:
            ok = bool(np.all(np.isfinite(self.third)))
        return ok

    def partial(self, i):
        """Jet of ``d/dx_i`` of this function, one order lower."""
        if self.order < 1:
            raise JetOrderError("partial() needs a jet of order >= 1")
        return Jet(
            self.n,
            self.order - 1,
            self.grad[i],
            self.hess[i].copy() if self.order >= 2 else None,
            self.third[i].copy() if self.order >= 3 else None,
        )

    def truncate(self, order):
        if order > self.order:
            raise JetOrderError(f"cannot raise jet order {self.order} -> {order}")
        return Jet(
            self.n,
            order,
            self.value,
            self.grad if order >= 1 else None,
            self.hess if order >= 2 else None,
            self.third if order >= 3 else None,
        )

    def __repr__(self):
        return f"Jet(value={self.value!r}, order={self.order}, n={self.n})"

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.n != self.n:
                raise ValueError("jet dimension mismatch")
            if other.order != self.order:
                o = min(self.order, other.order)
                return self.truncate(o), other.truncate(o)
            return self, other
        return self, Jet.constant(float(other), self.n, self.order)

    def __add__(self, other):
        a, b = self._coerce(other)
        return Jet(
            a.n,
            a.order,
            a.value + b.value,
            a.grad + b.grad if a.order >= 1 else None,
            a.hess + b.hess if a.order >= 2 else None,
            a.third + b.third if a.order >= 3 else None,
        )

    __radd__ = __add__

    def __neg__(self):
        return Jet(
            self.n,
            self.order,
            -self.value,
            -self.grad if self.order >= 1 else None,
            -self.hess if self.order >= 2 else None,
            -self.third if self.order >= 3 else None,
        )

    def __sub__(self, other):
        a, b = self._coerce(other)
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._coerce(other)
        o = a.order
        value = a.value * b.value
        grad = hess = third = None
        if o >= 1:
            grad = a.value * b.grad + b.value * a.grad
        if o >= 2:
            hess = (
                a.value * b.hess
                + b.value * a.hess
                + np.outer(a.grad, b.grad)
                + np.outer(b.grad, a.grad)
            )
        if o >= 3:
            third = a.value * b.third + b.value * a.third
            for u, v in ((a, b), (b, a)):
                third = third + (
                    np.einsum("i,jk->ijk", u.grad, v.hess)
                    + np.einsum("j,ik->ijk", u.grad, v.hess)
                    + np.einsum("k,ij->ijk", u.grad, v.hess)
                )
        return Jet(a.n, o, value, grad, hess, third)

    __rmul__ = __mul__

    def compose_scalar(self, derivs):
        """Chain rule through a univariate function.

        ``derivs`` holds the outer function's value and derivatives at
        ``self.value``, up to ``self.order``.
        """
        o = self.order
        f0 = derivs[0]
        grad = hess = third = None
        if o >= 1:
            f1 = derivs[1]
            grad = f1 * self.grad
        if o >= 2:
            f2 = derivs[2]
            g = self.grad
            hess = f1 * self.hess + f2 * np.outer(g, g)
        if o >= 3:
            f3 = derivs[3]
            g = self.grad
            h = self.hess
            third = (
                f1 * self.third
                + f2
                * (
                    np.einsum("i,jk->ijk", g, h)
                    + np.einsum("j,ik->ijk", g, h)
                    + np.einsum("k,ij->ijk", g, h)
                )
                + f3 * np.einsum("i,j,k->ijk", g, g, g)
            )
        return Jet(self.n, o, f0, grad, hess, third)

    def reciprocal(self):
        v = self.value
        if v == 0.0 or not math.isfinite(v):
            raise EvaluationDomainError("division by zero")
        return self.compose_scalar(
            (1.0 / v, -1.0 / v**2, 2.0 / v**3, -6.0 / v**4)[: self.order + 1]
        )

    def __truediv__(self, other):
        a, b = self._coerce(other)
        return a * b.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, k):
        k = int(k)
        v = self.value
        if k == 0:
            return Jet.constant(1.0, self.n, self.order)
        if k < 0 and v == 0.0:
            raise EvaluationDomainError("zero raised to a negative power")
        derivs = []
        c = 1.0
        for r in range(self.order + 1):
            e = k - r
            derivs.append(c * (v**e if (e >= 0 or v != 0.0) else 0.0))
            c *= k - r
        return self.compose_scalar(derivs)

    # -- elementary functions -------------------------------------------------

    def exp(self):
        e = math.exp(self.value)
        return self.compose_scalar((e,) * (self.order + 1))

    def log(self):
        v = self.value
        if v <= 0.0:
            raise EvaluationDomainError("log of a non-positive value")
        return self.compose_scalar(
            (math.log(v), 1.0 / v, -1.0 / v**2, 2.0 / v**3)[: self.order + 1]
        )

    def sin(self):
        s, c = math.sin(self.value), math.cos(self.value)
        return self.compose_scalar((s, c, -s, -c)[: self.order + 1])

    def cos(self):
        s, c = math.sin(self.value), math.cos(self.value)
        return self.compose_scalar((c, -s, -c, s)[: self.order + 1])

    def sqrt(self):
        v = self.value
        if v < 0.0 or (v == 0.0 and self.order >= 1):
            raise EvaluationDomainError("sqrt of a negative value")
        r = math.sqrt(v)
        derivs = [r]
        if self.order >= 1:
            derivs.append(0.5 / r)
        if self.order >= 2:
            derivs.append(-0.25 / r**3)
        if self.order >= 3:
            derivs.append(0.375 / r**5)
        return self.compose_scalar(derivs)


# -- dense layers and contractions -------------------------------------------
#
# The helpers below gather the jets of each operand once into dense layers
# (value, grad, hess, third; layer ``r`` has the operand's shape followed by
# ``r`` derivative axes), combine the layers with ``np.einsum`` and scatter
# the result back into jets.


def _as_jets(x):
    """``x`` as an object array of jets, or ``None`` when it holds floats."""
    if isinstance(x, Jet):
        out = np.empty((), dtype=object)
        out[()] = x
        return out
    x = np.asarray(x)
    return x if x.dtype == object else None


def _common(arrays):
    """Variable count shared by the jets in ``arrays`` and their lowest
    order (the order a product truncates to, as in ``Jet._coerce``)."""
    jets = [j for a in arrays for j in a.flat]
    ns = {j.n for j in jets}
    if len(ns) != 1:
        raise ValueError("jet dimension mismatch")
    return ns.pop(), min(j.order for j in jets)


def _layers(J, n, order):
    """Dense ``[value, grad, hess, third][: order + 1]`` of an object array
    of jets in ``n`` variables."""
    flat = J.ravel()
    out = [values_of(J)]
    for r, name in enumerate(("grad", "hess", "third")[:order], start=1):
        out.append(np.array([getattr(j, name) for j in flat], dtype=float).reshape(J.shape + (n,) * r))
    return out


def _scatter(layers, n):
    """Object array of jets in ``n`` variables from dense layers."""
    shape = layers[0].shape
    out = np.empty(shape, dtype=object)
    flat = out.reshape(-1)
    rows = [L.reshape((-1,) + L.shape[len(shape):]) for L in layers]
    for i, parts in enumerate(zip(*rows)):
        flat[i] = Jet(n, len(layers) - 1, *parts)
    return out


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
    """``np.einsum`` over object arrays of jets, with exact derivatives.

    Float arrays count as constants.  Each jet operand is gathered once into
    dense layers and the product rule is applied up to the lowest operand
    order (the truncation ``Jet._coerce`` does).  Subscripts must be in
    explicit ``...->...`` form.  Returns an object array of jets, or a jet
    for a scalar output; with no jet operand it is plain ``np.einsum``.
    """
    arrays = [_as_jets(op) for op in operands]
    jets = [a for a in arrays if a is not None]
    if not jets:
        return np.einsum(subscripts, *operands)
    inputs, output = subscripts.replace(" ", "").split("->")
    n, order = _common(jets)
    layers = [[np.asarray(op, dtype=float)] if a is None else _layers(a, n, order) for op, a in zip(operands, arrays)]
    out = _scatter([_leibniz(inputs.split(","), output, layers, r) for r in range(order + 1)], n)
    return out[()]  # the jet itself for a scalar output


def partials(J):
    """First partials of an object array of jets, one order lower, on a new
    last axis: ``out[..., a] = J[...].partial(a)``."""
    J = _as_jets(J)
    n, order = _common([J])
    if order < 1:
        raise JetOrderError("partials() needs jets of order >= 1")
    return _scatter(_layers(J, n, order)[1:], n)


def constant_jets(values, n, order):
    """Object array of constant jets with the shape of ``values``."""
    values = np.asarray(values, dtype=float)
    return _scatter([values] + [np.zeros(values.shape + (n,) * r) for r in range(1, order + 1)], n)


def values_of(jets):
    """Float array of the values of an object array of jets."""
    jets = np.asarray(jets, dtype=object)
    return np.array([j.value for j in jets.flat], dtype=float).reshape(jets.shape)


def jet_solve(A, b):
    """Solve ``A s = b`` with jet entries, propagating derivatives.

    ``A`` is a (k, k) object array of jets; ``b`` has shape ``(k, ...)`` and
    holds jets in the same variables, or floats.  The solution has the shape
    of ``b`` and the lower order of the two.  Raises
    :class:`EvaluationDomainError` when the value-level matrix is singular.
    """
    A = np.asarray(A, dtype=object)
    b_jets = _as_jets(b)
    n, order = _common([A] if b_jets is None else [A, b_jets])
    a = _layers(A, n, order)
    shape = np.shape(b)
    k = shape[0]
    b_layers = [np.asarray(b, dtype=float)] if b_jets is None else _layers(b_jets, n, order)
    rhs = [L.reshape((k, -1) + L.shape[len(shape):]) for L in b_layers]
    try:
        inv = np.linalg.inv(a[0])
    except np.linalg.LinAlgError as exc:
        raise EvaluationDomainError("singular frame in jet solve") from exc
    s = [inv @ rhs[0]]
    for r in range(1, order + 1):
        # order r of A s = b: every Leibniz term but A s_r (not yet in s)
        # moves to the right; a constant b has no layer r
        rest = _leibniz(("ij", "jm"), "im", [a, s], r)
        s.append(np.einsum("ij,jm...->im...", inv, (rhs[r] if r < len(rhs) else 0.0) - rest))
    return _scatter([x.reshape(shape + x.shape[2:]) for x in s], n)


def jet_matinv(A):
    """Inverse of a jet-valued square matrix."""
    A = np.asarray(A, dtype=object)
    return jet_solve(A, np.eye(A.shape[0]))


def jet_det(A):
    """Determinant of a jet-valued square matrix by cofactor expansion."""
    A = np.asarray(A, dtype=object)
    k = A.shape[0]
    if k == 1:
        return A[0, 0]
    if k == 2:
        return A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    terms = [A[0, j] * jet_det(np.delete(np.delete(A, 0, axis=0), j, axis=1)) for j in range(k)]
    return sum((-t if j % 2 else t for j, t in enumerate(terms[1:], start=1)), terms[0])


def jet_compose(outer, inner):
    """Chain rule: ``outer`` is a jet, or an object array of jets, in the m
    image variables, ``inner`` a length-m object array of jets in the source
    variables.  Returns the jet(s) of the composition in the source
    variables, at the lower order of the two."""
    inner = np.asarray(inner, dtype=object)
    outer = _as_jets(outer)
    m, outer_order = _common([outer])
    n, order = _common([inner])
    order = min(order, outer_order)
    _, J, H, T = _layers(inner, n, order) + [None] * (3 - order)
    o = _layers(outer, m, order)
    layers = [o[0]]
    if order >= 1:
        layers.append(np.einsum("...a,ai->...i", o[1], J))
    if order >= 2:
        layers.append(np.einsum("...ab,ai,bj->...ij", o[2], J, J) + np.einsum("...a,aij->...ij", o[1], H))
    if order >= 3:
        layers.append(
            np.einsum("...abc,ai,bj,ck->...ijk", o[3], J, J, J)
            + np.einsum("...ab,aij,bk->...ijk", o[2], H, J)
            + np.einsum("...ab,aik,bj->...ijk", o[2], H, J)
            + np.einsum("...ab,ajk,bi->...ijk", o[2], H, J)
            + np.einsum("...a,aijk->...ijk", o[1], T)
        )
    return _scatter(layers, n)[()]  # the jet itself for a scalar outer
