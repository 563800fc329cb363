"""Pointwise tensor operators: Levi-Civita connection, torsion, curvature,
Ricci and scalar curvature, covariant derivative of the metric, gradients
and orthonormal frames.  The ``*_values`` functions, the threshold tests,
the array helpers and :func:`orthonormal_frame` take a point or a point
set, whose arrays carry a leading axis over its points; :func:`signature`
takes a point.

Torsion, curvature, Ricci, scalar curvature, ``nabla g`` and the inverse
metric are fields of their connection (and metric)
(:func:`~semiweyl.fields._values_field`), so each is computed once per
points in the running result store, like any field's results.  The
inverse metric is the non-degeneracy test of a metric field: it raises
:class:`~semiweyl.fields.DegeneratePointError` where the metric is
degenerate (:func:`require_nondegenerate_metric`), and the one inversion of
its values, which every solve against a metric's jet reads
(:func:`~semiweyl.jets.jet_solve_with`).  The array form,
:func:`require_nondegenerate`, serves matrices that are no field's values,
such as those of :func:`signature`; :func:`orthonormal_frame` takes a
matrix that its caller has tested.

Ricci and scalar curvature are defined by metric contraction.
"""

from __future__ import annotations

import numpy as np

from .fields import ConnectionField, DegeneratePointError, MetricField, VectorField, _values_field, kept
from .jets import _pow, innermost, jet_einsum, jet_solve_with, partials

__all__ = [
    "degeneracy_threshold",
    "require_nondegenerate",
    "require_nondegenerate_metric",
    "inverse_metric_values",
    "levi_civita",
    "torsion_values",
    "curvature_values",
    "ricci_values",
    "scalar_curvature",
    "nabla_g_values",
    "covariant_derivative_of_form",
    "wedge_g",
    "codazzi_defect",
    "gradient",
    "covariant_derivative_of_vector",
    "orthonormal_frame",
    "signature",
]


def degeneracy_threshold(gvals):
    """The |det| below which the (k, k) matrix ``gvals`` counts as
    degenerate, per matrix of a stack ``(P, k, k)``; its power goes through
    a float's ``**``, as at a point alone (see ``jets._pow``)."""
    scale = np.maximum(np.abs(gvals).max(axis=(-2, -1)), 1e-300)
    return 1e-10 * _pow(scale, gvals.shape[-1])


def require_nondegenerate(gvals):
    """Raise :class:`DegeneratePointError` when ``gvals``, or any matrix of a
    stack of them, is degenerate."""
    det = np.abs(np.linalg.det(gvals))
    if (bad := det <= degeneracy_threshold(gvals)).any():
        raise DegeneratePointError.where(bad, lambda at: f"metric degenerate (|det g| = {np.min(det[at]):.3e})")


@_values_field
def inverse_metric_values(g: MetricField, p):
    """``g^{kl}``, which raises :class:`DegeneratePointError` where ``g`` is
    degenerate: the one non-degeneracy test of a metric field."""
    gvals = g.value(p)
    require_nondegenerate(gvals)
    return innermost(np.linalg.inv(gvals), 2)


def require_nondegenerate_metric(g: MetricField, p):
    """Raise :class:`DegeneratePointError` where the metric field ``g`` is
    degenerate at ``p``: the test of :func:`inverse_metric_values`."""
    inverse_metric_values(g, p)


def levi_civita(g: MetricField) -> ConnectionField:
    """Christoffel coefficients of ``g`` as a jet-evaluable connection."""

    def fn(p, order):
        G = g.jet(p, order + 1)
        dG = partials(G)  # dG[i, j, l] = d_l g_ij
        # first kind: (d_i g_jl + d_j g_il - d_l g_ij) / 2 as [l, i, j]
        lower = (dG.transpose(1, 2, 0) + dG.transpose(1, 0, 2) - dG.transpose(2, 0, 1)) * 0.5
        return jet_solve_with(G, inverse_metric_values(g, p), lower)  # g^{kl} lower[l, i, j]

    return ConnectionField(g.chart, fn)


@_values_field
def torsion_values(conn: ConnectionField, p):
    """Coordinate-frame torsion ``T^k_{ij} = gamma^k_{ij} - gamma^k_{ji}``."""
    G = conn.value(p)
    return G - G.swapaxes(-1, -2)


@_values_field
def curvature_values(conn: ConnectionField, p):
    """``R[l, k, i, j]``: coefficient of ``d_l`` in ``R(d_i, d_j) d_k``."""
    G = conn.jet(p, 1)
    gam = G.value
    dgam = G.grad  # dgam[k, i, j, a] = d_a gamma^k_{ij}
    return (
        np.einsum("...ljki->...lkij", dgam)
        - np.einsum("...likj->...lkij", dgam)
        + np.einsum("...lim,...mjk->...lkij", gam, gam)
        - np.einsum("...ljm,...mik->...lkij", gam, gam)
    )


@_values_field
def ricci_values(conn: ConnectionField, g: MetricField, p):
    """``Ric[i, j] = Ric(d_i, d_j)``, by contraction of the curvature."""
    R = curvature_values(conn, p)
    require_nondegenerate_metric(g, p)
    return np.einsum("...ajai->...ij", R)


@_values_field
def scalar_curvature(conn: ConnectionField, g: MetricField, p):
    ric = ricci_values(conn, g, p)
    ginv = inverse_metric_values(g, p)
    return np.einsum("...ij,...ij->...", ginv, ric)


@_values_field
def nabla_g_values(conn: ConnectionField, g: MetricField, p):
    """``(nabla_{d_a} g)(d_i, d_j)`` as an ``[a, i, j]`` array."""
    G = g.jet(p, 1)  # G.grad[i, j, a] = d_a g_ij
    return covariant_derivative_of_form(G.grad.transpose(*range(G.ndim - 2), -1, -3, -2), conn.value(p), G.value)


def covariant_derivative_of_form(dT, gam, T):
    """``(nabla_{d_a} T)(d_i, d_j) = d_a T_ij - gam^m_{ai} T_mj - gam^m_{aj}
    T_im`` as an ``[a, i, j]`` array, for a (0,2) tensor ``T`` with
    ``dT[a, i, j] = d_a T_ij`` and connection coefficients ``gam``."""
    return dT - np.einsum("...mai,...mj->...aij", gam, T) - np.einsum("...maj,...im->...aij", gam, T)


def wedge_g(a, g):
    """``(a wedge g)(X, Y, Z) = a(X) g(Y,Z) - a(Y) g(X,Z)`` as an ``[X, Y, Z]``
    array."""
    w = np.einsum("...i,...jk->...ijk", a, g)
    return w - w.swapaxes(-3, -2)


def codazzi_defect(ng, g, T=None, eta=None):
    """``(nabla_X g)(Y,Z) - (nabla_Y g)(X,Z) + g(T(X,Y),Z) + (eta wedge
    g)(X,Y,Z)`` as an ``[X, Y, Z]`` array, from ``ng[a, i, j] = (nabla_{d_a}
    g)(d_i, d_j)``; no torsion or one-form term when ``T`` or ``eta`` is
    ``None``.  It vanishes exactly when the (eta-weighted) torsion-Codazzi
    condition holds."""
    out = ng - ng.swapaxes(-3, -2)
    if T is not None:
        out = out + np.einsum("...mij,...mk->...ijk", T, g)
    if eta is not None:
        out = out + wedge_g(eta, g)
    return out


@kept
def gradient(g: MetricField, f) -> VectorField:
    """Metric gradient ``(grad f)^k = g^{kl} d_l f`` as a vector field."""

    def fn(p, order):
        G, df = g.jet(p, order), partials(f.jet(p, order + 1))
        return jet_solve_with(G, inverse_metric_values(g, p), df)

    return VectorField(g.chart, fn)


def covariant_derivative_of_vector(conn: ConnectionField, V: VectorField, p):
    """``(nabla_{d_a} V)^k`` as an ``[a, k]`` array."""
    Vj = V.jet(p, 1)
    return (partials(Vj).T + jet_einsum("...kam,...m->...ak", conn.jet(p, 0), Vj)).value


def orthonormal_frame(gvals):
    """Orthonormal frame for a non-degenerate symmetric matrix via
    eigendecomposition.

    Returns ``(E, eps)`` with frame vectors in the columns of ``E`` and
    ``gvals @ E`` satisfying ``E_i . g . E_j = eps_i delta_ij``.  Eigenvalues
    are sorted ascending, so the negative signs come first.
    """
    lam, V = np.linalg.eigh(gvals)
    lam, V = innermost(lam, 1), innermost(V, 2)
    E = V / np.sqrt(np.abs(lam))[..., None, :]
    eps = np.sign(lam)
    return E, eps


def signature(gvals):
    """Positivity and negativity indices ``(i_p, i_n)`` of a matrix, which
    raises :class:`DegeneratePointError` where it is degenerate."""
    gvals = np.asarray(gvals, dtype=float)
    require_nondegenerate(gvals)
    _, eps = orthonormal_frame(gvals)
    i_n = int(np.sum(eps < 0))
    return len(eps) - i_n, i_n
