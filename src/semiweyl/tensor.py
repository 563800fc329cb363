"""Pointwise tensor operators: Levi-Civita connection, torsion, curvature,
Ricci and scalar curvature, covariant derivative of the metric, gradients,
divergence-type traces and orthonormal frames.

Ricci and scalar curvature are defined by metric contraction; the
frame-based sums (over an orthonormal frame with signs ``eps_i``) are kept
as independent oracles, see :func:`frame_ricci_values`.
"""

from __future__ import annotations

import numpy as np

from .fields import ConnectionField, DegeneratePointError, MetricField, VectorField
from .jets import Jet, jet_matinv, values_of

__all__ = [
    "degeneracy_threshold",
    "require_nondegenerate",
    "inverse_metric_values",
    "levi_civita",
    "torsion_values",
    "curvature_values",
    "ricci_values",
    "frame_ricci_values",
    "scalar_curvature",
    "nabla_g_values",
    "d_nabla_g_values",
    "gradient",
    "gradient_values",
    "covariant_derivative_of_vector",
    "laplacian",
    "orthonormal_frame",
    "signature",
]


def degeneracy_threshold(gvals):
    scale = max(np.max(np.abs(gvals)), 1e-300)
    return 1e-10 * scale ** gvals.shape[0]


def require_nondegenerate(gvals):
    det = np.linalg.det(gvals)
    if abs(det) <= degeneracy_threshold(gvals):
        raise DegeneratePointError(f"metric degenerate (|det g| = {abs(det):.3e})")
    return det


def inverse_metric_values(g: MetricField, p):
    gvals = g.value(p)
    require_nondegenerate(gvals)
    return np.linalg.inv(gvals)


def _inverse_metric_jets(G):
    require_nondegenerate(values_of(G))
    return jet_matinv(G)


def levi_civita(g: MetricField) -> ConnectionField:
    """Christoffel coefficients of ``g`` as a jet-evaluable connection."""
    n = g.chart.dim

    def fn(p, order):
        G = g.jet(p, order + 1)
        Ginv = _inverse_metric_jets(np.array([[G[i, j].truncate(order) for j in range(n)] for i in range(n)], dtype=object))
        dG = np.empty((n, n, n), dtype=object)  # dG[l, i, j] = d_l g_ij
        for l in range(n):
            for i in range(n):
                for j in range(i, n):
                    dG[l, i, j] = dG[l, j, i] = G[i, j].partial(l)
        out = np.empty((n, n, n), dtype=object)
        for k in range(n):
            for i in range(n):
                for j in range(i, n):
                    acc = None
                    for l in range(n):
                        term = Ginv[k, l] * (dG[i, j, l] + dG[j, i, l] - dG[l, i, j])
                        acc = term if acc is None else acc + term
                    out[k, i, j] = out[k, j, i] = 0.5 * acc
        return out

    return ConnectionField(g.chart, fn)


def torsion_values(conn: ConnectionField, p):
    """Coordinate-frame torsion ``T^k_{ij} = gamma^k_{ij} - gamma^k_{ji}``."""
    G = conn.value(p)
    return G - np.transpose(G, (0, 2, 1))


def curvature_values(conn: ConnectionField, p):
    """``R[l, k, i, j]``: coefficient of ``d_l`` in ``R(d_i, d_j) d_k``."""
    n = conn.chart.dim
    G = conn.jet(p, 1)
    gam = values_of(G)
    dgam = np.empty((n, n, n, n))  # dgam[a, k, i, j] = d_a gamma^k_{ij}
    for idx in np.ndindex((n, n, n)):
        dgam[(slice(None),) + idx] = G[idx].grad
    R = np.empty((n, n, n, n))
    for l in range(n):
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    R[l, k, i, j] = (
                        dgam[i, l, j, k]
                        - dgam[j, l, i, k]
                        + np.dot(gam[l, i, :], gam[:, j, k])
                        - np.dot(gam[l, j, :], gam[:, i, k])
                    )
    return R


def ricci_values(conn: ConnectionField, g: MetricField, p, R=None):
    """``Ric[i, j] = Ric(d_i, d_j)``, by contraction of the curvature."""
    n = conn.chart.dim
    if R is None:
        R = curvature_values(conn, p)
    require_nondegenerate(g.value(p))
    ric = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            ric[i, j] = sum(R[a, j, a, i] for a in range(n))
    return ric


def frame_ricci_values(conn: ConnectionField, g: MetricField, p, R=None):
    """Frame-based Ricci: ``sum_i eps_i g(R(E_i, Y) Z, E_i)`` — test oracle."""
    n = conn.chart.dim
    if R is None:
        R = curvature_values(conn, p)
    gvals = g.value(p)
    E, eps = orthonormal_frame(gvals)
    ric = np.zeros((n, n))
    for yi in range(n):
        for zi in range(n):
            total = 0.0
            for a in range(n):
                # R(E_a, d_yi) d_zi = E_a^i R^l_{zi, i, yi} d_l
                vec = np.einsum("i,li->l", E[:, a], R[:, zi, :, yi])
                total += eps[a] * float(vec @ gvals @ E[:, a])
            ric[yi, zi] = total
    return ric


def scalar_curvature(conn: ConnectionField, g: MetricField, p, R=None):
    n = conn.chart.dim
    ric = ricci_values(conn, g, p, R=R)
    ginv = inverse_metric_values(g, p)
    return float(np.einsum("ij,ij->", ginv, ric))


def nabla_g_values(conn: ConnectionField, g: MetricField, p):
    """``(nabla_{d_a} g)(d_i, d_j)`` as an ``[a, i, j]`` array."""
    n = conn.chart.dim
    G = g.jet(p, 1)
    gvals = values_of(G)
    dg = np.empty((n, n, n))
    for i in range(n):
        for j in range(n):
            dg[:, i, j] = G[i, j].grad
    gam = conn.value(p)
    out = np.empty((n, n, n))
    for a in range(n):
        out[a] = dg[a] - np.einsum("mi,mj->ij", gam[:, a, :], gvals) - np.einsum("mj,im->ij", gam[:, a, :], gvals)
    return out


def d_nabla_g_values(conn: ConnectionField, g: MetricField, p):
    """``(d^nabla g)(X, Y, Z) = (nabla_X g)(Y,Z) - (nabla_Y g)(X,Z) + g(T(X,Y),Z)``."""
    ng = nabla_g_values(conn, g, p)
    gvals = g.value(p)
    T = torsion_values(conn, p)
    tg = np.einsum("mij,mk->ijk", T, gvals)
    return ng - np.transpose(ng, (1, 0, 2)) + tg


def gradient(g: MetricField, f) -> VectorField:
    """Metric gradient ``(grad f)^k = g^{kl} d_l f`` as a vector field."""
    n = g.chart.dim

    def fn(p, order):
        G = g.jet(p, order)
        Ginv = _inverse_metric_jets(G)
        fj = f.jet(p, order + 1)
        out = np.empty(n, dtype=object)
        for k in range(n):
            acc = None
            for l in range(n):
                term = Ginv[k, l] * fj.partial(l)
                acc = term if acc is None else acc + term
            out[k] = acc
        return out

    return VectorField(g.chart, fn)


def gradient_values(g: MetricField, f, p):
    ginv = inverse_metric_values(g, p)
    fj = f.jet(p, 1)
    return ginv @ fj.grad


def covariant_derivative_of_vector(conn: ConnectionField, V: VectorField, p, order=0):
    """``(nabla_{d_a} V)^k`` as an ``[a, k]`` array (of jets when order > 0)."""
    n = conn.chart.dim
    Vj = V.jet(p, order + 1)
    gam = conn.jet(p, order)
    out = np.empty((n, n), dtype=object)
    for a in range(n):
        for k in range(n):
            acc = Vj[k].partial(a)
            for m in range(n):
                acc = acc + gam[k, a, m] * Vj[m].truncate(order)
            out[a, k] = acc
    if order == 0:
        return values_of(out)
    return out


def laplacian(conn: ConnectionField, g: MetricField, f, p):
    """``Delta^{(nabla, g)} f = sum_i eps_i g(nabla_{E_i} grad f, E_i)``,
    computed by metric contraction."""
    grad_f = gradient(g, f)
    dV = covariant_derivative_of_vector(conn, grad_f, p)
    gvals = g.value(p)
    ginv = np.linalg.inv(gvals)
    return float(np.einsum("ab,ak,kb->", ginv, dV, gvals))


def orthonormal_frame(gvals):
    """Orthonormal frame for a symmetric matrix via eigendecomposition.

    Returns ``(E, eps)`` with frame vectors in the columns of ``E`` and
    ``gvals @ E`` satisfying ``E_i . g . E_j = eps_i delta_ij``.  Eigenvalues
    are sorted ascending, so the negative signs come first.
    """
    gvals = np.asarray(gvals, dtype=float)
    require_nondegenerate(gvals)
    lam, V = np.linalg.eigh(gvals)
    E = V / np.sqrt(np.abs(lam))
    eps = np.sign(lam)
    return E, eps


def signature(gvals):
    """Positivity and negativity indices ``(i_p, i_n)``."""
    _, eps = orthonormal_frame(gvals)
    i_n = int(np.sum(eps < 0))
    return len(eps) - i_n, i_n
