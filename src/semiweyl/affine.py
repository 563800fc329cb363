"""Realization of metric/one-form/connection structures by affine
distributions: a frame of n+1 ambient directions (the image of a one-form
``omega`` plus a transversal ``xi``) whose derivative equations define a
metric, a connection, a one-form and a shape operator on the base."""

from __future__ import annotations

import numpy as np

from .fields import Chart, ConnectionField, MetricField, OneFormField, ScalarField, VectorField, _Field, kept
from .jets import jet_einsum, jet_solve, jet_stack, partials
from .structures import Structure, swmt_residual
from .tensor import (
    codazzi_defect,
    covariant_derivative_of_vector,
    curvature_values,
    gradient,
    nabla_g_values,
    orthonormal_frame,
    require_nondegenerate_metric,
    ricci_values,
    scalar_curvature,
    torsion_values,
    wedge_g,
)
from .verdicts import RunConfig, row_max, run_laws, run_pointwise_check

__all__ = [
    "AffineDistribution",
    "realized_structure",
    "check_realization",
    "check_realization_curvature_law",
    "check_realization_ricci_scalar",
    "check_shape_proportional_scalar",
    "xi_rescaled",
    "check_xi_rescale_laws",
    "check_xi_rescale_structure",
    "check_xi_rescale_codazzi",
]


def _ambient_vector(chart, components, what):
    """A field of n+1 component expressions (``what`` names it in errors)."""
    v = VectorField.from_expressions(chart, components)
    if len(v.expressions) != chart.dim + 1:
        raise ValueError(f"{what} needs n+1 components")
    return v


class AffineDistribution:
    """``omega`` maps tangent vectors to an (n+1)-dimensional ambient space
    and ``xi`` is a transversal ambient direction; together they must frame
    the ambient space at every base point."""

    def __init__(self, chart: Chart, omega_fn, xi_fn):
        self.chart = chart
        # (p, order) -> (n+1, n) and (n+1,) jets; the expression-backed ones
        # read fields, which keep their jets, so a distribution and its
        # rescalings share one evaluation of omega
        self.omega_fn = omega_fn
        self.xi_fn = xi_fn

    @classmethod
    def from_immersion(cls, chart: Chart, components, xi_components):
        """``omega`` is the differential of the immersion given by
        ``components`` (n+1 expressions in the chart coordinates); ``xi``
        is an ambient-vector field along it (n+1 expressions)."""
        immersion = _ambient_vector(chart, components, "an immersion into n+1 dimensions")
        xi = _ambient_vector(chart, xi_components, "xi")
        return cls(chart, lambda p, order: partials(immersion.jet(p, order + 1)), xi.jet)

    @classmethod
    def from_expressions(cls, chart: Chart, omega, xi_components):
        n = chart.dim
        if len(omega) != n + 1 or any(len(row) != n for row in omega):
            raise ValueError("omega must be (n+1) x n")
        rows = VectorField.from_expressions(chart, [e for row in omega for e in row])
        xi = _ambient_vector(chart, xi_components, "xi")
        return cls(chart, lambda p, order: rows.jet(p, order).reshape(p.shape[:-1] + (n + 1, n)), xi.jet)

    def frame(self, p, order):
        """The (n+1) x (n+1) jet matrix whose columns are the omega images
        of the coordinate vectors followed by xi."""
        omega = self.omega_fn(p, order)
        return jet_stack([*(omega[..., j] for j in range(self.chart.dim)), self.xi_fn(p, order)], axis=-1)

    def decompose(self, p, order):
        """Solve the frame equations at a point: returns jets
        ``(gamma[k,i,j], g[i,j], B[l,i], eta[i])`` with
        ``d_i(omega e_j) = omega(gamma^._ij) + g_ij xi`` and
        ``d_i xi = -omega(B e_i) + eta_i xi``.

        The solves are kept like any field's results, per point and order,
        so the metric, one-form, connection and shape operator of
        :func:`realized_structure` share them; the arrays are read-only."""
        return _solved(self).jet(p, order)


@kept
def _solved(dist: AffineDistribution) -> _Field:
    """:meth:`AffineDistribution.decompose` of ``dist``, a field."""
    n = dist.chart.dim

    def fn(p, order):
        A = dist.frame(p, order + 1)
        # d_i of the frame columns as [l, i, j]: omega e_j for j < n, xi for
        # j = n; one solve for both
        sol = jet_solve(A, partials(A).transpose(0, 2, 1))
        conn_part, xi_part = sol[..., :n], sol[..., n]
        return conn_part[..., :n, :, :], conn_part[..., n, :, :], -xi_part[..., :n, :], xi_part[..., n, :]

    return _Field(dist.chart, fn)


@kept
def realized_structure(dist: AffineDistribution):
    """The structure defined by the frame equations, plus the shape
    operator as a ``(p, order) -> B[l, i]`` function.  The raw metric
    entries are symmetrized; the symmetry defect is a separate check."""
    chart = dist.chart

    def g_fn(p, order):
        _, g, _, _ = dist.decompose(p, order)
        return (g + g.T) * 0.5

    def eta_fn(p, order):
        _, _, _, eta = dist.decompose(p, order)
        return eta

    def conn_fn(p, order):
        gamma, _, _, _ = dist.decompose(p, order)
        return gamma

    def B_fn(p, order):
        _, _, B, _ = dist.decompose(p, order)
        return B

    s = Structure(chart, MetricField(chart, g_fn), OneFormField(chart, eta_fn), ConnectionField(chart, conn_fn))
    return s, B_fn


def check_realization(dist: AffineDistribution, config: RunConfig):
    """The realized metric is symmetric and the realized structure
    satisfies the eta-weighted torsion-Codazzi condition."""
    s, _ = realized_structure(dist)

    def symm_fn(p):
        _, g, _, _ = dist.decompose(p, 0)
        gv = g.value
        return row_max(gv - gv.swapaxes(-1, -2), p), 1.0 + row_max(gv, p)

    return run_laws(dist.chart, config, [
        ("realization_metric_symmetry", symm_fn, None, "frame-equation metric is symmetric"),
        ("realization_swmt", swmt_residual(s), None,
         "realized structure satisfies the eta-weighted torsion-Codazzi condition"),
    ])


def check_realization_curvature_law(dist: AffineDistribution, config: RunConfig):
    """``R(X,Y)Z = g(Y,Z) B(X) - g(X,Z) B(Y)`` for the realized data."""
    s, B_fn = realized_structure(dist)

    def fn(p):
        require_nondegenerate_metric(s.g, p)
        R = curvature_values(s.conn, p)
        gv = s.g.value(p)
        Bv = B_fn(p, 0).value
        rhs = np.einsum("...jk,...li->...lkij", gv, Bv) - np.einsum("...ik,...lj->...lkij", gv, Bv)
        return row_max(R - rhs, p), 1.0 + row_max(R, p) + row_max(rhs, p)

    return [run_pointwise_check("realization_curvature_law", dist.chart, fn, config,
                                detail="curvature of the realized connection is the metric/shape bilinear combination")]


def check_realization_ricci_scalar(dist: AffineDistribution, config: RunConfig):
    """Ricci and scalar curvature of the realized structure in terms of an
    orthonormal-frame trace of the shape operator, and the antisymmetric
    part of Ricci against the shape defect."""
    s, B_fn = realized_structure(dist)
    n = dist.chart.dim

    def fn(p):
        gv = s.g.value(p)
        require_nondegenerate_metric(s.g, p)
        Bv = B_fn(p, 0).value
        E, eps = orthonormal_frame(gv)
        # gBE[i] = g(B(E_i), E_i)
        BE = np.einsum("...lm,...mi->...li", Bv, E)
        gBEE = np.einsum("...li,...lm,...mi->...i", BE, gv, E)
        trB = np.vecdot(eps, gBEE)
        ric = ricci_values(s.conn, s.g, p)
        # Ric(Y,Z) = g(Y,Z) trB - sum_i eps_i g(E_i, Z) g(B(Y), E_i)
        gE = np.einsum("...ml,...li->...mi", gv, E)  # gE[m, i] = g(e_m, E_i)
        gB = np.einsum("...ml,...lj->...mj", gv, Bv)  # gB[m, j] = g(B(e_j), e_m)
        gBE = np.einsum("...mj,...mi->...ji", gB, E)  # gBE[j, i] = g(B(e_j), E_i)
        second = np.einsum("...i,...ki,...ji->...jk", eps, gE, gBE)
        ric_rhs = gv * trB[..., None, None] - second
        r1 = row_max(ric - ric_rhs, p)
        scal = scalar_curvature(s.conn, s.g, p)
        r2 = abs(scal - (n - 1) * trB)
        # antisymmetric part: Ric(Y,Z) - Ric(Z,Y) = g(B(Z),Y) - g(B(Y),Z)
        r3 = row_max((ric - ric.swapaxes(-1, -2)) - (gB - gB.swapaxes(-1, -2)), p)
        scale = 1.0 + row_max(ric, p) + abs(scal) + row_max(ric_rhs, p)
        return np.maximum.reduce([r1, r2, r3]), scale

    return [run_pointwise_check("realization_ricci_scalar", dist.chart, fn, config,
                                detail="Ricci/scalar of the realized structure from frame traces of the shape operator")]


def check_shape_proportional_scalar(dist: AffineDistribution, config: RunConfig):
    """Where the shape operator is a multiple ``c`` of the identity, the
    Ricci tensor is symmetric and the scalar curvature equals
    ``c n (n-1)`` (the frame trace of ``c I`` squares the frame signs, so
    no signature difference enters)."""
    s, B_fn = realized_structure(dist)
    n = dist.chart.dim

    def fn(p):
        gv = s.g.value(p)
        require_nondegenerate_metric(s.g, p)
        Bv = B_fn(p, 0).value
        c = np.trace(Bv, axis1=-2, axis2=-1) / n
        off = row_max(Bv - c[..., None, None] * np.eye(n), p) > config.tol * (1.0 + row_max(Bv, p))
        scal = scalar_curvature(s.conn, s.g, p)
        ric = ricci_values(s.conn, s.g, p)
        res = np.maximum(abs(scal - c * n * (n - 1)), row_max(ric - ric.swapaxes(-1, -2), p))
        reason = np.where(off, "shape operator is not proportional to the identity here", "")
        return res, 1.0 + abs(scal) + row_max(ric, p), reason

    return [run_pointwise_check("shape_proportional_scalar", dist.chart, fn, config,
                                detail="identity-proportional shape operator gives symmetric Ricci and scal = c n (n-1)")]


# -- transversal rescalings ----------------------------------------------------


@kept
def xi_rescaled(dist: AffineDistribution, psi: ScalarField, variant):
    """Replace the transversal: variant "inner" uses
    ``xi~ = e^{-psi} (omega(grad psi) + xi)``, variant "outer" uses
    ``xi~ = omega(grad psi) + e^{-psi} xi`` (gradient with respect to the
    realized metric)."""
    if variant not in ("inner", "outer"):
        raise ValueError("variant must be 'inner' or 'outer'")
    chart = dist.chart
    s, _ = realized_structure(dist)
    grad_psi = gradient(s.g, psi)

    def xi_fn(p, order):
        om_grad = jet_einsum("...ia,...a->...i", dist.omega_fn(p, order), grad_psi.jet(p, order))
        xi = dist.xi_fn(p, order)
        e = psi.jet(p, order).exp()[..., None]
        return (om_grad + xi) / e if variant == "inner" else om_grad + xi / e

    return AffineDistribution(chart, dist.omega_fn, xi_fn)


def check_xi_rescale_laws(dist: AffineDistribution, psi: ScalarField, config: RunConfig, variant):
    """Decomposing the rescaled distribution reproduces the closed-form
    transformed data: a conformal metric, the stated one-form shift, a
    gradient-type connection change, and the stated shape-operator law."""
    chart = dist.chart
    s, B_fn = realized_structure(dist)
    dist_t = xi_rescaled(dist, psi, variant)
    s_t, B_t_fn = realized_structure(dist_t)
    grad_psi = gradient(s.g, psi)

    def fn(p):
        gv = s.g.value(p)
        require_nondegenerate_metric(s.g, p)
        psi_j = psi.jet(p, 2)
        e = np.exp(psi_j.value)
        dpsi = psi_j.grad
        gp = grad_psi.value(p)
        etav = s.eta.value(p)
        gamv = s.conn.value(p)
        Bv = B_fn(p, 0).value
        hess = covariant_derivative_of_vector(s.conn, grad_psi, p)  # [a, k]

        g_t = s_t.g.value(p)
        eta_t = s_t.eta.value(p)
        gam_t = s_t.conn.value(p)
        B_t = B_t_fn(p, 0).value

        e1, e2, e3 = e[..., None], e[..., None, None], e[..., None, None, None]
        r_g = row_max(g_t - e2 * gv, p)
        if variant == "inner":
            r_eta = row_max(eta_t - etav, p)
            conn_rhs = gamv - np.einsum("...ij,...k->...kij", gv, gp)
            B_rhs = (Bv - hess.swapaxes(-1, -2) + np.einsum("...k,...i->...ki", gp, dpsi)
                     + np.einsum("...k,...i->...ki", gp, etav)) / e2
        else:
            r_eta = row_max(eta_t - (etav + (e1 - 1.0) * dpsi), p)
            conn_rhs = gamv - e3 * np.einsum("...ij,...k->...kij", gv, gp)
            B_rhs = (Bv / e2 - hess.swapaxes(-1, -2) + (e2 - 1.0) * np.einsum("...k,...i->...ki", gp, dpsi)
                     + np.einsum("...k,...i->...ki", gp, etav))
        r_conn = row_max(gam_t - conn_rhs, p)
        r_B = row_max(B_t - B_rhs, p)
        scale = 1.0 + row_max(g_t, p) + row_max(gam_t, p) + row_max(B_t, p) + row_max(B_rhs, p)
        return np.maximum.reduce([r_g, r_eta, r_conn, r_B]), scale

    name = "xi_rescale_laws_inner" if variant == "inner" else "xi_rescale_laws_outer"
    return [run_pointwise_check(name, chart, fn, config,
                                detail="rescaled-transversal decomposition matches the closed-form transformed data")]


def check_xi_rescale_structure(dist: AffineDistribution, psi: ScalarField, config: RunConfig, variant):
    """The rescaled distribution still realizes a structure satisfying the
    condition, with the one-form read off directly from the frame
    decomposition (no extra correction is needed for either variant)."""
    s_t, _ = realized_structure(xi_rescaled(dist, psi, variant))
    name = "xi_rescale_swmt_inner" if variant == "inner" else "xi_rescale_swmt_outer"
    return [run_pointwise_check(name, dist.chart, swmt_residual(s_t), config,
                                detail="structure realized by the rescaled transversal satisfies the condition")]


def check_xi_rescale_codazzi(dist: AffineDistribution, psi: ScalarField, config: RunConfig):
    """For the "outer" rescaling: torsion is unchanged, the plain
    antisymmetrized metric derivative scales by the conformal factor, and
    the wedge correction carries its own factor ``e^psi - e^{2 psi}``."""
    chart = dist.chart
    s, _ = realized_structure(dist)
    dist_t = xi_rescaled(dist, psi, "outer")
    s_t, _ = realized_structure(dist_t)

    def fn(p):
        gv = s.g.value(p)
        require_nondegenerate_metric(s.g, p)
        T0 = torsion_values(s.conn, p)
        T1 = torsion_values(s_t.conn, p)
        r_t = row_max(T1 - T0, p)
        psi_j = psi.jet(p, 1)
        e = np.exp(psi_j.value)[..., None, None, None]
        lhs = codazzi_defect(nabla_g_values(s_t.conn, s_t.g, p), gv)
        base = codazzi_defect(nabla_g_values(s.conn, s.g, p), gv)
        rhs = e * base + (e - e * e) * wedge_g(psi_j.grad, gv)
        r_c = row_max(lhs - rhs, p)
        return np.maximum(r_t, r_c), 1.0 + row_max(lhs, p) + row_max(rhs, p) + row_max(T0, p)

    return [run_pointwise_check("xi_rescale_codazzi", chart, fn, config,
                                detail="outer rescaling keeps torsion and scales the antisymmetrized metric derivative")]
