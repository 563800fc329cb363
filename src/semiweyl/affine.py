"""Realization of metric/one-form/connection structures by affine
distributions: a frame of n+1 ambient directions (the image of a one-form
``omega`` plus a transversal ``xi``) whose derivative equations define a
metric, a connection, a one-form and a shape operator on the base."""

from __future__ import annotations

import numpy as np

from .expressions import differentiate, eval_jet
from .fields import Chart, ConnectionField, MetricField, OneFormField, ScalarField
from .jets import Jet, jet_solve, values_of
from .structures import Structure, is_swmt
from .tensor import (
    covariant_derivative_of_vector,
    curvature_values,
    gradient,
    inverse_metric_values,
    orthonormal_frame,
    require_nondegenerate,
    ricci_values,
    scalar_curvature,
)
from .verdicts import RunConfig, SkipPoint, run_pointwise_check

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


class AffineDistribution:
    """``omega`` maps tangent vectors to an (n+1)-dimensional ambient space
    and ``xi`` is a transversal ambient direction; together they must frame
    the ambient space at every base point."""

    def __init__(self, chart: Chart, omega_fn, xi_fn):
        self.chart = chart
        self.omega_fn = omega_fn  # (p, order) -> (n+1, n) jets
        self.xi_fn = xi_fn  # (p, order) -> (n+1,) jets
        self._solved_at = None  # point bytes of the solves in ``_solved``
        self._solved = {}  # order -> decompose result at that point

    @classmethod
    def from_immersion(cls, chart: Chart, components, xi_components):
        """``omega`` is the differential of the immersion given by
        ``components`` (n+1 expressions in the chart coordinates); ``xi``
        is an ambient-vector field along it (n+1 expressions)."""
        n = chart.dim
        comps = [chart.parse(c) if isinstance(c, str) else c for c in components]
        if len(comps) != n + 1:
            raise ValueError("an immersion into n+1 dimensions needs n+1 components")
        domega = [[differentiate(c, a) for a in range(n)] for c in comps]
        return cls.from_expressions(chart, domega, xi_components)

    @classmethod
    def from_expressions(cls, chart: Chart, omega, xi_components):
        n = chart.dim
        om = [[chart.parse(e) if isinstance(e, str) else e for e in row] for row in omega]
        xi = [chart.parse(e) if isinstance(e, str) else e for e in xi_components]
        if len(om) != n + 1 or any(len(row) != n for row in om) or len(xi) != n + 1:
            raise ValueError("omega must be (n+1) x n and xi must have n+1 components")

        def omega_fn(p, order):
            out = np.empty((n + 1, n), dtype=object)
            for i in range(n + 1):
                for a in range(n):
                    out[i, a] = eval_jet(om[i][a], p, order, dim=n)
            return out

        def xi_fn(p, order):
            out = np.empty(n + 1, dtype=object)
            for i in range(n + 1):
                out[i] = eval_jet(xi[i], p, order, dim=n)
            return out

        return cls(chart, omega_fn, xi_fn)

    def frame(self, p, order):
        """The (n+1) x (n+1) jet matrix whose columns are the omega images
        of the coordinate vectors followed by xi."""
        n = self.chart.dim
        om = self.omega_fn(p, order)
        xi = self.xi_fn(p, order)
        A = np.empty((n + 1, n + 1), dtype=object)
        A[:, :n] = om
        for i in range(n + 1):
            A[i, n] = xi[i]
        return A

    def decompose(self, p, order):
        """Solve the frame equations at a point: returns jets
        ``(gamma[k,i,j], g[i,j], B[l,i], eta[i])`` with
        ``d_i(omega e_j) = omega(gamma^._ij) + g_ij xi`` and
        ``d_i xi = -omega(B e_i) + eta_i xi``.

        The solves at the most recent point are kept, one per order, so the
        metric, one-form, connection and shape operator of
        :func:`realized_structure` share them; the arrays are read-only."""
        key = np.asarray(p, dtype=float).tobytes()
        if key != self._solved_at:
            self._solved_at = key
            self._solved = {}
        if order not in self._solved:
            parts = self._solve(p, order)
            for a in parts:
                a.flags.writeable = False
            self._solved[order] = parts
        return self._solved[order]

    def _solve(self, p, order):
        n = self.chart.dim
        A = self.frame(p, order)
        om1 = self.omega_fn(p, order + 1)
        xi1 = self.xi_fn(p, order + 1)
        rhs = np.empty((n + 1, n * n + n), dtype=object)
        for i in range(n):
            for j in range(n):
                for l in range(n + 1):
                    rhs[l, i * n + j] = om1[l, j].partial(i)
        for i in range(n):
            for l in range(n + 1):
                rhs[l, n * n + i] = xi1[l].partial(i)
        sol = jet_solve(A, rhs)
        gamma = np.empty((n, n, n), dtype=object)
        g = np.empty((n, n), dtype=object)
        B = np.empty((n, n), dtype=object)
        eta = np.empty(n, dtype=object)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    gamma[k, i, j] = sol[k, i * n + j]
                g[i, j] = sol[n, i * n + j]
        for i in range(n):
            for l in range(n):
                B[l, i] = -sol[l, n * n + i]
            eta[i] = sol[n, n * n + i]
        return gamma, g, B, eta


def realized_structure(dist: AffineDistribution):
    """The structure defined by the frame equations, plus the shape
    operator as a ``(p, order) -> B[l, i]`` function.  The raw metric
    entries are symmetrized; the symmetry defect is a separate check."""
    chart = dist.chart

    def g_fn(p, order):
        _, g, _, _ = dist.decompose(p, order)
        n = chart.dim
        out = np.empty((n, n), dtype=object)
        for i in range(n):
            for j in range(i, n):
                s = (g[i, j] + g[j, i]) * 0.5
                out[i, j] = s
                out[j, i] = s
        return out

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
        gv = values_of(g)
        return float(np.max(np.abs(gv - gv.T))), 1.0 + np.max(np.abs(gv))

    out = [run_pointwise_check("realization_metric_symmetry", dist.chart, symm_fn, config,
                               detail="frame-equation metric is symmetric")]
    v = is_swmt(s, config, name="realization_swmt")
    v.detail = "realized structure satisfies the eta-weighted torsion-Codazzi condition"
    out.append(v)
    return out


def check_realization_curvature_law(dist: AffineDistribution, config: RunConfig):
    """``R(X,Y)Z = g(Y,Z) B(X) - g(X,Z) B(Y)`` for the realized data."""
    s, B_fn = realized_structure(dist)
    n = dist.chart.dim

    def fn(p):
        require_nondegenerate(s.g.value(p))
        R = curvature_values(s.conn, p)
        gv = s.g.value(p)
        Bv = values_of(B_fn(p, 0))
        rhs = np.einsum("jk,li->lkij", gv, Bv) - np.einsum("ik,lj->lkij", gv, Bv)
        return float(np.max(np.abs(R - rhs))), 1.0 + np.max(np.abs(R)) + np.max(np.abs(rhs))

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
        require_nondegenerate(gv)
        Bv = values_of(B_fn(p, 0))
        E, eps = orthonormal_frame(gv)
        # gBE[i] = g(B(E_i), E_i)
        BE = Bv @ E
        gBEE = np.einsum("li,lm,mi->i", BE, gv, E)
        trB = float(eps @ gBEE)
        ric = ricci_values(s.conn, s.g, p)
        # Ric(Y,Z) = g(Y,Z) trB - sum_i eps_i g(E_i, Z) g(B(Y), E_i)
        gE = gv @ E  # gE[m, i] = g(e_m, E_i)
        gBY = (gv @ Bv).T  # gBY[j, m] = g(B(e_j), e_m)
        second = np.einsum("i,ki,ji->jk", eps, gE, gBY @ E)
        ric_rhs = gv * trB - second
        r1 = np.max(np.abs(ric - ric_rhs))
        scal = scalar_curvature(s.conn, s.g, p)
        r2 = abs(scal - (n - 1) * trB)
        # antisymmetric part: Ric(Y,Z) - Ric(Z,Y) = g(B(Z),Y) - g(B(Y),Z)
        gB = gv @ Bv  # gB[m, j] = g(B(e_j), e_m)
        r3 = np.max(np.abs((ric - ric.T) - (gB - gB.T)))
        scale = 1.0 + np.max(np.abs(ric)) + abs(scal) + np.max(np.abs(ric_rhs))
        return float(max(r1, r2, r3)), scale

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
        require_nondegenerate(gv)
        Bv = values_of(B_fn(p, 0))
        c = float(np.trace(Bv)) / n
        if np.max(np.abs(Bv - c * np.eye(n))) > config.tol * (1.0 + np.max(np.abs(Bv))):
            raise SkipPoint("shape operator is not proportional to the identity here")
        scal = scalar_curvature(s.conn, s.g, p)
        ric = ricci_values(s.conn, s.g, p)
        res = max(abs(scal - c * n * (n - 1)), np.max(np.abs(ric - ric.T)))
        return float(res), 1.0 + abs(scal) + np.max(np.abs(ric))

    return [run_pointwise_check("shape_proportional_scalar", dist.chart, fn, config,
                                detail="identity-proportional shape operator gives symmetric Ricci and scal = c n (n-1)")]


# -- transversal rescalings ----------------------------------------------------


def xi_rescaled(dist: AffineDistribution, psi, variant):
    """Replace the transversal: variant "inner" uses
    ``xi~ = e^{-psi} (omega(grad psi) + xi)``, variant "outer" uses
    ``xi~ = omega(grad psi) + e^{-psi} xi`` (gradient with respect to the
    realized metric)."""
    if variant not in ("inner", "outer"):
        raise ValueError("variant must be 'inner' or 'outer'")
    chart = dist.chart
    psi_s = psi if isinstance(psi, ScalarField) else ScalarField.from_expression(chart, psi)
    s, _ = realized_structure(dist)
    grad_psi = gradient(s.g, psi_s)
    n = chart.dim

    def xi_fn(p, order):
        om = dist.omega_fn(p, order)
        xi = dist.xi_fn(p, order)
        gp = grad_psi.jet(p, order)
        e = psi_s.jet(p, order).exp()
        out = np.empty(n + 1, dtype=object)
        for i in range(n + 1):
            acc = None
            for a in range(n):
                term = om[i, a] * gp[a]
                acc = term if acc is None else acc + term
            if variant == "inner":
                out[i] = (acc + xi[i]) / e
            else:
                out[i] = acc + xi[i] / e
        return out

    return AffineDistribution(chart, dist.omega_fn, xi_fn)


def check_xi_rescale_laws(dist: AffineDistribution, psi, variant, config: RunConfig):
    """Decomposing the rescaled distribution reproduces the closed-form
    transformed data: a conformal metric, the stated one-form shift, a
    gradient-type connection change, and the stated shape-operator law."""
    chart = dist.chart
    psi_s = psi if isinstance(psi, ScalarField) else ScalarField.from_expression(chart, psi)
    s, B_fn = realized_structure(dist)
    dist_t = xi_rescaled(dist, psi_s, variant)
    s_t, B_t_fn = realized_structure(dist_t)
    grad_psi = gradient(s.g, psi_s)
    n = chart.dim

    def fn(p):
        gv = s.g.value(p)
        require_nondegenerate(gv)
        psi_j = psi_s.jet(p, 2)
        e = np.exp(psi_j.value)
        dpsi = psi_j.grad
        gp = values_of(grad_psi.jet(p, 0))
        etav = s.eta.value(p)
        gamv = s.conn.value(p)
        Bv = values_of(B_fn(p, 0))
        hess = covariant_derivative_of_vector(s.conn, grad_psi, p)  # [a, k]

        g_t = s_t.g.value(p)
        eta_t = s_t.eta.value(p)
        gam_t = s_t.conn.value(p)
        B_t = values_of(B_t_fn(p, 0))

        r_g = np.max(np.abs(g_t - e * gv))
        if variant == "inner":
            r_eta = np.max(np.abs(eta_t - etav))
            conn_rhs = gamv - np.einsum("ij,k->kij", gv, gp)
            B_rhs = (Bv - hess.T + np.einsum("k,i->ki", gp, dpsi) + np.einsum("k,i->ki", gp, etav)) / e
        else:
            r_eta = np.max(np.abs(eta_t - (etav + (e - 1.0) * dpsi)))
            conn_rhs = gamv - e * np.einsum("ij,k->kij", gv, gp)
            B_rhs = Bv / e - hess.T + (e - 1.0) * np.einsum("k,i->ki", gp, dpsi) + np.einsum("k,i->ki", gp, etav)
        r_conn = np.max(np.abs(gam_t - conn_rhs))
        r_B = np.max(np.abs(B_t - B_rhs))
        scale = 1.0 + np.max(np.abs(g_t)) + np.max(np.abs(gam_t)) + np.max(np.abs(B_t)) + np.max(np.abs(B_rhs))
        return float(max(r_g, r_eta, r_conn, r_B)), scale

    name = "xi_rescale_laws_inner" if variant == "inner" else "xi_rescale_laws_outer"
    return [run_pointwise_check(name, chart, fn, config,
                                detail="rescaled-transversal decomposition matches the closed-form transformed data")]


def check_xi_rescale_structure(dist: AffineDistribution, psi, variant, config: RunConfig):
    """The rescaled distribution still realizes a structure satisfying the
    condition, with the one-form read off directly from the frame
    decomposition (no extra correction is needed for either variant)."""
    chart = dist.chart
    psi_s = psi if isinstance(psi, ScalarField) else ScalarField.from_expression(chart, psi)
    dist_t = xi_rescaled(dist, psi_s, variant)
    s_t, _ = realized_structure(dist_t)
    name = "xi_rescale_swmt_inner" if variant == "inner" else "xi_rescale_swmt_outer"
    v = is_swmt(s_t, config, name=name)
    v.detail = "structure realized by the rescaled transversal satisfies the condition"
    return [v]


def check_xi_rescale_codazzi(dist: AffineDistribution, psi, config: RunConfig):
    """For the "outer" rescaling: torsion is unchanged, the plain
    antisymmetrized metric derivative scales by the conformal factor, and
    the wedge correction carries its own factor ``e^psi - e^{2 psi}``."""
    from .tensor import nabla_g_values, torsion_values

    chart = dist.chart
    psi_s = psi if isinstance(psi, ScalarField) else ScalarField.from_expression(chart, psi)
    s, _ = realized_structure(dist)
    dist_t = xi_rescaled(dist, psi_s, "outer")
    s_t, _ = realized_structure(dist_t)

    def fn(p):
        require_nondegenerate(s.g.value(p))
        T0 = torsion_values(s.conn, p)
        T1 = torsion_values(s_t.conn, p)
        r_t = np.max(np.abs(T1 - T0))
        psi_j = psi_s.jet(p, 1)
        e = np.exp(psi_j.value)
        gv = s.g.value(p)
        ng0 = nabla_g_values(s.conn, s.g, p)
        ng1 = nabla_g_values(s_t.conn, s_t.g, p)
        lhs = ng1 - np.transpose(ng1, (1, 0, 2))
        base = ng0 - np.transpose(ng0, (1, 0, 2))
        wedge = (
            np.einsum("x,yz->xyz", psi_j.grad, gv)
            - np.einsum("y,xz->xyz", psi_j.grad, gv)
        )
        rhs = e * base + (e - e * e) * wedge
        r_c = np.max(np.abs(lhs - rhs))
        return float(max(r_t, r_c)), 1.0 + np.max(np.abs(lhs)) + np.max(np.abs(rhs)) + np.max(np.abs(T0))

    return [run_pointwise_check("xi_rescale_codazzi", chart, fn, config,
                                detail="outer rescaling keeps torsion and scales the antisymmetrized metric derivative")]
