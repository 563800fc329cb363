"""The conformal-projective transformation ``(g, conn) -> (e^{phi+psi} g,
conn + dphi (x) I + I (x) dphi - g (x) grad psi)`` and the residual checks
for its invariance, curvature-change, Ricci-antisymmetry and conformal
specializations."""

from __future__ import annotations

import numpy as np

from .fields import (
    OneFormField,
    ScalarField,
    eta_tensor_id,
    g_tensor_vector,
    id_tensor_eta,
    negate_tensor,
    sum_tensors,
)
from .structures import Structure, is_smt, is_swmt, semi_dual_connection
from .tensor import (
    covariant_derivative_of_vector,
    curvature_values,
    d_nabla_g_values,
    gradient,
    nabla_g_values,
    require_nondegenerate,
    ricci_values,
    scalar_curvature,
    torsion_values,
)
from .verdicts import RunConfig, agreement, gated, outcome, run_pointwise_check

__all__ = [
    "TransformData",
    "transform",
    "check_torsion_invariance",
    "check_codazzi_scaling",
    "check_structure_invariance",
    "check_semi_dual_transform_law",
    "check_curvature_transform",
    "check_ricci_antisymmetry",
    "check_gradient_codazzi_identity",
    "check_conformal_corollaries",
    "check_conformally_flat",
]


class TransformData:
    """The pair of smooth functions driving the transformation."""

    def __init__(self, chart, phi, psi):
        self.chart = chart
        self.phi = phi if isinstance(phi, ScalarField) else ScalarField.from_expression(chart, phi)
        self.psi = psi if isinstance(psi, ScalarField) else ScalarField.from_expression(chart, psi)


def _exp_sum(chart, phi, psi):
    def fn(p, order):
        return (phi.jet(p, order) + psi.jet(p, order)).exp()

    return ScalarField(chart, fn)


def _coefficient_tensor(g, phi, psi):
    """The difference tensor ``K = dphi (x) I + I (x) dphi - g (x) grad psi``
    the transformation adds to a connection, as ``(p, order) -> K[k, i, j]``
    jets.  It is symmetric in ``i, j`` bit for bit: its two ``dphi`` terms
    are mirror images and ``g`` is symmetric."""
    dphi = OneFormField.d(g.chart, phi)
    return sum_tensors(
        eta_tensor_id(g.chart, dphi),
        id_tensor_eta(g.chart, dphi),
        negate_tensor(g_tensor_vector(g, gradient(g, psi))),
    )


def transform(s: Structure, t: TransformData) -> Structure:
    """Apply the transformation; ``eta`` is carried unchanged."""
    g_new = s.g.scaled(_exp_sum(s.chart, t.phi, t.psi))
    return Structure(s.chart, g_new, s.eta, s.conn.add_tensor(_coefficient_tensor(s.g, t.phi, t.psi)))


# -- pointwise data shared by the section's checks ---------------------------


def _point_data_memo(s, t):
    """``p -> _PointData(s, t, p)``, built once per point for the life of
    the memo, so that the laws of one check share it."""
    built = {}

    def point_data(p):
        key = p.tobytes()
        if key not in built:
            built[key] = _PointData(s, t, p)
        return built[key]

    return point_data


class _PointData:
    def __init__(self, s: Structure, t: TransformData, p):
        n = s.chart.dim
        self.n = n
        self.g = s.g.value(p)
        require_nondegenerate(self.g)
        self.ginv = np.linalg.inv(self.g)
        self.gam = s.conn.value(p)
        self.T = torsion_values(s.conn, p)
        self.ng = nabla_g_values(s.conn, s.g, p)
        self.dng = d_nabla_g_values(s.conn, s.g, p)
        self.R = curvature_values(s.conn, p)
        self.ric = ricci_values(s.conn, s.g, p, R=self.R)
        self.scal = scalar_curvature(s.conn, s.g, p, R=self.R)
        self.eta = s.eta.value(p)

        phi_j = t.phi.jet(p, 2)
        psi_j = t.psi.jet(p, 2)
        self.phi = phi_j.value
        self.psi = psi_j.value
        self.dphi = phi_j.grad
        self.dpsi = psi_j.grad
        self.hess_phi = phi_j.hess
        self.grad_phi = self.ginv @ self.dphi
        self.grad_psi = self.ginv @ self.dpsi
        self.dVphi = covariant_derivative_of_vector(s.conn, gradient(s.g, t.phi), p)
        self.dVpsi = covariant_derivative_of_vector(s.conn, gradient(s.g, t.psi), p)
        self.lap_phi = float(np.einsum("ab,ak,kb->", self.ginv, self.dVphi, self.g))
        self.lap_psi = float(np.einsum("ab,ak,kb->", self.ginv, self.dVpsi, self.g))
        # trace of X -> T(X, d_j)
        self.trT = np.einsum("ab,maj,mb->j", self.ginv, self.T, self.g)
        self.norm_phi2 = float(self.dphi @ self.grad_phi)
        self.norm_psi2 = float(self.dpsi @ self.grad_psi)
        self.g_phi_psi = float(self.dphi @ self.grad_psi)


def check_torsion_invariance(s: Structure, t: TransformData, config: RunConfig):
    """Torsion is unchanged: the added tensor is symmetric in its lower
    indices (exactly), so transformed and original torsion coincide."""
    st = transform(s, t)
    K_fn = _coefficient_tensor(s.g, t.phi, t.psi)

    def symm_fn(p):
        K = K_fn(p, 0).value
        return float(np.max(np.abs(K - np.transpose(K, (0, 2, 1))))), 1.0

    def torsion_fn(p):
        require_nondegenerate(s.g.value(p))
        T0 = torsion_values(s.conn, p)
        T1 = torsion_values(st.conn, p)
        return float(np.max(np.abs(T1 - T0))), 1.0 + np.max(np.abs(s.conn.value(p)))

    return [
        run_pointwise_check("cp_torsion_term_symmetry", s.chart, symm_fn, config, tol=0.0,
                            detail="added coefficient tensor symmetric in lower indices, exactly"),
        run_pointwise_check("cp_torsion_invariance", s.chart, torsion_fn, config,
                            detail="torsion tensor unchanged by the transformation"),
    ]


def check_codazzi_scaling(s: Structure, t: TransformData, config: RunConfig):
    """``(nabla~_X g~)(Y,Z) - (nabla~_Y g~)(X,Z)`` scales by ``e^{phi+psi}``."""
    st = transform(s, t)

    def fn(p):
        d = _PointData(s, t, p)
        ng0 = d.ng
        ng1 = nabla_g_values(st.conn, st.g, p)
        lhs = ng1 - np.transpose(ng1, (1, 0, 2))
        rhs = np.exp(d.phi + d.psi) * (ng0 - np.transpose(ng0, (1, 0, 2)))
        return float(np.max(np.abs(lhs - rhs))), 1.0 + np.max(np.abs(lhs)) + np.max(np.abs(rhs))

    return [run_pointwise_check("cp_codazzi_scaling", s.chart, fn, config,
                                detail="antisymmetrized nabla g scales by the conformal factor")]


def check_structure_invariance(s: Structure, t: TransformData, config: RunConfig):
    """Verdict agreement: the structure condition holds before the
    transformation iff it holds after (both for the eta-weighted and the
    eta = 0 condition)."""
    st = transform(s, t)
    before = is_swmt(s, config, name="cp_invariance/before")
    after = is_swmt(st, config, name="cp_invariance/after")
    out = [
        agreement(
            "cp_swmt_invariance",
            [(before, after)],
            config.tol,
            detail=f"verdicts agree (before={outcome(before)}, after={outcome(after)})",
        )
    ]
    if s.eta.is_zero():
        b2 = is_smt(s, config, name="cp_invariance/before_smt")
        a2 = is_smt(st, config, name="cp_invariance/after_smt")
        out.append(
            agreement(
                "cp_smt_invariance",
                [(b2, a2)],
                config.tol,
                detail=f"verdicts agree (before={outcome(b2)}, after={outcome(a2)})",
            )
        )
    return out


def check_semi_dual_transform_law(s: Structure, t: TransformData, config: RunConfig, swap_roles=True):
    """The semi-dual of the transformed structure equals the semi-dual of
    the original plus the transformation tensor with ``phi`` and ``psi``
    exchanged.  ``swap_roles=False`` is the negative control (the unswapped
    law must fail on a generic instance)."""
    st = transform(s, t)
    lhs = semi_dual_connection(st.g, st.eta, st.conn)
    base = semi_dual_connection(s.g, s.eta, s.conn)
    chart = s.chart
    a, b = (t.psi, t.phi) if swap_roles else (t.phi, t.psi)
    rhs = base.add_tensor(_coefficient_tensor(s.g, a, b))

    def fn(p):
        require_nondegenerate(s.g.value(p))
        L = lhs.value(p)
        Rv = rhs.value(p)
        return float(np.max(np.abs(L - Rv))), 1.0 + max(np.max(np.abs(L)), np.max(np.abs(Rv)))

    name = "cp_semi_dual_law" if swap_roles else "cp_semi_dual_law_unswapped"
    return [run_pointwise_check(name, chart, fn, config,
                                detail="semi-dual transforms with the roles of phi and psi exchanged")]


# -- curvature change ---------------------------------------------------------


def _rhs_curvature(d: _PointData):
    n = d.n
    Rt = np.empty((n, n, n, n))
    # the scalar coefficient of Y (and X) in the transformation law:
    # X(Z(phi)) - g(nabla_X Z, grad phi) - X(phi) Z(phi) + g(X,Z) g(grad phi, grad psi)
    phi2 = np.empty((n, n))
    for i in range(n):
        for k in range(n):
            phi2[i, k] = d.hess_phi[i, k] - float(d.gam[:, i, k] @ d.dphi) - d.dphi[i] * d.dphi[k] + d.g[i, k] * d.g_phi_psi
    for l in range(n):
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    val = (
                        d.R[l, k, i, j]
                        + d.dphi[k] * d.T[l, i, j]
                        + (d.dpsi[i] * d.g[j, k] - d.dpsi[j] * d.g[i, k]) * d.grad_psi[l]
                        - d.dng[i, j, k] * d.grad_psi[l]
                        + d.g[i, k] * d.dVpsi[j, l]
                        - d.g[j, k] * d.dVpsi[i, l]
                    )
                    if l == j:
                        val += phi2[i, k]
                    if l == i:
                        val -= phi2[j, k]
                    Rt[l, k, i, j] = val
    return Rt


def _rhs_ricci(d: _PointData):
    n = d.n
    ric = np.empty((n, n))
    gT_psi_Y_Z = np.einsum("maj,a,mk->jk", d.T, d.grad_psi, d.g)  # g(T(grad psi, d_j), d_k)
    ngradphi = np.einsum("jmk,m->jk", d.ng, d.grad_phi)  # (nabla_{d_j} g)(grad phi, d_k)
    ngradpsi = np.einsum("jmk,m->jk", d.ng, d.grad_psi)
    hess_phi_g = d.dVphi @ d.g  # g(nabla_{d_j} grad phi, d_k)
    hess_psi_g = d.dVpsi @ d.g
    n_gradpsi_g = np.einsum("ajk,a->jk", d.ng, d.grad_psi)  # (nabla_{grad psi} g)(d_j, d_k)
    bracket = d.norm_psi2 - d.lap_psi - (d.n - 1) * d.g_phi_psi
    for j in range(n):
        for k in range(n):
            ric[j, k] = (
                d.ric[j, k]
                + d.dphi[k] * d.trT[j]
                + d.g[j, k] * bracket
                + (d.n - 1) * d.dphi[j] * d.dphi[k]
                - d.dpsi[j] * d.dpsi[k]
                - gT_psi_Y_Z[j, k]
                - (d.n - 1) * (ngradphi[j, k] + hess_phi_g[j, k])
                + ngradpsi[j, k]
                + hess_psi_g[j, k]
                - n_gradpsi_g[j, k]
            )
    return ric


def _rhs_scal(d: _PointData):
    n = d.n
    e = np.exp(-(d.phi + d.psi))
    trT_gradphi = float(d.trT @ d.grad_phi)
    trT_gradpsi = float(d.trT @ d.grad_psi)
    tr_ng_phi = float(np.einsum("ab,amb,m->", d.ginv, d.ng, d.grad_phi))
    tr_ng_psi = float(np.einsum("ab,amb,m->", d.ginv, d.ng, d.grad_psi))
    tr_n_psi_g = float(np.einsum("ab,mab,m->", d.ginv, d.ng, d.grad_psi))
    return (
        e * (d.scal + trT_gradphi + trT_gradpsi)
        + (n - 1) * e * (d.norm_phi2 + d.norm_psi2 - d.lap_phi - d.lap_psi - n * d.g_phi_psi)
        - e * ((n - 1) * tr_ng_phi - tr_ng_psi + tr_n_psi_g)
    )


def check_curvature_transform(s: Structure, t: TransformData, config: RunConfig, point_data=None):
    """Compare the transformed curvature, Ricci and scalar curvature against
    the term-by-term assembled change-of-curvature formulas; ``point_data``
    is a :func:`_point_data_memo` of ``(s, t)`` to share with other laws."""
    st = transform(s, t)
    point_data = point_data or _point_data_memo(s, t)

    def r_fn(p):
        d = point_data(p)
        lhs = curvature_values(st.conn, p)
        rhs = _rhs_curvature(d)
        return float(np.max(np.abs(lhs - rhs))), 1.0 + np.max(np.abs(lhs)) + np.max(np.abs(rhs))

    def ric_fn(p):
        d = point_data(p)
        lhs = ricci_values(st.conn, st.g, p)
        rhs = _rhs_ricci(d)
        return float(np.max(np.abs(lhs - rhs))), 1.0 + np.max(np.abs(lhs)) + np.max(np.abs(rhs))

    def scal_fn(p):
        d = point_data(p)
        lhs = scalar_curvature(st.conn, st.g, p)
        rhs = _rhs_scal(d)
        return float(abs(lhs - rhs)), 1.0 + abs(lhs) + abs(rhs)

    return [
        run_pointwise_check("cp_curvature_law", s.chart, r_fn, config,
                            detail="curvature of the transformed connection matches the change formula"),
        run_pointwise_check("cp_ricci_law", s.chart, ric_fn, config,
                            detail="Ricci of the transformed structure matches the change formula"),
        run_pointwise_check("cp_scalar_law", s.chart, scal_fn, config,
                            detail="scalar curvature matches the change formula"),
    ]


def check_ricci_antisymmetry(s: Structure, t: TransformData, config: RunConfig):
    """The antisymmetric part of the transformed Ricci tensor, in both the
    covariant-derivative form and the torsion-contraction restatement."""
    st = transform(s, t)
    point_data = _point_data_memo(s, t)

    def full_fn(p):
        d = point_data(p)
        lhs = ricci_values(st.conn, st.g, p)
        lhs = lhs - lhs.T
        ngradphi = np.einsum("jmk,m->jk", d.ng, d.grad_phi)
        ngradpsi = np.einsum("jmk,m->jk", d.ng, d.grad_psi)
        hphi = d.dVphi @ d.g
        hpsi = d.dVpsi @ d.g
        gTpsi = np.einsum("maj,a,mk->jk", d.T, d.grad_psi, d.g)  # g(T(grad psi, d_j), d_k)
        rhs = (
            d.ric - d.ric.T
            + np.einsum("k,j->jk", d.dphi, d.trT) - np.einsum("j,k->jk", d.dphi, d.trT)
            - gTpsi + gTpsi.T
            - (d.n - 1) * (ngradphi - ngradphi.T + hphi - hphi.T)
            + ngradpsi - ngradpsi.T + hpsi - hpsi.T
        )
        return float(np.max(np.abs(lhs - rhs))), 1.0 + np.max(np.abs(lhs)) + np.max(np.abs(rhs))

    def torsion_form_fn(p):
        d = point_data(p)
        lhs = ricci_values(st.conn, st.g, p)
        lhs = lhs - lhs.T
        gT_df = np.einsum("mjk,m->jk", d.T, d.dphi)  # g(T(d_j, d_k), grad phi)
        gT_dpsi = np.einsum("mjk,m->jk", d.T, d.dpsi)
        gT_Z_psi = np.einsum("mka,a,mj->jk", d.T, d.grad_psi, d.g)  # g(T(d_k, grad psi), d_j)
        gT_psi_Y = np.einsum("maj,a,mk->jk", d.T, d.grad_psi, d.g)  # g(T(grad psi, d_j), d_k)
        rhs = (
            d.ric - d.ric.T
            + np.einsum("k,j->jk", d.dphi, d.trT) - np.einsum("j,k->jk", d.dphi, d.trT)
            + (d.n - 1) * gT_df
            - gT_dpsi - gT_Z_psi - gT_psi_Y
        )
        return float(np.max(np.abs(lhs - rhs))), 1.0 + np.max(np.abs(lhs)) + np.max(np.abs(rhs))

    return [
        run_pointwise_check("cp_ricci_antisymmetry", s.chart, full_fn, config,
                            detail="antisymmetrized Ricci change, covariant-derivative form"),
        run_pointwise_check("cp_ricci_antisymmetry_torsion_form", s.chart, torsion_form_fn, config,
                            detail="antisymmetrized Ricci change, torsion-contraction form"),
    ]


def check_gradient_codazzi_identity(s: Structure, f, config: RunConfig, name="gradient_codazzi_identity"):
    """For any smooth ``f``:
    ``(nabla_Y g)(Z, grad f) - (nabla_Z g)(Y, grad f)
      = -g(T(Y,Z), grad f) + g(Y, nabla_Z grad f) - g(Z, nabla_Y grad f)``."""
    fs = f if isinstance(f, ScalarField) else ScalarField.from_expression(s.chart, f)

    def fn(p):
        gvals = s.g.value(p)
        require_nondegenerate(gvals)
        ng = nabla_g_values(s.conn, s.g, p)
        T = torsion_values(s.conn, p)
        fj = fs.jet(p, 1)
        gradf = np.linalg.inv(gvals) @ fj.grad
        dVf = covariant_derivative_of_vector(s.conn, gradient(s.g, fs), p)
        hf = dVf @ gvals  # g(nabla_{d_a} grad f, d_k)
        lhs = np.einsum("jkm,m->jk", ng, gradf) - np.einsum("kjm,m->jk", ng, gradf)
        rhs = -np.einsum("mjk,m->jk", T, fj.grad) + hf.T - hf
        return float(np.max(np.abs(lhs - rhs))), 1.0 + np.max(np.abs(lhs)) + np.max(np.abs(rhs))

    return [run_pointwise_check(name, s.chart, fn, config,
                                detail="gradient form of the antisymmetrized nabla g identity")]


def check_conformal_corollaries(s: Structure, psi, config: RunConfig):
    """The ``phi = 0`` specialization: curvature/Ricci/scalar change laws,
    preservation of the antisymmetric Ricci part on structures satisfying
    the (eta-weighted) torsion-Codazzi condition, and the cyclic torsion
    identity."""
    chart = s.chart
    t = TransformData(chart, ScalarField.zero(chart), psi)
    st = transform(s, t)
    point_data = _point_data_memo(s, t)
    out = []
    laws = check_curvature_transform(s, t, config, point_data)
    for v, nm in zip(laws, ("conformal_curvature_law", "conformal_ricci_law", "conformal_scalar_law")):
        v.name = nm
        out.append(v)

    swmt = is_swmt(s, config, name="conformal/hypothesis_swmt")
    if swmt.passed:
        def antisym_fn(p):
            require_nondegenerate(s.g.value(p))
            lhs = ricci_values(st.conn, st.g, p)
            rhs = ricci_values(s.conn, s.g, p)
            res = np.max(np.abs((lhs - lhs.T) - (rhs - rhs.T)))
            return float(res), 1.0 + np.max(np.abs(lhs)) + np.max(np.abs(rhs))

        out.append(run_pointwise_check("conformal_ricci_antisymmetry_preserved", chart, antisym_fn, config,
                                       detail="antisymmetric Ricci part unchanged under a pure conformal-gradient change"))

        def cyclic_fn(p):
            d = point_data(p)
            term = (
                np.einsum("mjk,m->jk", d.T, d.dpsi)
                + np.einsum("mka,a,mj->jk", d.T, d.grad_psi, d.g)
                + np.einsum("maj,a,mk->jk", d.T, d.grad_psi, d.g)
            )
            scale = 1.0 + np.max(np.abs(d.T)) * (np.max(np.abs(d.dpsi)) + 1.0) * (1.0 + np.max(np.abs(d.g)))
            return float(np.max(np.abs(term))), scale

        out.append(run_pointwise_check("cyclic_torsion_identity", chart, cyclic_fn, config,
                                       detail="cyclic sum of torsion contractions with grad psi vanishes"))
    else:
        out.append(gated("conformal_ricci_antisymmetry_preserved", "structure condition fails", config.tol))
        out.append(gated("cyclic_torsion_identity", "structure condition fails", config.tol))
    return out


def check_conformally_flat(s: Structure, psi, config: RunConfig):
    """When ``conn - g (x) grad psi`` is flat, the curvature, Ricci and
    scalar curvature of ``conn`` have closed forms, and Ricci is symmetric."""
    chart = s.chart
    psi_s = psi if isinstance(psi, ScalarField) else ScalarField.from_expression(chart, psi)
    t = TransformData(chart, ScalarField.zero(chart), psi_s)
    st = transform(s, t)

    def flat_fn(p):
        require_nondegenerate(s.g.value(p))
        R = curvature_values(st.conn, p)
        return float(np.max(np.abs(R))), 1.0 + np.max(np.abs(st.conn.value(p))) ** 2

    gate = run_pointwise_check("conformally_flat/hypothesis", chart, flat_fn, config)
    if not gate.passed:
        return [gated("conformally_flat_closed_forms", "shifted connection is not flat", config.tol)]
    swmt = is_swmt(s, config, name="conformally_flat/hypothesis_swmt")
    if not swmt.passed:
        return [gated("conformally_flat_closed_forms", "structure condition fails", config.tol)]

    def fn(p):
        d = _PointData(s, t, p)
        n = d.n
        hpsi = d.dVpsi @ d.g  # g(nabla_{d_j} grad psi, d_k)
        eta_gradpsi = float(d.eta @ d.grad_psi)
        bracket = d.norm_psi2 - d.lap_psi + eta_gradpsi
        # curvature closed form
        R_rhs = np.empty((n, n, n, n))
        for l in range(n):
            for k in range(n):
                for i in range(n):
                    for j in range(n):
                        R_rhs[l, k, i, j] = (
                            -(d.dpsi[i] * d.g[j, k] - d.dpsi[j] * d.g[i, k]) * d.grad_psi[l]
                            - d.g[i, k] * d.dVpsi[j, l]
                            + d.g[j, k] * d.dVpsi[i, l]
                            + (d.eta[j] * d.g[i, k] - d.eta[i] * d.g[j, k]) * d.grad_psi[l]
                        )
        ric_rhs = (
            -d.g * bracket
            + np.einsum("j,k->jk", d.dpsi + d.eta, d.dpsi)
            - hpsi
        )
        scal_rhs = -(n - 1) * bracket
        res = max(
            np.max(np.abs(d.R - R_rhs)),
            np.max(np.abs(d.ric - ric_rhs)),
            abs(d.scal - scal_rhs),
            np.max(np.abs(d.ric - d.ric.T)),
        )
        scale = 1.0 + np.max(np.abs(d.R)) + np.max(np.abs(R_rhs)) + abs(d.scal)
        return float(res), scale

    return [run_pointwise_check("conformally_flat_closed_forms", chart, fn, config,
                                detail="closed-form curvature/Ricci/scalar and Ricci symmetry under conformal flatness")]
