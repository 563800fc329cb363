"""The conformal-projective transformation ``(g, conn) -> (e^{phi+psi} g,
conn + dphi (x) I + I (x) dphi - g (x) grad psi)`` and the residual checks
for its invariance, curvature-change, Ricci-antisymmetry and conformal
specializations."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fields import (
    OneFormField,
    ScalarField,
    _values_field,
    eta_tensor_id,
    g_tensor_vector,
    id_tensor_eta,
    kept,
    negate_tensor,
    sum_tensors,
)
from .jets import _pow
from .structures import Structure, is_smt, is_swmt, semi_dual, smt_residual, swmt_residual
from .tensor import (
    codazzi_defect,
    covariant_derivative_of_vector,
    curvature_values,
    gradient,
    inverse_metric_values,
    nabla_g_values,
    require_nondegenerate_metric,
    ricci_values,
    scalar_curvature,
    torsion_values,
    wedge_g,
)
from .verdicts import RunConfig, agreement, gated, row_max, run_laws, run_pointwise_check

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


@dataclass(frozen=True)
class TransformData:
    """The pair of smooth functions driving the transformation.  Two
    transforms of the same two fields are equal, so they are one key of
    :func:`~semiweyl.fields.kept`."""

    phi: ScalarField
    psi: ScalarField


@kept
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


@kept
def transform(s: Structure, t: TransformData) -> Structure:
    """Apply the transformation; ``eta`` is carried unchanged."""
    g_new = s.g.scaled(ScalarField(s.chart, lambda p, order: (t.phi.jet(p, order) + t.psi.jet(p, order)).exp()))
    return Structure(s.chart, g_new, s.eta, s.conn.add_tensor(_coefficient_tensor(s.g, t.phi, t.psi)))


@kept
def _conformal_data(psi: ScalarField) -> TransformData:
    """The ``phi = 0`` transformation driven by ``psi``."""
    return TransformData(ScalarField.zero(psi.chart), psi)


# -- pointwise data shared by the laws of a check -----------------------------


class _PointData(dict):
    """The values the curvature-change laws read, at a point or, with a
    leading axis over its points, on a point set, by attribute: a dict, so
    the result store keeps it, and a row of it, like any field's result."""

    __getattr__ = dict.__getitem__
    __setattr__ = dict.__setitem__

    @property
    def n(self):
        return self.g.shape[-1]


@_values_field
def _point_data(s: Structure, t: TransformData, p):
    """The :class:`_PointData` of ``s`` and ``t`` at ``p``: one per
    structure, transform and points in the running result store, which
    serves all the laws of every check that reads it."""
    d = _PointData()
    d.g = s.g.value(p)
    d.ginv = inverse_metric_values(s.g, p)
    d.gam = s.conn.value(p)
    d.T = torsion_values(s.conn, p)
    d.ng = nabla_g_values(s.conn, s.g, p)
    d.dng = codazzi_defect(d.ng, d.g, d.T)
    d.R = curvature_values(s.conn, p)
    d.ric = ricci_values(s.conn, s.g, p)
    d.scal = scalar_curvature(s.conn, s.g, p)
    d.eta = s.eta.value(p)

    phi_j = t.phi.jet(p, 2)
    psi_j = t.psi.jet(p, 2)
    d.phi = phi_j.value
    d.psi = psi_j.value
    d.dphi = phi_j.grad
    d.dpsi = psi_j.grad
    d.hess_phi = phi_j.hess
    d.grad_phi = np.einsum("...ij,...j->...i", d.ginv, d.dphi)
    d.grad_psi = np.einsum("...ij,...j->...i", d.ginv, d.dpsi)
    d.dVphi = covariant_derivative_of_vector(s.conn, gradient(s.g, t.phi), p)
    d.dVpsi = covariant_derivative_of_vector(s.conn, gradient(s.g, t.psi), p)
    d.lap_phi = np.einsum("...ab,...ak,...kb->...", d.ginv, d.dVphi, d.g)
    d.lap_psi = np.einsum("...ab,...ak,...kb->...", d.ginv, d.dVpsi, d.g)
    # trace of X -> T(X, d_j)
    d.trT = np.einsum("...ab,...maj,...mb->...j", d.ginv, d.T, d.g)
    d.norm_phi2 = np.vecdot(d.dphi, d.grad_phi)
    d.norm_psi2 = np.vecdot(d.dpsi, d.grad_psi)
    d.g_phi_psi = np.vecdot(d.dphi, d.grad_psi)
    return d


def check_torsion_invariance(s: Structure, t: TransformData, config: RunConfig):
    """Torsion is unchanged: the added tensor is symmetric in its lower
    indices (exactly), so transformed and original torsion coincide."""
    st = transform(s, t)
    K_fn = _coefficient_tensor(s.g, t.phi, t.psi)

    def symm_fn(p):
        K = K_fn(p, 0).value
        return row_max(K - K.swapaxes(-1, -2), p), 1.0

    def torsion_fn(p):
        require_nondegenerate_metric(s.g, p)
        T0 = torsion_values(s.conn, p)
        T1 = torsion_values(st.conn, p)
        return row_max(T1 - T0, p), 1.0 + row_max(s.conn.value(p), p)

    return run_laws(s.chart, config, [
        ("cp_torsion_term_symmetry", symm_fn, 0.0, "added coefficient tensor symmetric in lower indices, exactly"),
        ("cp_torsion_invariance", torsion_fn, None, "torsion tensor unchanged by the transformation"),
    ])


def check_codazzi_scaling(s: Structure, t: TransformData, config: RunConfig):
    """``(nabla~_X g~)(Y,Z) - (nabla~_Y g~)(X,Z)`` scales by ``e^{phi+psi}``."""
    st = transform(s, t)

    def fn(p):
        gv = s.g.value(p)
        require_nondegenerate_metric(s.g, p)
        lhs = codazzi_defect(nabla_g_values(st.conn, st.g, p), gv)
        e = np.exp(t.phi.value(p) + t.psi.value(p))
        rhs = e[..., None, None, None] * codazzi_defect(nabla_g_values(s.conn, s.g, p), gv)
        return row_max(lhs - rhs, p), 1.0 + row_max(lhs, p) + row_max(rhs, p)

    return [run_pointwise_check("cp_codazzi_scaling", s.chart, fn, config,
                                detail="antisymmetrized nabla g scales by the conformal factor")]


def check_structure_invariance(s: Structure, t: TransformData, config: RunConfig):
    """Verdict agreement: the structure condition holds before the
    transformation iff it holds after (both for the eta-weighted and the
    eta = 0 condition)."""
    st = transform(s, t)
    before = replace(is_swmt(s, config), name="cp_invariance/before")
    laws = [("cp_invariance/after", swmt_residual(st))]
    if s.eta.is_zero():
        laws += [("cp_invariance/after_smt", smt_residual(st))]
    after, *smt_after = run_laws(s.chart, config, laws)
    pairs = [("cp_swmt_invariance", before, after)]
    if smt_after:
        pairs.append(("cp_smt_invariance", replace(is_smt(s, config), name="cp_invariance/before_smt"), smt_after[0]))
    return [agreement(name, [(b, a)], config.tol, detail="verdicts agree before and after") for name, b, a in pairs]


def check_semi_dual_transform_law(s: Structure, t: TransformData, config: RunConfig, swap_roles):
    """The semi-dual of the transformed structure equals the semi-dual of
    the original plus the transformation tensor with ``phi`` and ``psi``
    exchanged.  ``swap_roles=False`` is the negative control (the unswapped
    law must fail on a generic instance)."""
    st = transform(s, t)
    lhs = semi_dual(st).conn
    base = semi_dual(s).conn
    chart = s.chart
    a, b = (t.psi, t.phi) if swap_roles else (t.phi, t.psi)
    rhs = base.add_tensor(_coefficient_tensor(s.g, a, b))

    def fn(p):
        require_nondegenerate_metric(s.g, p)
        L = lhs.value(p)
        Rv = rhs.value(p)
        return row_max(L - Rv, p), 1.0 + np.maximum(row_max(L, p), row_max(Rv, p))

    name = "cp_semi_dual_law" if swap_roles else "cp_semi_dual_law_unswapped"
    return [run_pointwise_check(name, chart, fn, config,
                                detail="semi-dual transforms with the roles of phi and psi exchanged")]


# -- curvature change ---------------------------------------------------------


def _rhs_curvature(d: _PointData):
    # the scalar coefficient of Y (and X) in the transformation law:
    # X(Z(phi)) - g(nabla_X Z, grad phi) - X(phi) Z(phi) + g(X,Z) g(grad phi, grad psi)
    phi2 = (
        d.hess_phi
        - np.einsum("...kij,...k->...ij", d.gam, d.dphi)
        - np.einsum("...i,...j->...ij", d.dphi, d.dphi)
        + d.g * d.g_phi_psi[..., None, None]
    )
    eye = np.zeros_like(d.g) + np.eye(d.n)  # at d's points, laid out as they are
    return (
        d.R
        + np.einsum("...k,...lij->...lkij", d.dphi, d.T)
        + np.einsum("...ijk,...l->...lkij", wedge_g(d.dpsi, d.g), d.grad_psi)
        - np.einsum("...ijk,...l->...lkij", d.dng, d.grad_psi)
        + np.einsum("...ik,...jl->...lkij", d.g, d.dVpsi)
        - np.einsum("...jk,...il->...lkij", d.g, d.dVpsi)
        + np.einsum("...lj,...ik->...lkij", eye, phi2)
        - np.einsum("...li,...jk->...lkij", eye, phi2)
    )


def _rhs_ricci(d: _PointData):
    gT_psi_Y_Z = np.einsum("...maj,...a,...mk->...jk", d.T, d.grad_psi, d.g)  # g(T(grad psi, d_j), d_k)
    ngradphi = np.einsum("...jmk,...m->...jk", d.ng, d.grad_phi)  # (nabla_{d_j} g)(grad phi, d_k)
    ngradpsi = np.einsum("...jmk,...m->...jk", d.ng, d.grad_psi)
    hess_phi_g = np.einsum("...jm,...mk->...jk", d.dVphi, d.g)  # g(nabla_{d_j} grad phi, d_k)
    hess_psi_g = np.einsum("...jm,...mk->...jk", d.dVpsi, d.g)
    n_gradpsi_g = np.einsum("...ajk,...a->...jk", d.ng, d.grad_psi)  # (nabla_{grad psi} g)(d_j, d_k)
    bracket = d.norm_psi2 - d.lap_psi - (d.n - 1) * d.g_phi_psi
    return (
        d.ric
        + np.einsum("...j,...k->...jk", d.trT, d.dphi)
        + d.g * bracket[..., None, None]
        + np.einsum("...j,...k->...jk", (d.n - 1) * d.dphi, d.dphi)
        - np.einsum("...j,...k->...jk", d.dpsi, d.dpsi)
        - gT_psi_Y_Z
        - (d.n - 1) * (ngradphi + hess_phi_g)
        + ngradpsi
        + hess_psi_g
        - n_gradpsi_g
    )


def _rhs_scal(d: _PointData):
    n = d.n
    e = np.exp(-(d.phi + d.psi))
    trT_gradphi = np.vecdot(d.trT, d.grad_phi)
    trT_gradpsi = np.vecdot(d.trT, d.grad_psi)
    tr_ng_phi = np.einsum("...ab,...amb,...m->...", d.ginv, d.ng, d.grad_phi)
    tr_ng_psi = np.einsum("...ab,...amb,...m->...", d.ginv, d.ng, d.grad_psi)
    tr_n_psi_g = np.einsum("...ab,...mab,...m->...", d.ginv, d.ng, d.grad_psi)
    return (
        e * (d.scal + trT_gradphi + trT_gradpsi)
        + (n - 1) * e * (d.norm_phi2 + d.norm_psi2 - d.lap_phi - d.lap_psi - n * d.g_phi_psi)
        - e * ((n - 1) * tr_ng_phi - tr_ng_psi + tr_n_psi_g)
    )


def _curvature_laws(s: Structure, t: TransformData, names):
    """The curvature, Ricci and scalar-curvature change laws of ``(s, t)``,
    under ``names``, as laws of :func:`~semiweyl.verdicts.run_laws`."""
    st = transform(s, t)
    laws = (
        (lambda p: curvature_values(st.conn, p), _rhs_curvature,
         "curvature of the transformed connection matches the change formula"),
        (lambda p: ricci_values(st.conn, st.g, p), _rhs_ricci,
         "Ricci of the transformed structure matches the change formula"),
        (lambda p: scalar_curvature(st.conn, st.g, p), _rhs_scal, "scalar curvature matches the change formula"),
    )

    def law(lhs_of, rhs_of):
        def fn(p):
            d = _point_data(s, t, p)
            lhs, rhs = lhs_of(p), rhs_of(d)
            return row_max(lhs - rhs, p), 1.0 + row_max(lhs, p) + row_max(rhs, p)

        return fn

    return [(name, law(lhs_of, rhs_of), None, detail) for name, (lhs_of, rhs_of, detail) in zip(names, laws)]


def check_curvature_transform(s: Structure, t: TransformData, config: RunConfig):
    """Compare the transformed curvature, Ricci and scalar curvature against
    the term-by-term assembled change-of-curvature formulas."""
    names = ("cp_curvature_law", "cp_ricci_law", "cp_scalar_law")
    return run_laws(s.chart, config, _curvature_laws(s, t, names))


def check_ricci_antisymmetry(s: Structure, t: TransformData, config: RunConfig):
    """The antisymmetric part of the transformed Ricci tensor, in both the
    covariant-derivative form and the torsion-contraction restatement."""
    st = transform(s, t)

    def full_fn(p):
        lhs = ricci_values(st.conn, st.g, p)
        lhs = lhs - lhs.swapaxes(-1, -2)
        rhs = _rhs_ricci(_point_data(s, t, p))
        rhs = rhs - rhs.swapaxes(-1, -2)
        return row_max(lhs - rhs, p), 1.0 + row_max(lhs, p) + row_max(rhs, p)

    def torsion_form_fn(p):
        d = _point_data(s, t, p)
        lhs = ricci_values(st.conn, st.g, p)
        lhs = lhs - lhs.swapaxes(-1, -2)
        gT_df = np.einsum("...mjk,...m->...jk", d.T, d.dphi)  # g(T(d_j, d_k), grad phi)
        gT_dpsi = np.einsum("...mjk,...m->...jk", d.T, d.dpsi)
        gT_Z_psi = np.einsum("...mka,...a,...mj->...jk", d.T, d.grad_psi, d.g)  # g(T(d_k, grad psi), d_j)
        gT_psi_Y = np.einsum("...maj,...a,...mk->...jk", d.T, d.grad_psi, d.g)  # g(T(grad psi, d_j), d_k)
        rhs = (
            d.ric - d.ric.swapaxes(-1, -2)
            + np.einsum("...k,...j->...jk", d.dphi, d.trT) - np.einsum("...j,...k->...jk", d.dphi, d.trT)
            + (d.n - 1) * gT_df
            - gT_dpsi - gT_Z_psi - gT_psi_Y
        )
        return row_max(lhs - rhs, p), 1.0 + row_max(lhs, p) + row_max(rhs, p)

    return run_laws(s.chart, config, [
        ("cp_ricci_antisymmetry", full_fn, None, "antisymmetrized Ricci change, covariant-derivative form"),
        ("cp_ricci_antisymmetry_torsion_form", torsion_form_fn, None,
         "antisymmetrized Ricci change, torsion-contraction form"),
    ])


def check_gradient_codazzi_identity(s: Structure, f: ScalarField, config: RunConfig):
    """For any smooth ``f``:
    ``(nabla_Y g)(Z, grad f) - (nabla_Z g)(Y, grad f)
      = -g(T(Y,Z), grad f) + g(Y, nabla_Z grad f) - g(Z, nabla_Y grad f)``."""

    def fn(p):
        gvals = s.g.value(p)
        ginv = inverse_metric_values(s.g, p)
        ng = nabla_g_values(s.conn, s.g, p)
        T = torsion_values(s.conn, p)
        fj = f.jet(p, 1)
        gradf = np.einsum("...ij,...j->...i", ginv, fj.grad)
        dVf = covariant_derivative_of_vector(s.conn, gradient(s.g, f), p)
        hf = np.einsum("...am,...mk->...ak", dVf, gvals)  # g(nabla_{d_a} grad f, d_k)
        lhs = np.einsum("...jkm,...m->...jk", ng, gradf) - np.einsum("...kjm,...m->...jk", ng, gradf)
        rhs = -np.einsum("...mjk,...m->...jk", T, fj.grad) + hf.swapaxes(-1, -2) - hf
        return row_max(lhs - rhs, p), 1.0 + row_max(lhs, p) + row_max(rhs, p)

    return [run_pointwise_check("gradient_codazzi_identity", s.chart, fn, config,
                                detail="gradient form of the antisymmetrized nabla g identity")]


def check_conformal_corollaries(s: Structure, psi: ScalarField, config: RunConfig):
    """The ``phi = 0`` specialization: curvature/Ricci/scalar change laws,
    preservation of the antisymmetric Ricci part on structures satisfying
    the (eta-weighted) torsion-Codazzi condition, and the cyclic torsion
    identity."""
    chart = s.chart
    t = _conformal_data(psi)
    st = transform(s, t)
    names = ("conformal_curvature_law", "conformal_ricci_law", "conformal_scalar_law")
    laws = _curvature_laws(s, t, names)
    if not is_swmt(s, config).passed:
        return run_laws(chart, config, laws) + [
            gated("conformal_ricci_antisymmetry_preserved", "structure condition fails", config.tol),
            gated("cyclic_torsion_identity", "structure condition fails", config.tol),
        ]

    def antisym_fn(p):
        require_nondegenerate_metric(s.g, p)
        lhs = ricci_values(st.conn, st.g, p)
        rhs = ricci_values(s.conn, s.g, p)
        res = row_max((lhs - lhs.swapaxes(-1, -2)) - (rhs - rhs.swapaxes(-1, -2)), p)
        return res, 1.0 + row_max(lhs, p) + row_max(rhs, p)

    def cyclic_fn(p):
        d = _point_data(s, t, p)
        term = (
            np.einsum("...mjk,...m->...jk", d.T, d.dpsi)
            + np.einsum("...mka,...a,...mj->...jk", d.T, d.grad_psi, d.g)
            + np.einsum("...maj,...a,...mk->...jk", d.T, d.grad_psi, d.g)
        )
        scale = 1.0 + row_max(d.T, p) * (row_max(d.dpsi, p) + 1.0) * (1.0 + row_max(d.g, p))
        return row_max(term, p), scale

    return run_laws(chart, config, laws + [
        ("conformal_ricci_antisymmetry_preserved", antisym_fn, None,
         "antisymmetric Ricci part unchanged under a pure conformal-gradient change"),
        ("cyclic_torsion_identity", cyclic_fn, None, "cyclic sum of torsion contractions with grad psi vanishes"),
    ])


def check_conformally_flat(s: Structure, psi: ScalarField, config: RunConfig):
    """When ``conn - g (x) grad psi`` is flat, the curvature, Ricci and
    scalar curvature of ``conn`` have closed forms, and Ricci is symmetric."""
    chart = s.chart
    t = _conformal_data(psi)
    st = transform(s, t)

    def flat_fn(p):
        require_nondegenerate_metric(s.g, p)
        R = curvature_values(st.conn, p)
        return row_max(R, p), 1.0 + _pow(row_max(st.conn.value(p), p), 2)

    gate = run_pointwise_check("conformally_flat/hypothesis", chart, flat_fn, config)
    if not gate.passed:
        return [gated("conformally_flat_closed_forms", "shifted connection is not flat", config.tol)]
    if not is_swmt(s, config).passed:
        return [gated("conformally_flat_closed_forms", "structure condition fails", config.tol)]

    def fn(p):
        d = _point_data(s, t, p)
        n = d.n
        hpsi = np.einsum("...jm,...mk->...jk", d.dVpsi, d.g)  # g(nabla_{d_j} grad psi, d_k)
        eta_gradpsi = np.vecdot(d.eta, d.grad_psi)
        bracket = d.norm_psi2 - d.lap_psi + eta_gradpsi
        # curvature closed form
        R_rhs = (
            -np.einsum("...ijk,...l->...lkij", wedge_g(d.dpsi, d.g), d.grad_psi)
            - np.einsum("...ik,...jl->...lkij", d.g, d.dVpsi)
            + np.einsum("...jk,...il->...lkij", d.g, d.dVpsi)
            - np.einsum("...ijk,...l->...lkij", wedge_g(d.eta, d.g), d.grad_psi)
        )
        ric_rhs = (
            -d.g * bracket[..., None, None]
            + np.einsum("...j,...k->...jk", d.dpsi + d.eta, d.dpsi)
            - hpsi
        )
        scal_rhs = -(n - 1) * bracket
        res = np.maximum.reduce([
            row_max(d.R - R_rhs, p),
            row_max(d.ric - ric_rhs, p),
            abs(d.scal - scal_rhs),
            row_max(d.ric - d.ric.swapaxes(-1, -2), p),
        ])
        scale = 1.0 + row_max(d.R, p) + row_max(R_rhs, p) + abs(d.scal)
        return res, scale

    return [run_pointwise_check("conformally_flat_closed_forms", chart, fn, config,
                                detail="closed-form curvature/Ricci/scalar and Ricci symmetry under conformal flatness")]
