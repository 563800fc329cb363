"""Statistical and semi-Weyl structures with torsion: predicates, dual and
semi-dual connections, and the equivalence checks relating them."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import Chart, ConnectionField, MetricField, OneFormField
from .jets import jet_matinv, values_of
from .tensor import (
    curvature_values,
    levi_civita,
    nabla_g_values,
    require_nondegenerate,
    torsion_values,
)
from .verdicts import RunConfig, agreement, run_pointwise_check

__all__ = [
    "Structure",
    "is_statistical",
    "is_smt",
    "is_swmt",
    "dual_connection",
    "semi_dual_connection",
    "duality_residual",
    "check_dual_structure",
    "check_semi_dual_structure",
]


@dataclass
class Structure:
    """A chart together with ``(g, eta, conn)``; ``eta`` may be zero."""

    chart: Chart
    g: MetricField
    eta: OneFormField
    conn: ConnectionField


def _structure_scale(gvals, gam, etavals, dg):
    return 1.0 + np.max(np.abs(gvals)) * (1.0 + np.max(np.abs(gam)) + np.max(np.abs(etavals))) + np.max(np.abs(dg))


def _swmt_residual_at(s: Structure, p, require_torsion_free=False, use_eta=True):
    n = s.chart.dim
    gvals = s.g.value(p)
    require_nondegenerate(gvals)
    ng = nabla_g_values(s.conn, s.g, p)
    gam = s.conn.value(p)
    T = torsion_values(s.conn, p)
    eta = s.eta.value(p) if use_eta else np.zeros(n)
    G = s.g.jet(p, 1)
    dg = np.array([[G[i, j].grad for j in range(n)] for i in range(n)])
    # residual of (nabla_X g)(Y,Z) + eta(X) g(Y,Z) - (nabla_Y g)(X,Z) - eta(Y) g(X,Z) + g(T(X,Y),Z)
    res = (
        ng
        + np.einsum("i,jk->ijk", eta, gvals)
        - np.transpose(ng, (1, 0, 2))
        - np.einsum("j,ik->ijk", eta, gvals)
        + np.einsum("mij,mk->ijk", T, gvals)
    )
    r = np.max(np.abs(res))
    if require_torsion_free:
        r = max(r, np.max(np.abs(T)))
    return r, _structure_scale(gvals, gam, eta, dg)


def is_statistical(s: Structure, config: RunConfig, name="is_statistical"):
    """Torsion-free plus the Codazzi symmetry of ``nabla g``."""

    def fn(p):
        n = s.chart.dim
        gvals = s.g.value(p)
        require_nondegenerate(gvals)
        ng = nabla_g_values(s.conn, s.g, p)
        gam = s.conn.value(p)
        T = torsion_values(s.conn, p)
        G = s.g.jet(p, 1)
        dg = np.array([[G[i, j].grad for j in range(n)] for i in range(n)])
        res = max(np.max(np.abs(ng - np.transpose(ng, (1, 0, 2)))), np.max(np.abs(T)))
        return res, _structure_scale(gvals, gam, np.zeros(n), dg)

    return run_pointwise_check(name, s.chart, fn, config)


def is_smt(s: Structure, config: RunConfig, name="is_smt"):
    """Codazzi condition corrected by the torsion term."""

    def fn(p):
        return _swmt_residual_at(s, p, use_eta=False)

    return run_pointwise_check(name, s.chart, fn, config)


def is_swmt(s: Structure, config: RunConfig, name="is_swmt"):
    """Torsion-corrected Codazzi condition weighted by the 1-form ``eta``."""

    def fn(p):
        return _swmt_residual_at(s, p, use_eta=True)

    return run_pointwise_check(name, s.chart, fn, config)


def semi_dual_connection(g: MetricField, eta: OneFormField, conn: ConnectionField) -> ConnectionField:
    """The connection ``conn*`` with
    ``X g(Y,Z) = g(conn_X Y, Z) + g(Y, conn*_X Z) - eta(X) g(Y,Z)``."""
    n = g.chart.dim

    def fn(p, order):
        G = g.jet(p, order + 1)
        Gq = np.array([[G[i, j].truncate(order) for j in range(n)] for i in range(n)], dtype=object)
        require_nondegenerate(values_of(Gq))
        Ginv = jet_matinv(Gq)
        gam = conn.jet(p, order)
        etaj = eta.jet(p, order)
        out = np.empty((n, n, n), dtype=object)
        for i in range(n):
            for k in range(n):
                for l in range(n):
                    acc = None
                    for j in range(n):
                        inner = G[j, k].partial(i) + etaj[i] * Gq[j, k]
                        for m in range(n):
                            inner = inner - gam[m, i, j] * Gq[m, k]
                        term = Ginv[l, j] * inner
                        acc = term if acc is None else acc + term
                    out[l, i, k] = acc
        return out

    return ConnectionField(g.chart, fn)


def dual_connection(g: MetricField, conn: ConnectionField) -> ConnectionField:
    return semi_dual_connection(g, OneFormField.zero(g.chart), conn)


def duality_residual(g, eta, conn, dual, p):
    """Residual of the defining pairing of (semi-)dual connections."""
    n = g.chart.dim
    G = g.jet(p, 1)
    gvals = values_of(G)
    require_nondegenerate(gvals)
    dg = np.array([[G[i, j].grad for j in range(n)] for i in range(n)])  # dg[i,j,a] = d_a g_ij
    gam = conn.value(p)
    gams = dual.value(p)
    eta_v = eta.value(p) if eta is not None else np.zeros(n)
    res = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = dg[j, k][i]
                rhs = (
                    float(gam[:, i, j] @ gvals[:, k])
                    + float(gvals[j, :] @ gams[:, i, k])
                    - eta_v[i] * gvals[j, k]
                )
                res = max(res, abs(lhs - rhs))
    scale = 1.0 + np.max(np.abs(gvals)) * (1.0 + np.max(np.abs(gam)) + np.max(np.abs(gams)) + np.max(np.abs(eta_v))) + np.max(np.abs(dg))
    return res, scale


def _torsion_res(g: MetricField, conn):
    def fn(p):
        require_nondegenerate(g.value(p))
        T = torsion_values(conn, p)
        gam = conn.value(p)
        return np.max(np.abs(T)), 1.0 + np.max(np.abs(gam))

    return fn


def _curv_res(g: MetricField, conn):
    def fn(p):
        require_nondegenerate(g.value(p))
        R = curvature_values(conn, p)
        gam = conn.value(p)
        return np.max(np.abs(R)), 1.0 + np.max(np.abs(gam)) ** 2

    return fn


def check_dual_structure(s: Structure, config: RunConfig, check_flatness=False):
    """Equivalences tying a structure to its dual:

    - torsion of the dual vanishes exactly when the torsion-corrected
      Codazzi condition holds for ``conn``;
    - torsion of ``conn`` vanishes exactly when the dual satisfies it;
    - optionally, co-vanishing of the curvatures (only meaningful when one
      side is flat by construction).
    """
    star = dual_connection(s.g, s.conn)
    smt_self = is_smt(s, config, name="dual_equiv/base_smt")
    smt_star = is_smt(Structure(s.chart, s.g, s.eta, star), config, name="dual_equiv/dual_smt")
    t_self = run_pointwise_check("dual_equiv/torsion_base", s.chart, _torsion_res(s.g, s.conn), config)
    t_star = run_pointwise_check("dual_equiv/torsion_dual", s.chart, _torsion_res(s.g, star), config)
    out = [
        agreement(
            "dual_equivalences",
            [(t_star, smt_self), (t_self, smt_star)],
            config.tol,
            detail="dual torsion vanishes iff base satisfies the torsion-Codazzi condition, and conversely",
        )
    ]
    if check_flatness:
        r_self = run_pointwise_check("dual_equiv/flat_base", s.chart, _curv_res(s.g, s.conn), config)
        r_star = run_pointwise_check("dual_equiv/flat_dual", s.chart, _curv_res(s.g, star), config)
        out.append(
            agreement(
                "dual_flatness_covanishing",
                [(r_self, r_star)],
                config.tol,
                detail="flatness of a connection co-vanishes with flatness of its dual",
            )
        )
    return out


def check_semi_dual_structure(s: Structure, config: RunConfig, check_flatness=False):
    """Equivalences for the semi-dual connection, including: the semi-dual
    structure satisfies the eta-weighted condition iff the plain dual
    satisfies the torsion-Codazzi condition."""
    star_eta = semi_dual_connection(s.g, s.eta, s.conn)
    star_g = dual_connection(s.g, s.conn)

    swmt_self = is_swmt(s, config, name="semi_dual_equiv/base_swmt")
    swmt_star = is_swmt(Structure(s.chart, s.g, s.eta, star_eta), config, name="semi_dual_equiv/semi_dual_swmt")
    smt_star_g = is_smt(Structure(s.chart, s.g, s.eta, star_g), config, name="semi_dual_equiv/dual_smt")
    t_self = run_pointwise_check("semi_dual_equiv/torsion_base", s.chart, _torsion_res(s.g, s.conn), config)
    t_star = run_pointwise_check("semi_dual_equiv/torsion_semi_dual", s.chart, _torsion_res(s.g, star_eta), config)
    out = [
        agreement(
            "semi_dual_equivalences",
            [(t_star, swmt_self), (t_self, swmt_star), (swmt_star, smt_star_g)],
            config.tol,
            detail="semi-dual torsion/structure equivalences, incl. semi-dual vs plain-dual verdict agreement",
        )
    ]
    if check_flatness:
        r = [
            run_pointwise_check(f"semi_dual_equiv/flat_{tag}", s.chart, _curv_res(s.g, c), config)
            for tag, c in (("base", s.conn), ("semi_dual", star_eta), ("dual", star_g))
        ]
        out.append(
            agreement(
                "semi_dual_flatness_covanishing",
                [r],
                config.tol,
                detail="flatness co-vanishes across the connection, its semi-dual and its dual",
            )
        )
    return out


def connection_coefficient_residual(c1: ConnectionField, c2: ConnectionField, p):
    g1 = c1.value(p)
    g2 = c2.value(p)
    return np.max(np.abs(g1 - g2)), 1.0 + max(np.max(np.abs(g1)), np.max(np.abs(g2)))
