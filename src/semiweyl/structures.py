"""Statistical and semi-Weyl structures with torsion: predicates, dual and
semi-dual connections, and the equivalence checks relating them."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fields import Chart, ConnectionField, MetricField, OneFormField, kept
from .jets import jet_einsum, jet_solve_with, partials
from .tensor import (
    codazzi_defect,
    inverse_metric_values,
    nabla_g_values,
    require_nondegenerate_metric,
    torsion_values,
)
from .verdicts import RunConfig, agreement, row_max, run_laws, run_pointwise_check

__all__ = [
    "Structure",
    "is_statistical",
    "is_smt",
    "is_swmt",
    "smt_residual",
    "swmt_residual",
    "dual_connection",
    "semi_dual_connection",
    "semi_dual",
    "check_dual_structure",
    "check_semi_dual_structure",
]


@dataclass(eq=False)
class Structure:
    """A chart together with ``(g, eta, conn)``; ``eta`` may be zero.
    Compared by identity, so it is one key of what a run derives from it
    (:func:`~semiweyl.fields.kept`)."""

    chart: Chart
    g: MetricField
    eta: OneFormField
    conn: ConnectionField


def _structure_scale(p, gvals, gam, etavals, dg):
    return 1.0 + row_max(gvals, p) * (1.0 + row_max(gam, p) + row_max(etavals, p)) + row_max(dg, p)


def _swmt_residual_at(s: Structure, p, use_eta):
    gvals = s.g.value(p)
    require_nondegenerate_metric(s.g, p)
    ng = nabla_g_values(s.conn, s.g, p)
    gam = s.conn.value(p)
    T = torsion_values(s.conn, p)
    eta = s.eta.value(p) if use_eta else np.zeros(p.shape)
    dg = s.g.jet(p, 1).grad
    res = codazzi_defect(ng, gvals, T, eta)
    return row_max(res, p), _structure_scale(p, gvals, gam, eta, dg)


@kept
def is_statistical(s: Structure, config: RunConfig):
    """Torsion-free plus the Codazzi symmetry of ``nabla g``."""

    def fn(p):
        gvals = s.g.value(p)
        require_nondegenerate_metric(s.g, p)
        ng = nabla_g_values(s.conn, s.g, p)
        gam = s.conn.value(p)
        T = torsion_values(s.conn, p)
        dg = s.g.jet(p, 1).grad
        res = np.maximum(row_max(codazzi_defect(ng, gvals), p), row_max(T, p))
        return res, _structure_scale(p, gvals, gam, np.zeros(p.shape), dg)

    return run_pointwise_check("is_statistical", s.chart, fn, config)


def smt_residual(s: Structure):
    """The residual function of :func:`is_smt`, for a law of a check."""
    return lambda p: _swmt_residual_at(s, p, use_eta=False)


def swmt_residual(s: Structure):
    """The residual function of :func:`is_swmt`."""
    return lambda p: _swmt_residual_at(s, p, use_eta=True)


@kept  # one verdict per structure and config: checks, gates and base laws
def is_smt(s: Structure, config: RunConfig):
    """Codazzi condition corrected by the torsion term."""
    return run_pointwise_check("is_smt", s.chart, smt_residual(s), config)


@kept
def is_swmt(s: Structure, config: RunConfig):
    """Torsion-corrected Codazzi condition weighted by the 1-form ``eta``."""
    return run_pointwise_check("is_swmt", s.chart, swmt_residual(s), config)


@kept
def semi_dual_connection(g: MetricField, eta: OneFormField, conn: ConnectionField) -> ConnectionField:
    """The connection ``conn*`` with
    ``X g(Y,Z) = g(conn_X Y, Z) + g(Y, conn*_X Z) - eta(X) g(Y,Z)``."""

    def fn(p, order):
        G = g.jet(p, order + 1)
        # lower[j, i, k] = d_i g_jk + eta_i g_jk - gamma^m_ij g_mk
        lower = (
            partials(G).transpose(0, 2, 1)
            + jet_einsum("...i,...jk->...jik", eta.jet(p, order), G)
            - jet_einsum("...mij,...mk->...jik", conn.jet(p, order), G)
        )
        return jet_solve_with(G, inverse_metric_values(g, p), lower)

    return ConnectionField(g.chart, fn)


@kept
def dual_connection(g: MetricField, conn: ConnectionField) -> ConnectionField:
    return semi_dual_connection(g, OneFormField.zero(g.chart), conn)


@kept
def semi_dual(s: Structure) -> Structure:
    """The structure ``(g, eta, conn*)`` with the semi-dual connection."""
    return Structure(s.chart, s.g, s.eta, semi_dual_connection(s.g, s.eta, s.conn))


def _torsion_res(g: MetricField, conn):
    def fn(p):
        require_nondegenerate_metric(g, p)
        T = torsion_values(conn, p)
        gam = conn.value(p)
        return row_max(T, p), 1.0 + row_max(gam, p)

    return fn


def check_dual_structure(s: Structure, config: RunConfig):
    """Equivalences tying a structure to its dual:

    - torsion of the dual vanishes exactly when the torsion-corrected
      Codazzi condition holds for ``conn``;
    - torsion of ``conn`` vanishes exactly when the dual satisfies it.
    """
    star = dual_connection(s.g, s.conn)
    smt_self = replace(is_smt(s, config), name="dual_equiv/base_smt")
    laws = [
        ("dual_equiv/dual_smt", smt_residual(Structure(s.chart, s.g, s.eta, star))),
        ("dual_equiv/torsion_base", _torsion_res(s.g, s.conn)),
        ("dual_equiv/torsion_dual", _torsion_res(s.g, star)),
    ]
    smt_star, t_self, t_star = run_laws(s.chart, config, laws)
    return [
        agreement(
            "dual_equivalences",
            [(t_star, smt_self), (t_self, smt_star)],
            config.tol,
            detail="dual torsion vanishes iff base satisfies the torsion-Codazzi condition, and conversely",
        )
    ]


def check_semi_dual_structure(s: Structure, config: RunConfig):
    """Equivalences for the semi-dual connection, including: the semi-dual
    structure satisfies the eta-weighted condition iff the plain dual
    satisfies the torsion-Codazzi condition."""
    star_eta = semi_dual(s).conn
    star_g = dual_connection(s.g, s.conn)
    swmt_self = replace(is_swmt(s, config), name="semi_dual_equiv/base_swmt")
    laws = [
        ("semi_dual_equiv/semi_dual_swmt", swmt_residual(semi_dual(s))),
        ("semi_dual_equiv/dual_smt", smt_residual(Structure(s.chart, s.g, s.eta, star_g))),
        ("semi_dual_equiv/torsion_base", _torsion_res(s.g, s.conn)),
        ("semi_dual_equiv/torsion_semi_dual", _torsion_res(s.g, star_eta)),
    ]
    swmt_star, smt_star_g, t_self, t_star = run_laws(s.chart, config, laws)
    return [
        agreement(
            "semi_dual_equivalences",
            [(t_star, swmt_self), (t_self, swmt_star), (swmt_star, smt_star_g)],
            config.tol,
            detail="semi-dual torsion/structure equivalences, incl. semi-dual vs plain-dual verdict agreement",
        )
    ]
