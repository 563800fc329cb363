"""Non-degenerate submanifolds: pullbacks through an embedding, induced
structures, second fundamental forms, shape operators, and the checks tying
them to the ambient geometry (induced-structure condition, duality,
curvature decomposition, umbilic behaviour under the conformal-projective
transformation).

Beta symmetry, the duality pairing and the umbilic laws are written once,
against the fundamental-form data a frame gives at a point or on a point
set (the forms ``alpha`` and ``beta`` of a connection, the sign ``eps =
g(N, N)``, the metric of the tangent frame and the transversal ``N``).
They serve the unit normal of a :class:`HypersurfaceFrame` here and the
null transversal of a :class:`~semiweyl.lightlike.LightlikeFrame`.  A frame
reads only its own structure: the semi-dual's forms are those of
``frame.with_structure(semi_dual(frame.s))``."""

from __future__ import annotations

import numpy as np

from .fields import Chart, ConnectionField, DegeneratePointError, MetricField, OneFormField, VectorField, _Field, kept
from .jets import Jet, jet_compose, jet_cross, jet_einsum, jet_solve_with, partials
from .structures import Structure, semi_dual, swmt_residual
from .tensor import (
    codazzi_defect,
    covariant_derivative_of_form,
    curvature_values,
    degeneracy_threshold,
    inverse_metric_values,
    nabla_g_values,
    require_nondegenerate_metric,
    torsion_values,
    wedge_g,
)
from .verdicts import RunConfig, gated, row_max, run_laws, run_pointwise_check

__all__ = [
    "EmbeddingMap",
    "induced_structure",
    "unit_normal",
    "HypersurfaceFrame",
    "check_induced_structure",
    "check_induced_duality_commutes",
    "check_induced_cp_equivalence",
    "check_beta_symmetry",
    "check_duality_pairing",
    "umbilic_deviation",
    "check_umbilic_preservation",
    "check_gauss_equation",
    "check_flat_dual_hypersurface",
]


class EmbeddingMap:
    """A smooth map from a parameter chart into an ambient chart, given by
    one expression per ambient coordinate.

    Its coordinates are a :class:`~semiweyl.fields.VectorField` on the
    domain, and the pullback of an ambient field is a field on the domain.
    A run keeps one pullback per map and ambient field (and one induced
    metric per ambient metric, see :func:`~semiweyl.fields.kept`), so every
    frame and check on the map shares its jets."""

    def __init__(self, domain: Chart, ambient: Chart, components):
        if len(components) != ambient.dim:
            raise ValueError("one component expression per ambient coordinate is required")
        self.domain = domain
        self.ambient = ambient
        self.coords = VectorField.from_expressions(domain, components)

    @property
    def codim(self):
        return self.ambient.dim - self.domain.dim

    @kept
    def compose(self, field):
        """The pullback of an ambient field: a field of the same kind on the
        domain, whose jets are those of ``field`` along the map."""

        def fn(p, order):
            F = self.coords.jet(p, order)
            return jet_compose(field.jet(F.value, order), F)

        return type(field)(self.domain, fn)

    @kept
    def induced_metric(self, g):
        """The metric ``g(dF e_a, dF e_b)`` induced on the domain by the
        ambient metric ``g``."""
        Gc = self.compose(g)

        def fn(p, order):
            dF = partials(self.coords.jet(p, order + 1))
            return jet_einsum("...ia,...jb,...ij->...ab", dF, dF, Gc.jet(p, order))

        return MetricField(self.domain, fn)


@kept
def induced_structure(emb: EmbeddingMap, s: Structure) -> Structure:
    """Restrict the metric and one-form and project the connection onto the
    image of the map (valid in any codimension, requires the induced metric
    to be non-degenerate)."""
    gp = emb.induced_metric(s.g)
    Gc = emb.compose(s.g)
    eta_c = emb.compose(s.eta)

    def eta_fn(p, order):
        dF = partials(emb.coords.jet(p, order + 1))
        return jet_einsum("...i,...ia->...a", eta_c.jet(p, order), dF)

    def conn_fn(p, order):
        G = gp.jet(p, order)
        ginv = inverse_metric_values(gp, p)
        dF = partials(emb.coords.jet(p, order + 1))
        W = _ambient_derivative_of_frame(emb, s.conn).jet(p, order)
        # g'_{kd} gamma^k_{ab} = g(dF e_d, W_ab)
        return jet_solve_with(G, ginv, jet_einsum("...id,...ij,...jab->...dab", dF, Gc.jet(p, order), W))

    return Structure(
        emb.domain,
        gp,
        OneFormField(emb.domain, eta_fn),
        ConnectionField(emb.domain, conn_fn),
    )


def _restricted(emb: EmbeddingMap, t):
    """The transformation driven by the pullbacks of ``t``'s functions (a
    run keeps the pullbacks, so a transform of the same fields is equal)."""
    return type(t)(emb.compose(t.phi), emb.compose(t.psi))


@kept
def _ambient_derivative_of_frame(emb: EmbeddingMap, conn: ConnectionField) -> _Field:
    """``W[i, a, b]``: ambient components of the ambient covariant
    derivative of the coordinate frame, ``nabla_{dF e_a} (dF e_b)``, a
    field of (map, connection) that the induced connection and the second
    fundamental form share."""

    def fn(p, order):
        dF = partials(emb.coords.jet(p, order + 2))
        Gamc = emb.compose(conn).jet(p, order)
        return partials(dF).transpose(0, 2, 1) + jet_einsum("...ijk,...ja,...kb->...iab", Gamc, dF, dF)

    return _Field(emb.domain, fn)


@kept
def unit_normal(emb: EmbeddingMap, g: MetricField) -> _Field:
    """The unit normal of a hypersurface in the metric ``g``, as a field
    whose jet at ``p`` is ``(N, eps)``: ``N`` the ambient components (jets)
    and ``eps = g(N, N) = +-1``.  It is ``N = g^-1 nu / sqrt|nu(g^-1 nu)|``
    with ``nu_i = eps_{i j k ...} dF[j, 0] dF[k, 1] ...`` the conormal of
    the chart (cofactors of the differential), so ``nu(N)`` has the sign
    ``eps`` and swapping two domain coordinates turns ``N`` into ``-N``."""

    def fn(p, order):
        F = emb.coords.jet(p, order + 1)
        Gc = emb.compose(g).jet(p, order)
        nu = jet_cross(partials(F).T)
        N_raw = jet_solve_with(Gc, inverse_metric_values(g, F.value), nu)
        norm2 = jet_einsum("...i,...i->...", nu, N_raw)
        v = norm2.value
        if np.any(null := np.abs(v) <= degeneracy_threshold(Gc.value)):
            raise DegeneratePointError.where(null, "normal direction is null at this point")
        eps = np.where(v > 0, 1.0, -1.0)
        length = _signed(norm2, eps).sqrt()
        return N_raw / length[..., None], eps

    return _Field(emb.domain, fn)


@kept
def _second_fundamental_form(emb: EmbeddingMap, s: Structure) -> _Field:
    """:meth:`HypersurfaceFrame.second_fundamental_form` of ``s``, a field."""

    def fn(p, order):
        W = _ambient_derivative_of_frame(emb, s.conn).jet(p, order)
        Gc = emb.compose(s.g).jet(p, order)
        N, eps = unit_normal(emb, s.g).jet(p, order)
        alpha = jet_einsum("...ij,...iab,...j->...ab", Gc, W, N)
        return _signed(alpha, eps), eps

    return _Field(emb.domain, fn)


@kept
def _weingarten_map(emb: EmbeddingMap, s: Structure) -> _Field:
    """:meth:`HypersurfaceFrame.weingarten` of ``s``, a field."""

    def fn(p, order):
        N, eps = unit_normal(emb, s.g).jet(p, order + 1)
        dF = partials(emb.coords.jet(p, order + 1))
        Gamc = emb.compose(s.conn).jet(p, order)
        DN = partials(N) + jet_einsum("...ijk,...ja,...k->...ia", Gamc, dF, N)  # nabla_a N
        Gc = emb.compose(s.g).jet(p, order)
        tau = _signed(jet_einsum("...ij,...ia,...j->...a", Gc, DN, N), eps)
        beta = -jet_einsum("...ij,...ia,...jb->...ab", Gc, DN, dF)
        gp = emb.induced_metric(s.g)
        G = gp.jet(p, order)
        B = jet_solve_with(G, inverse_metric_values(gp, p), beta.T)  # B[d, a] with g'_{db} B^d_a = beta_{ab}
        return beta, tau, B, eps

    return _Field(emb.domain, fn)


def _signed(J, eps):
    """``J`` times the sign ``eps`` (one per point of a set), layer by
    layer, so that each row is exactly ``J`` or ``-J``."""
    return Jet(J.n, [L * np.reshape(eps, np.shape(eps) + (1,) * (np.ndim(L) - np.ndim(eps))) for L in J.layers])


class HypersurfaceFrame:
    """Unit normal and fundamental forms of a codimension-one non-degenerate
    submanifold, evaluated pointwise as jets."""

    # verdict names and details of the checks shared with lightlike frames
    VERDICTS = {
        "beta_symmetry": ("beta_symmetry", "the form g(nabla N, .) is symmetric on the hypersurface"),
        "duality_pairing": ("duality_pairing", "fundamental forms of a connection and its semi-dual pair up"),
        "beta_law": ("cp_beta_law", "normal-derivative form transforms by the stated closed formula"),
        "umbilic": ("umbilic_preservation", "umbilic points stay umbilic under the transformation"),
    }
    # the transformation rescales the unit normal by e^{-(phi+psi)/2}, so
    # the beta law carries the prefactor e^{(phi+psi)/2}
    BETA_LAW_WEIGHT = 0.5

    def __init__(self, emb: EmbeddingMap, s: Structure):
        if emb.codim != 1:
            raise ValueError("a hypersurface has codimension one")
        self.emb = emb
        self.s = s

    def with_structure(self, s: Structure):
        """The frame of the same hypersurface in another ambient structure."""
        return HypersurfaceFrame(self.emb, s)

    def normal(self, p, order):
        """Unit normal ``N`` (ambient components, jets) and the sign
        ``eps = g(N, N) = +-1``."""
        return unit_normal(self.emb, self.s.g).jet(p, order)

    def second_fundamental_form(self, p, order):
        """``alpha[a, b] = eps * g(nabla_{dF e_a}(dF e_b), N)`` as jets, and
        ``eps``; kept like any field's results."""
        return _second_fundamental_form(self.emb, self.s).jet(p, order)

    def weingarten(self, p, order):
        """Returns ``(beta, tau, B, eps)`` as jets: ``beta[a,b] =
        -g(nabla_a N, dF e_b)``, ``tau[a] = eps g(nabla_a N, N)`` and the
        shape operator ``B[d, a]`` with ``beta(X, Y) = g'(B X, Y)``; kept
        like any field's results."""
        return _weingarten_map(self.emb, self.s).jet(p, order)

    # -- the values the shared fundamental-form checks read ----------------

    def alpha(self, p):
        return self.second_fundamental_form(p, 0)[0].value

    def beta(self, p):
        return self.weingarten(p, 0)[0].value

    def eps(self, p):
        return self.normal(p, 0)[1]

    def tangent_metric(self, p):
        """The induced metric ``g'``."""
        return self.emb.induced_metric(self.s.g).value(p)

    def transversal_value(self, p):
        return self.normal(p, 0)[0].value



# -- checks -------------------------------------------------------------------

# the detail of a check whose ambient hypothesis is not met
AMBIENT_FAILS = "ambient structure condition fails along the hypersurface"


@kept
def _swmt_along(emb: EmbeddingMap, s: Structure, config: RunConfig):
    """The hypothesis of the embedded laws, tested where they are
    evaluated: the residual of :func:`~semiweyl.structures.is_swmt` of ``s``
    at the images ``F(pts)`` of the domain sample, whose ambient fields the
    pullbacks read too.  The laws hold pointwise, so the condition on the
    rest of the ambient chart is not needed.  One verdict per (map,
    structure, config) in a run."""
    law = swmt_residual(s)
    return run_pointwise_check("ambient_swmt", emb.domain, lambda p: law(emb.coords.value(p)), config)


def check_induced_structure(emb: EmbeddingMap, s: Structure, config: RunConfig):
    """A non-degenerate submanifold of a structure satisfying the
    eta-weighted torsion-Codazzi condition along it satisfies it too (with
    the induced data)."""
    if not _swmt_along(emb, s, config).passed:
        return [gated("induced_structure_swmt", AMBIENT_FAILS, config.tol)]
    return [run_pointwise_check("induced_structure_swmt", emb.domain, swmt_residual(induced_structure(emb, s)), config,
                                detail="induced structure satisfies the same condition as the ambient one")]


def check_induced_duality_commutes(emb: EmbeddingMap, s: Structure, config: RunConfig):
    """Projecting the semi-dual connection equals taking the semi-dual of
    the projected connection (with the induced metric and one-form)."""
    lhs = semi_dual(induced_structure(emb, s)).conn
    rhs = induced_structure(emb, semi_dual(s)).conn

    def fn(p):
        L = lhs.value(p)
        R = rhs.value(p)
        return row_max(L - R, p), 1.0 + row_max(L, p) + row_max(R, p)

    return [run_pointwise_check("induced_duality_commutes", emb.domain, fn, config,
                                detail="semi-dual of the induced structure = induced semi-dual")]


def check_induced_cp_equivalence(emb: EmbeddingMap, s: Structure, t, config: RunConfig):
    """The transformation commutes with inducing: transforming the ambient
    structure and restricting agrees with restricting and transforming by
    the restricted functions."""
    from .conformal import transform

    lhs = induced_structure(emb, transform(s, t))
    rhs = transform(induced_structure(emb, s), _restricted(emb, t))

    def fn(p):
        Lg = lhs.g.value(p)
        Rg = rhs.g.value(p)
        require_nondegenerate_metric(rhs.g, p)
        Lc = lhs.conn.value(p)
        Rc = rhs.conn.value(p)
        res = np.maximum(row_max(Lg - Rg, p), row_max(Lc - Rc, p))
        return res, 1.0 + row_max(Lg, p) + row_max(Lc, p) + row_max(Rc, p)

    return [run_pointwise_check("induced_cp_equivalence", emb.domain, fn, config,
                                detail="transforming then inducing = inducing then transforming")]


def check_beta_symmetry(frame, config: RunConfig):
    """On a hypersurface along which the structure satisfies the condition,
    the normal-derivative form ``beta`` is symmetric."""
    name, detail = frame.VERDICTS["beta_symmetry"]
    if not _swmt_along(frame.emb, frame.s, config).passed:
        return [gated(name, AMBIENT_FAILS, config.tol)]

    def fn(p):
        b = frame.beta(p)
        return row_max(b - b.swapaxes(-1, -2), p), 1.0 + row_max(b, p)

    return [run_pointwise_check(name, frame.emb.domain, fn, config, detail=detail)]


def check_duality_pairing(frame, config: RunConfig):
    """``beta = eps * alpha-star`` and ``beta-star = eps * alpha``: the
    normal-derivative form of one connection is the second fundamental form
    of its semi-dual."""
    dual = frame.with_structure(semi_dual(frame.s))
    name, detail = frame.VERDICTS["duality_pairing"]

    def fn(p):
        eps = frame.eps(p)[..., None, None]
        beta, alpha = frame.beta(p), frame.alpha(p)
        r1 = row_max(beta - eps * dual.alpha(p), p)
        r2 = row_max(dual.beta(p) - eps * alpha, p)
        scale = 1.0 + row_max(beta, p) + row_max(alpha, p)
        return np.maximum(r1, r2), scale

    return [run_pointwise_check(name, frame.emb.domain, fn, config, detail=detail)]


def umbilic_deviation(frame: HypersurfaceFrame, p, order):
    """Least-squares proportionality factor ``f`` with ``beta ~ f g'`` and
    the residual ``|beta - f g'|`` (jets when order > 0), at a point or at
    each point of a set."""
    beta, _, _, _ = frame.weingarten(p, order)
    gp = frame.emb.induced_metric(frame.s.g).jet(p, order)
    f = jet_einsum("...ab,...ab->...", beta, gp) / jet_einsum("...ab,...ab->...", gp, gp)
    return f, row_max(beta.value - f.value[..., None, None] * gp.value, p), beta, gp


def _off_umbilic(beta, G, p):
    """``|beta - f G|`` for the least-squares factor ``f``."""
    f = np.einsum("...ab,...ab->...", beta, G) / np.einsum("...ab,...ab->...", G, G)
    return row_max(beta - f[..., None, None] * G, p)


def check_umbilic_preservation(frame, t, config: RunConfig):
    """The transformed normal-derivative form satisfies ``beta~ = c (beta -
    dphi(N) G)``, with ``G`` the metric of the tangent frame and ``c =
    e^{w (phi+psi)}`` for the frame's weight ``w``; in particular points
    where ``beta`` is proportional to ``G`` stay proportional.

    The unit normal has ``w = 1/2``.  The null transversal of a radical
    pinned to the same normalization before and after rescales by the full
    inverse conformal factor, which absorbs the square-root prefactor:
    ``w = 0``."""
    from .conformal import transform

    frame_t = frame.with_structure(transform(frame.s, t))
    emb = frame.emb
    not_umbilic = "point is not umbilic before the transformation"
    law_name, law_detail = frame.VERDICTS["beta_law"]
    name, detail = frame.VERDICTS["umbilic"]

    def law_fn(p):
        lhs = frame_t.beta(p)
        beta = frame.beta(p)
        G = frame.tangent_metric(p)
        q = emb.coords.value(p)
        phi_j = t.phi.jet(q, 1)
        dphi_N = np.vecdot(phi_j.grad, frame.transversal_value(p))[..., None, None]
        factor = np.exp(frame.BETA_LAW_WEIGHT * (phi_j.value + t.psi.value(q)))[..., None, None]
        rhs = factor * (beta - dphi_N * G)
        return row_max(lhs - rhs, p), 1.0 + row_max(lhs, p) + row_max(rhs, p)

    def umbilic_fn(p):
        beta, G = frame.beta(p), frame.tangent_metric(p)
        off = _off_umbilic(beta, G, p) > config.tol * (1.0 + row_max(G, p))
        reason = np.where(off, not_umbilic, "")
        if off.all():  # a point that is not umbilic is not transformed
            return np.nan, np.nan, reason
        beta_t, G_t = frame_t.beta(p), frame_t.tangent_metric(p)
        return _off_umbilic(beta_t, G_t, p), 1.0 + row_max(G_t, p), reason

    return run_laws(emb.domain, config, [(law_name, law_fn, None, law_detail), (name, umbilic_fn, None, detail)])


def check_gauss_equation(emb: EmbeddingMap, s: Structure, config: RunConfig):
    """Ambient curvature on tangent vectors decomposes into the induced
    curvature, shape-operator terms, and a normal component built from the
    second fundamental form."""
    frame = HypersurfaceFrame(emb, s)
    ind = induced_structure(emb, s)

    def fn(p):
        q = emb.coords.value(p)
        R_amb = curvature_values(s.conn, q)
        dF = emb.coords.jet(p, 1).grad
        # R(dF_a, dF_b) dF_c, one tangent vector at a time: one einsum of
        # all four operands took 8x as long on 150 points
        lhs = np.einsum("...lkij,...kc->...lijc", R_amb, dF)
        lhs = np.einsum("...ia,...lijc->...aljc", dF, lhs)
        lhs = np.einsum("...jb,...aljc->...lcab", dF, lhs)

        Rp = curvature_values(ind.conn, p)
        Tp = torsion_values(ind.conn, p)
        alpha_j, eps = frame.second_fundamental_form(p, 1)
        alpha = alpha_j.value
        dalpha = np.moveaxis(alpha_j.grad, -1, -3)  # [a, b, c] = d_a alpha_bc
        # (nabla'_a alpha)(b, c)
        nalpha = covariant_derivative_of_form(dalpha, ind.conn.value(p), alpha)
        beta_j, tau_j, B_j, _ = frame.weingarten(p, 0)
        tau = tau_j.value
        B = B_j.value  # B[d, a]
        N, _ = frame.normal(p, 0)
        Nv = N.value

        rhs = np.einsum("...dcab,...ld->...lcab", Rp, dF)
        shape_term = np.einsum("...bc,...da->...dcab", alpha, B) - np.einsum("...ac,...db->...dcab", alpha, B)
        rhs -= np.einsum("...dcab,...ld->...lcab", shape_term, dF)
        # the normal component, as [a, b, c]: the Codazzi defect of alpha
        normal = codazzi_defect(nalpha, alpha, Tp, tau)
        rhs += np.einsum("...abc,...l->...lcab", normal, Nv)
        return row_max(lhs - rhs, p), 1.0 + row_max(lhs, p) + row_max(rhs, p)

    return [run_pointwise_check("gauss_equation", emb.domain, fn, config,
                                detail="ambient curvature on tangent vectors = induced curvature + shape terms + normal part")]


def check_flat_dual_hypersurface(emb: EmbeddingMap, s: Structure, config: RunConfig):
    """When the hypersurface is umbilic (``beta = f g'``) and the ambient
    semi-dual connection is flat along it, the induced semi-dual curvature
    has a closed wedge form and the proportionality function obeys a
    first-order law: the wedge of ``df`` with the induced metric cancels
    ``f`` times the induced semi-dual metric-derivative antisymmetry, its
    torsion pairing, and the wedge of the dual transversal one-form."""
    frame = HypersurfaceFrame(emb, s)
    frame_dual = HypersurfaceFrame(emb, semi_dual(s))
    ind = induced_structure(emb, s)
    ind_dual = semi_dual(ind).conn

    def gate_fn(p):
        q = emb.coords.value(p)
        R_star = curvature_values(frame_dual.s.conn, q)
        _, dev, _, gp = umbilic_deviation(frame, p, 0)
        return np.maximum(row_max(R_star, q), dev), 1.0 + row_max(gp.value, p)

    gate = run_pointwise_check("flat_dual/hypothesis", emb.domain, gate_fn, config)
    if not gate.passed:
        return [gated("flat_dual_hypersurface", "not umbilic or ambient semi-dual not flat", config.tol)]

    def fn(p):
        f_jet, _, _, gp = umbilic_deviation(frame, p, 1)
        gpv = gp.value
        Rp = curvature_values(ind_dual, p)
        _, tau_star_j, B_star_j, eps = frame_dual.weingarten(p, 0)
        B_star = B_star_j.value
        tau_star = tau_star_j.value
        f = f_jet.value
        rhs = (eps * f)[..., None, None, None, None] * (
            np.einsum("...bc,...da->...dcab", gpv, B_star) - np.einsum("...ac,...db->...dcab", gpv, B_star)
        )
        r1 = row_max(Rp - rhs, p)
        # the vanishing normal component of the ambient semi-dual curvature,
        # written out exactly (no substitution of a one-form for the induced
        # semi-dual metric-derivative antisymmetry)
        ngs = nabla_g_values(ind_dual, ind.g, p)
        defect = codazzi_defect(ngs, gpv, torsion_values(ind_dual, p), tau_star)
        law = wedge_g(f_jet.grad, gpv) + f[..., None, None, None] * defect
        r2 = row_max(law, p)
        scale = 1.0 + row_max(Rp, p) + row_max(rhs, p) + abs(f) * (1 + row_max(tau_star, p))
        return np.maximum(r1, r2), scale

    return [run_pointwise_check("flat_dual_hypersurface", emb.domain, fn, config,
                                detail="induced semi-dual curvature wedge form and the first-order law for f")]
