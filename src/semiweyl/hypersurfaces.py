"""Non-degenerate submanifolds: pullbacks through an embedding, induced
structures, second fundamental forms, shape operators, and the checks tying
them to the ambient geometry (induced-structure condition, duality,
curvature decomposition, umbilic behaviour under the conformal-projective
transformation).

Beta symmetry, the duality pairing and the umbilic laws are written once,
against the fundamental-form data a frame gives at a point (the forms
``alpha`` and ``beta`` of a connection, the sign ``eps = g(N, N)``, the
metric of the tangent frame and the transversal ``N``).  They serve the
unit normal of a :class:`HypersurfaceFrame` here and the null transversal
of a :class:`~semiweyl.lightlike.LightlikeFrame`."""

from __future__ import annotations

import numpy as np

from .fields import (
    Chart,
    ConnectionField,
    DegeneratePointError,
    LastPointCache,
    MetricField,
    OneFormField,
    VectorField,
)
from .jets import jet_compose, jet_cross, jet_einsum, jet_solve, partials
from .structures import Structure, is_swmt, semi_dual_connection
from .tensor import (
    curvature_values,
    degeneracy_threshold,
    nabla_g_values,
    require_nondegenerate,
    torsion_values,
)
from .verdicts import RunConfig, SkipPoint, gated, run_pointwise_check

__all__ = [
    "EmbeddingMap",
    "induced_structure",
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
    The map keeps one pullback per ambient field (and one induced metric
    per ambient metric), so every frame and check on the map shares its
    jets at the most recent point."""

    def __init__(self, domain: Chart, ambient: Chart, components):
        if len(components) != ambient.dim:
            raise ValueError("one component expression per ambient coordinate is required")
        self.domain = domain
        self.ambient = ambient
        self.coords = VectorField.from_expressions(domain, components)
        self._pullbacks = {}
        self._induced_metrics = {}

    @property
    def codim(self):
        return self.ambient.dim - self.domain.dim

    def jet(self, p, order):
        """Jets of the ambient coordinates at ``p`` (shared and read-only,
        like any field's)."""
        return self.coords.jet(p, order)

    def value(self, p):
        return self.coords.value(p)

    def compose(self, field):
        """The pullback of an ambient field: a field of the same kind on the
        domain, whose jets are those of ``field`` along the map."""
        pb = self._pullbacks.get(field)
        if pb is None:

            def fn(p, order):
                F = self.jet(p, order)
                return jet_compose(field.jet(F.value, order), F)

            pb = self._pullbacks[field] = type(field)(self.domain, fn)
        return pb

    def induced_metric(self, g):
        """The metric ``g(dF e_a, dF e_b)`` induced on the domain by the
        ambient metric ``g``."""
        gp = self._induced_metrics.get(g)
        if gp is None:
            Gc = self.compose(g)

            def fn(p, order):
                dF = partials(self.jet(p, order + 1))
                return jet_einsum("ia,jb,ij->ab", dF, dF, Gc.jet(p, order))

            gp = self._induced_metrics[g] = MetricField(self.domain, fn)
        return gp


def induced_structure(emb: EmbeddingMap, s: Structure) -> Structure:
    """Restrict the metric and one-form and project the connection onto the
    image of the map (valid in any codimension, requires the induced metric
    to be non-degenerate)."""
    gp = emb.induced_metric(s.g)
    Gc = emb.compose(s.g)
    eta_c = emb.compose(s.eta)

    def eta_fn(p, order):
        dF = partials(emb.jet(p, order + 1))
        return jet_einsum("i,ia->a", eta_c.jet(p, order), dF)

    def conn_fn(p, order):
        G = gp.jet(p, order)
        require_nondegenerate(G.value)
        dF = partials(emb.jet(p, order + 1))
        W = _ambient_derivative_of_frame(emb, s.conn, p, order)
        # g'_{kd} gamma^k_{ab} = g(dF e_d, W_ab)
        return jet_solve(G, jet_einsum("id,ij,jab->dab", dF, Gc.jet(p, order), W))

    return Structure(
        emb.domain,
        gp,
        OneFormField(emb.domain, eta_fn),
        ConnectionField(emb.domain, conn_fn),
    )


def _ambient_derivative_of_frame(emb, conn, p, order):
    """``W[i, a, b]``: ambient components of the ambient covariant
    derivative of the coordinate frame, ``nabla_{dF e_a} (dF e_b)``."""
    dF = partials(emb.jet(p, order + 2))
    Gamc = emb.compose(conn).jet(p, order)
    return partials(dF).transpose(0, 2, 1) + jet_einsum("ijk,ja,kb->iab", Gamc, dF, dF)


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
        self._sign = None
        self._normals = LastPointCache()

    def with_structure(self, s: Structure):
        """The frame of the same hypersurface in another ambient structure."""
        return HypersurfaceFrame(self.emb, s)

    def _raw_normal(self, p, order):
        """Un-normalized conormal ``nu_i = eps_{i j k ...} dF[j, 0] dF[k, 1]
        ...`` (the cofactors of the differential), raised with the inverse
        metric; returns (N_raw, nu, Gc)."""
        emb = self.emb
        dF = partials(emb.jet(p, order + 1))
        Gc = emb.compose(self.s.g).jet(p, order)
        nu = jet_cross(dF.T)
        return jet_solve(Gc, nu), nu, Gc

    def _orientation(self):
        if self._sign is None:
            N_raw, _, _ = self._raw_normal(self.emb.domain.center(), 0)
            vals = N_raw.value
            pivot = int(np.argmax(np.abs(vals)))
            self._sign = (pivot, 1.0 if vals[pivot] > 0 else -1.0)
        return self._sign

    def normal(self, p, order):
        """Unit normal ``N`` (ambient components, jets) and the sign
        ``eps = g(N, N) = +-1``; the result at the most recent point is
        kept per order."""
        return self._normals(self._unit_normal, p, order)

    def _unit_normal(self, p, order):
        _, sign = self._orientation()  # before p's jets, which it would evict
        N_raw, nu, Gc = self._raw_normal(p, order)
        norm2 = jet_einsum("i,i->", nu, N_raw)
        v = norm2.value
        if abs(v) <= degeneracy_threshold(Gc.value):
            raise DegeneratePointError("normal direction is null at this point")
        eps = 1.0 if v > 0 else -1.0
        length = (norm2 if eps > 0 else -norm2).sqrt()
        N = N_raw / length
        return (N if sign > 0 else -N), eps

    def second_fundamental_form(self, p, order=0, conn=None):
        """``alpha[a, b] = eps * g(nabla_{dF e_a}(dF e_b), N)`` as jets."""
        conn = self.s.conn if conn is None else conn
        W = _ambient_derivative_of_frame(self.emb, conn, p, order)
        Gc = self.emb.compose(self.s.g).jet(p, order)
        N, eps = self.normal(p, order)
        alpha = jet_einsum("ij,iab,j->ab", Gc, W, N)
        return (-alpha if eps < 0 else alpha), eps

    def normal_derivative(self, p, order=0, conn=None):
        """``DN[i, a]``: ambient components of ``nabla_{dF e_a} N``."""
        conn = self.s.conn if conn is None else conn
        N, eps = self.normal(p, order + 1)
        Gamc = self.emb.compose(conn).jet(p, order)
        dF = partials(self.emb.jet(p, order + 1))
        DN = partials(N) + jet_einsum("ijk,ja,k->ia", Gamc, dF, N)
        return DN, N, eps, dF

    def weingarten(self, p, order=0, conn=None):
        """Returns ``(beta, tau, B, eps)`` as jets: ``beta[a,b] =
        -g(nabla_a N, dF e_b)``, ``tau[a] = eps g(nabla_a N, N)`` and the
        shape operator ``B[d, a]`` with ``beta(X, Y) = g'(B X, Y)``."""
        DN, N, eps, dF = self.normal_derivative(p, order, conn=conn)
        Gc = self.emb.compose(self.s.g).jet(p, order)
        tau = jet_einsum("ij,ia,j->a", Gc, DN, N)
        tau = -tau if eps < 0 else tau
        beta = -jet_einsum("ij,ia,jb->ab", Gc, DN, dF)
        gp = self.emb.induced_metric(self.s.g).jet(p, order)
        require_nondegenerate(gp.value)
        B = jet_solve(gp, beta.T)  # B[d, a] with g'_{db} B^d_a = beta_{ab}
        return beta, tau, B, eps

    # -- the values the shared fundamental-form checks read ----------------

    def alpha(self, p, conn=None):
        return self.second_fundamental_form(p, 0, conn)[0].value

    def beta(self, p, conn=None):
        return self.weingarten(p, 0, conn)[0].value

    def eps(self, p):
        return self.normal(p, 0)[1]

    def tangent_metric(self, p):
        """The induced metric ``g'``."""
        return self.emb.induced_metric(self.s.g).value(p)

    def transversal_value(self, p):
        return self.normal(p, 0)[0].value


# -- checks -------------------------------------------------------------------


def check_induced_structure(emb: EmbeddingMap, s: Structure, config: RunConfig):
    """A non-degenerate submanifold of a structure satisfying the
    eta-weighted torsion-Codazzi condition satisfies it too (with the
    induced data)."""
    gate = is_swmt(s, config, name="induced/ambient_hypothesis")
    if not gate.passed:
        return [gated("induced_structure_swmt", "ambient structure condition fails", config.tol)]
    ind = induced_structure(emb, s)
    v = is_swmt(ind, config, name="induced_structure_swmt")
    v.detail = "induced structure satisfies the same condition as the ambient one"
    return [v]


def check_induced_duality_commutes(emb: EmbeddingMap, s: Structure, config: RunConfig):
    """Projecting the semi-dual connection equals taking the semi-dual of
    the projected connection (with the induced metric and one-form)."""
    ind = induced_structure(emb, s)
    lhs = semi_dual_connection(ind.g, ind.eta, ind.conn)
    amb_dual = Structure(emb.ambient, s.g, s.eta, semi_dual_connection(s.g, s.eta, s.conn))
    rhs = induced_structure(emb, amb_dual).conn

    def fn(p):
        L = lhs.value(p)
        R = rhs.value(p)
        return float(np.max(np.abs(L - R))), 1.0 + np.max(np.abs(L)) + np.max(np.abs(R))

    return [run_pointwise_check("induced_duality_commutes", emb.domain, fn, config,
                                detail="semi-dual of the induced structure = induced semi-dual")]


def check_induced_cp_equivalence(emb: EmbeddingMap, s: Structure, t, config: RunConfig):
    """The transformation commutes with inducing: transforming the ambient
    structure and restricting agrees with restricting and transforming by
    the restricted functions."""
    from .conformal import TransformData, transform

    st = transform(s, t)
    lhs = induced_structure(emb, st)
    t_res = TransformData(emb.domain, emb.compose(t.phi), emb.compose(t.psi))
    rhs = transform(induced_structure(emb, s), t_res)

    def fn(p):
        Lg = lhs.g.value(p)
        Rg = rhs.g.value(p)
        require_nondegenerate(Rg)
        Lc = lhs.conn.value(p)
        Rc = rhs.conn.value(p)
        res = max(np.max(np.abs(Lg - Rg)), np.max(np.abs(Lc - Rc)))
        return float(res), 1.0 + np.max(np.abs(Lg)) + np.max(np.abs(Lc)) + np.max(np.abs(Rc))

    return [run_pointwise_check("induced_cp_equivalence", emb.domain, fn, config,
                                detail="transforming then inducing = inducing then transforming")]


def check_beta_symmetry(frame, config: RunConfig):
    """On a hypersurface of a structure satisfying the condition, the
    normal-derivative form ``beta`` is symmetric."""
    name, detail = frame.VERDICTS["beta_symmetry"]
    gate = is_swmt(frame.s, config, name=f"{name}/ambient_hypothesis")
    if not gate.passed:
        return [gated(name, "ambient structure condition fails", config.tol)]

    def fn(p):
        b = frame.beta(p)
        return float(np.max(np.abs(b - b.T))), 1.0 + np.max(np.abs(b))

    return [run_pointwise_check(name, frame.emb.domain, fn, config, detail=detail)]


def check_duality_pairing(frame, config: RunConfig):
    """``beta = eps * alpha-star`` and ``beta-star = eps * alpha``: the
    normal-derivative form of one connection is the second fundamental form
    of its semi-dual."""
    s = frame.s
    dual = semi_dual_connection(s.g, s.eta, s.conn)
    name, detail = frame.VERDICTS["duality_pairing"]

    def fn(p):
        eps = frame.eps(p)
        beta, alpha = frame.beta(p), frame.alpha(p)
        r1 = np.max(np.abs(beta - eps * frame.alpha(p, dual)))
        r2 = np.max(np.abs(frame.beta(p, dual) - eps * alpha))
        scale = 1.0 + np.max(np.abs(beta)) + np.max(np.abs(alpha))
        return float(max(r1, r2)), scale

    return [run_pointwise_check(name, frame.emb.domain, fn, config, detail=detail)]


def umbilic_deviation(frame: HypersurfaceFrame, p, order=0):
    """Least-squares proportionality factor ``f`` with ``beta ~ f g'`` and
    the residual ``|beta - f g'|`` (jets when order > 0)."""
    beta, _, _, _ = frame.weingarten(p, order)
    gp = frame.emb.induced_metric(frame.s.g).jet(p, order)
    f = jet_einsum("ab,ab->", beta, gp) / jet_einsum("ab,ab->", gp, gp)
    dev = np.max(np.abs(beta.value - f.value * gp.value))
    return f, float(dev), beta, gp


def _off_umbilic(beta, G):
    """``|beta - f G|`` for the least-squares factor ``f``."""
    f = np.einsum("ab,ab->", beta, G) / np.einsum("ab,ab->", G, G)
    return float(np.max(np.abs(beta - f * G)))


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
    law_name, law_detail = frame.VERDICTS["beta_law"]
    name, detail = frame.VERDICTS["umbilic"]

    def law_fn(p):
        lhs = frame_t.beta(p)
        beta = frame.beta(p)
        G = frame.tangent_metric(p)
        q = emb.value(p)
        phi_j = t.phi.jet(q, 1)
        dphi_N = float(phi_j.grad @ frame.transversal_value(p))
        factor = np.exp(frame.BETA_LAW_WEIGHT * (phi_j.value + t.psi.value(q)))
        rhs = factor * (beta - dphi_N * G)
        return float(np.max(np.abs(lhs - rhs))), 1.0 + np.max(np.abs(lhs)) + np.max(np.abs(rhs))

    def umbilic_fn(p):
        beta, G = frame.beta(p), frame.tangent_metric(p)
        if _off_umbilic(beta, G) > config.tol * (1.0 + np.max(np.abs(G))):
            raise SkipPoint("point is not umbilic before the transformation")
        beta_t, G_t = frame_t.beta(p), frame_t.tangent_metric(p)
        return _off_umbilic(beta_t, G_t), 1.0 + np.max(np.abs(G_t))

    return [
        run_pointwise_check(law_name, emb.domain, law_fn, config, detail=law_detail),
        run_pointwise_check(name, emb.domain, umbilic_fn, config, detail=detail),
    ]


def check_gauss_equation(emb: EmbeddingMap, s: Structure, config: RunConfig):
    """Ambient curvature on tangent vectors decomposes into the induced
    curvature, shape-operator terms, and a normal component built from the
    second fundamental form."""
    frame = HypersurfaceFrame(emb, s)
    ind = induced_structure(emb, s)

    def fn(p):
        q = emb.value(p)
        R_amb = curvature_values(s.conn, q)
        dF = emb.jet(p, 1).grad
        lhs = np.einsum("lkij,kc,ia,jb->lcab", R_amb, dF, dF, dF)

        Rp = curvature_values(ind.conn, p)
        gam_p = ind.conn.value(p)
        Tp = torsion_values(ind.conn, p)
        alpha_j, eps = frame.second_fundamental_form(p, order=1)
        alpha = alpha_j.value
        dalpha = alpha_j.grad.transpose(2, 0, 1)  # [a, b, c] = d_a alpha_bc
        # (nabla'_a alpha)(b, c)
        nalpha = dalpha - np.einsum("mab,mc->abc", gam_p, alpha) - np.einsum("mac,bm->abc", gam_p, alpha)
        beta_j, tau_j, B_j, _ = frame.weingarten(p)
        tau = tau_j.value
        B = B_j.value  # B[d, a]
        N, _ = frame.normal(p, 0)
        Nv = N.value

        rhs = np.einsum("dcab,ld->lcab", Rp, dF)
        shape_term = np.einsum("bc,da->dcab", alpha, B) - np.einsum("ac,db->dcab", alpha, B)
        rhs -= np.einsum("dcab,ld->lcab", shape_term, dF)
        # the normal component, as [a, b, c]
        normal = (
            nalpha - nalpha.transpose(1, 0, 2)
            + np.einsum("bc,a->abc", alpha, tau) - np.einsum("ac,b->abc", alpha, tau)
            + np.einsum("mab,mc->abc", Tp, alpha)
        )
        rhs += np.einsum("abc,l->lcab", normal, Nv)
        return float(np.max(np.abs(lhs - rhs))), 1.0 + np.max(np.abs(lhs)) + np.max(np.abs(rhs))

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
    dual = semi_dual_connection(s.g, s.eta, s.conn)
    ind = induced_structure(emb, s)
    ind_dual = semi_dual_connection(ind.g, ind.eta, ind.conn)

    def gate_fn(p):
        q = emb.value(p)
        R_star = curvature_values(dual, q)
        _, dev, _, gp = umbilic_deviation(frame, p)
        res = max(np.max(np.abs(R_star)), dev)
        return float(res), 1.0 + np.max(np.abs(gp.value))

    gate = run_pointwise_check("flat_dual/hypothesis", emb.domain, gate_fn, config)
    if not gate.passed:
        return [gated("flat_dual_hypersurface", "not umbilic or ambient semi-dual not flat", config.tol)]

    def fn(p):
        f_jet, _, _, gp = umbilic_deviation(frame, p, order=1)
        gpv = gp.value
        Rp = curvature_values(ind_dual, p)
        _, tau_star_j, B_star_j, eps = frame.weingarten(p, conn=dual)
        B_star = B_star_j.value
        tau_star = tau_star_j.value
        f = f_jet.value
        rhs = eps * f * (
            np.einsum("bc,da->dcab", gpv, B_star) - np.einsum("ac,db->dcab", gpv, B_star)
        )
        r1 = np.max(np.abs(Rp - rhs))
        # the vanishing normal component of the ambient semi-dual curvature,
        # written out exactly (no substitution of a one-form for the induced
        # semi-dual metric-derivative antisymmetry)
        df = f_jet.grad
        ngs = nabla_g_values(ind_dual, ind.g, p)
        Ts = torsion_values(ind_dual, p)
        law = (
            np.einsum("x,yz->xyz", df, gpv)
            - np.einsum("y,xz->xyz", df, gpv)
            + f * (ngs - np.transpose(ngs, (1, 0, 2)))
            + f * np.einsum("kxy,kz->xyz", Ts, gpv)
            + f * (np.einsum("x,yz->xyz", tau_star, gpv) - np.einsum("y,xz->xyz", tau_star, gpv))
        )
        r2 = np.max(np.abs(law))
        scale = 1.0 + np.max(np.abs(Rp)) + np.max(np.abs(rhs)) + abs(f) * (1 + np.max(np.abs(tau_star)))
        return float(max(r1, r2)), scale

    return [run_pointwise_check("flat_dual_hypersurface", emb.domain, fn, config,
                                detail="induced semi-dual curvature wedge form and the first-order law for f")]
