"""Non-degenerate submanifolds: induced structures, second fundamental
forms, shape operators, and the checks tying them to the ambient geometry
(induced-structure condition, duality, curvature decomposition, umbilic
behaviour under the conformal-projective transformation)."""

from __future__ import annotations

import numpy as np

from .fields import (
    Chart,
    ConnectionField,
    DegeneratePointError,
    MetricField,
    OneFormField,
    ScalarField,
    VectorField,
)
from .jets import Jet, jet_compose, jet_det, jet_matinv, jet_solve, values_of
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
    "pullback_scalar",
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
    one expression per ambient coordinate."""

    def __init__(self, domain: Chart, ambient: Chart, components):
        if len(components) != ambient.dim:
            raise ValueError("one component expression per ambient coordinate is required")
        self.domain = domain
        self.ambient = ambient
        self.components = tuple(domain.parse(c) if isinstance(c, str) else c for c in components)

    @property
    def codim(self):
        return self.ambient.dim - self.domain.dim

    def jet(self, p, order):
        from .expressions import eval_jet

        out = np.empty(self.ambient.dim, dtype=object)
        for i, c in enumerate(self.components):
            out[i] = eval_jet(c, p, order, dim=self.domain.dim)
        return out

    def value(self, p):
        return values_of(self.jet(p, 0))

    def compose(self, field, extra_order=0):
        """Pull an ambient field back through the map: returns a function
        ``(p, order) -> jets in the domain variables``."""

        def fn(p, order):
            F = self.jet(p, order + extra_order)
            q = values_of(F)
            outer = field.jet(q, order)
            outer = np.asarray(outer, dtype=object)
            out = np.empty(outer.shape, dtype=object)
            for idx in np.ndindex(outer.shape):
                out[idx] = jet_compose(outer[idx], F)
            return out if outer.shape else out[()]

        return fn


def pullback_scalar(emb: EmbeddingMap, f) -> ScalarField:
    fs = f if isinstance(f, ScalarField) else ScalarField.from_expression(emb.ambient, f)

    def fn(p, order):
        F = emb.jet(p, order)
        return jet_compose(fs.jet(values_of(F), order), F)

    return ScalarField(emb.domain, fn)


def _differential(F, m):
    """``dF[i, a] = d F^i / d u^a`` as jets one order below ``F``."""
    n = F.shape[0]
    dF = np.empty((n, m), dtype=object)
    for i in range(n):
        for a in range(m):
            dF[i, a] = F[i].partial(a)
    return dF


def _induced_metric_jets(emb, g, p, order):
    F = emb.jet(p, order + 1)
    dF = _differential(F, emb.domain.dim)
    Gc = emb.compose(g)(p, order)
    m = emb.domain.dim
    gp = np.empty((m, m), dtype=object)
    for a in range(m):
        for b in range(a, m):
            acc = None
            for i in range(emb.ambient.dim):
                for j in range(emb.ambient.dim):
                    term = dF[i, a] * dF[j, b] * Gc[i, j]
                    acc = term if acc is None else acc + term
            gp[a, b] = acc
            gp[b, a] = acc
    return gp, dF, Gc


def induced_structure(emb: EmbeddingMap, s: Structure) -> Structure:
    """Restrict the metric and one-form and project the connection onto the
    image of the map (valid in any codimension, requires the induced metric
    to be non-degenerate)."""
    m = emb.domain.dim
    n = emb.ambient.dim

    def g_fn(p, order):
        gp, _, _ = _induced_metric_jets(emb, s.g, p, order)
        return gp

    def eta_fn(p, order):
        F = emb.jet(p, order + 1)
        dF = _differential(F, m)
        ec = emb.compose(s.eta)(p, order)
        out = np.empty(m, dtype=object)
        for a in range(m):
            acc = None
            for i in range(n):
                term = ec[i] * dF[i, a]
                acc = term if acc is None else acc + term
            out[a] = acc
        return out

    def conn_fn(p, order):
        gp, dF, Gc = _induced_metric_jets(emb, s.g, p, order)
        require_nondegenerate(values_of(gp))
        W = _ambient_derivative_of_frame(emb, s.conn, p, order)
        # right-hand sides: v[d, (a,b)] = g(dF e_d, W_ab)
        rhs = np.empty((m, m * m), dtype=object)
        for d in range(m):
            for a in range(m):
                for b in range(m):
                    acc = None
                    for i in range(n):
                        for j in range(n):
                            term = dF[i, d] * Gc[i, j] * W[j, a, b]
                            acc = term if acc is None else acc + term
                    rhs[d, a * m + b] = acc
        sol = jet_solve(gp, rhs)
        out = np.empty((m, m, m), dtype=object)
        for k in range(m):
            for a in range(m):
                for b in range(m):
                    out[k, a, b] = sol[k, a * m + b]
        return out

    return Structure(
        emb.domain,
        MetricField(emb.domain, g_fn),
        OneFormField(emb.domain, eta_fn),
        ConnectionField(emb.domain, conn_fn),
    )


def _ambient_derivative_of_frame(emb, conn, p, order):
    """``W[i, a, b]``: ambient components of the ambient covariant
    derivative of the coordinate frame, ``nabla_{dF e_a} (dF e_b)``."""
    m = emb.domain.dim
    n = emb.ambient.dim
    F = emb.jet(p, order + 2)
    dF = _differential(F, m)
    Gamc = emb.compose(conn)(p, order)
    W = np.empty((n, m, m), dtype=object)
    for i in range(n):
        for a in range(m):
            for b in range(m):
                acc = dF[i, b].partial(a)
                for j in range(n):
                    for k in range(n):
                        acc = acc + Gamc[i, j, k] * dF[j, a] * dF[k, b]
                W[i, a, b] = acc
    return W


class HypersurfaceFrame:
    """Unit normal and fundamental forms of a codimension-one non-degenerate
    submanifold, evaluated pointwise as jets."""

    def __init__(self, emb: EmbeddingMap, s: Structure):
        if emb.codim != 1:
            raise ValueError("a hypersurface has codimension one")
        self.emb = emb
        self.s = s
        self._sign = None

    def _raw_normal(self, p, order):
        """Un-normalized conormal by cofactor expansion, raised with the
        inverse metric; returns (N_raw ambient-vector jets, Gc, dF)."""
        emb = self.emb
        n = emb.ambient.dim
        m = emb.domain.dim
        F = emb.jet(p, order + 1)
        dF = _differential(F, m)
        Gc = emb.compose(self.s.g)(p, order)
        nu = np.empty(n, dtype=object)
        for i in range(n):
            minor = np.delete(dF, i, axis=0)
            d = jet_det(minor)
            nu[i] = d if i % 2 == 0 else -d
        Ginv = jet_matinv(Gc)
        N_raw = np.empty(n, dtype=object)
        for i in range(n):
            acc = None
            for j in range(n):
                term = Ginv[i, j] * nu[j]
                acc = term if acc is None else acc + term
            N_raw[i] = acc
        return N_raw, nu, Gc, dF

    def _orientation(self):
        if self._sign is None:
            p = self.emb.domain.center()
            N_raw, nu, _, _ = self._raw_normal(p, 0)
            vals = values_of(N_raw)
            pivot = int(np.argmax(np.abs(vals)))
            self._sign = (pivot, 1.0 if vals[pivot] > 0 else -1.0)
        return self._sign

    def normal(self, p, order):
        """Unit normal ``N`` (ambient components, jets) and the sign
        ``eps = g(N, N) = +-1``."""
        N_raw, nu, Gc, dF = self._raw_normal(p, order)
        norm2 = None
        for i in range(self.emb.ambient.dim):
            term = nu[i] * N_raw[i]
            acc_prev = norm2
            norm2 = term if acc_prev is None else acc_prev + term
        v = norm2.value
        gvals = values_of(Gc)
        if abs(v) <= degeneracy_threshold(gvals):
            raise DegeneratePointError("normal direction is null at this point")
        eps = 1.0 if v > 0 else -1.0
        length = (norm2 if eps > 0 else -norm2).sqrt()
        _, sign = self._orientation()
        N = np.empty_like(N_raw)
        for i in range(self.emb.ambient.dim):
            N[i] = N_raw[i] / length if sign > 0 else -(N_raw[i] / length)
        return N, eps

    def second_fundamental_form(self, p, order=0, conn=None):
        """``alpha[a, b] = eps * g(nabla_{dF e_a}(dF e_b), N)`` as jets."""
        conn = self.s.conn if conn is None else conn
        m = self.emb.domain.dim
        n = self.emb.ambient.dim
        W = _ambient_derivative_of_frame(self.emb, conn, p, order)
        Gc = self.emb.compose(self.s.g)(p, order)
        N, eps = self.normal(p, order)
        alpha = np.empty((m, m), dtype=object)
        for a in range(m):
            for b in range(m):
                acc = None
                for i in range(n):
                    for j in range(n):
                        term = Gc[i, j] * W[i, a, b] * N[j]
                        acc = term if acc is None else acc + term
                alpha[a, b] = acc * eps if eps < 0 else acc
        return alpha, eps

    def normal_derivative(self, p, order=0, conn=None):
        """``DN[i, a]``: ambient components of ``nabla_{dF e_a} N``."""
        conn = self.s.conn if conn is None else conn
        m = self.emb.domain.dim
        n = self.emb.ambient.dim
        N, eps = self.normal(p, order + 1)
        Gamc = self.emb.compose(conn, extra_order=1)(p, order)
        F = self.emb.jet(p, order + 1)
        dF = _differential(F, m)
        DN = np.empty((n, m), dtype=object)
        for i in range(n):
            for a in range(m):
                acc = N[i].partial(a)
                for j in range(n):
                    for k in range(n):
                        acc = acc + Gamc[i, j, k] * dF[j, a] * N[k].truncate(order)
                DN[i, a] = acc
        return DN, N, eps, dF

    def weingarten(self, p, order=0, conn=None):
        """Returns ``(beta, tau, B, eps)`` as jets: ``beta[a,b] =
        -g(nabla_a N, dF e_b)``, ``tau[a] = eps g(nabla_a N, N)`` and the
        shape operator ``B[d, a]`` with ``beta(X, Y) = g'(B X, Y)``."""
        m = self.emb.domain.dim
        n = self.emb.ambient.dim
        DN, N, eps, dF = self.normal_derivative(p, order, conn=conn)
        Gc = self.emb.compose(self.s.g)(p, order)
        Ntr = np.array([N[i].truncate(order) for i in range(n)], dtype=object)
        beta = np.empty((m, m), dtype=object)
        tau = np.empty(m, dtype=object)
        for a in range(m):
            acc_t = None
            for i in range(n):
                for j in range(n):
                    term = Gc[i, j] * DN[i, a] * Ntr[j]
                    acc_t = term if acc_t is None else acc_t + term
            tau[a] = acc_t * eps if eps < 0 else acc_t
            for b in range(m):
                acc = None
                for i in range(n):
                    for j in range(n):
                        term = Gc[i, j] * DN[i, a] * dF[j, b]
                        acc = term if acc is None else acc + term
                beta[a, b] = -acc
        gp, _, _ = _induced_metric_jets(self.emb, self.s.g, p, order)
        require_nondegenerate(values_of(gp))
        B = jet_solve(gp, beta.T)  # B[d, a] with g'_{db} B^d_a = beta_{ab}
        return beta, tau, B, eps


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
        L = values_of(lhs.jet(p, 0))
        R = values_of(rhs.jet(p, 0))
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
    t_res = TransformData(emb.domain, pullback_scalar(emb, t.phi), pullback_scalar(emb, t.psi))
    rhs = transform(induced_structure(emb, s), t_res)

    def fn(p):
        Lg = values_of(lhs.g.jet(p, 0))
        Rg = values_of(rhs.g.jet(p, 0))
        require_nondegenerate(Rg)
        Lc = values_of(lhs.conn.jet(p, 0))
        Rc = values_of(rhs.conn.jet(p, 0))
        res = max(np.max(np.abs(Lg - Rg)), np.max(np.abs(Lc - Rc)))
        return float(res), 1.0 + np.max(np.abs(Lg)) + np.max(np.abs(Lc)) + np.max(np.abs(Rc))

    return [run_pointwise_check("induced_cp_equivalence", emb.domain, fn, config,
                                detail="transforming then inducing = inducing then transforming")]


def check_beta_symmetry(emb: EmbeddingMap, s: Structure, config: RunConfig):
    """On a hypersurface of a structure satisfying the condition, the
    normal-derivative form ``beta`` is symmetric."""
    gate = is_swmt(s, config, name="beta/ambient_hypothesis")
    if not gate.passed:
        return [gated("beta_symmetry", "ambient structure condition fails", config.tol)]
    frame = HypersurfaceFrame(emb, s)

    def fn(p):
        beta, _, _, _ = frame.weingarten(p)
        b = values_of(beta)
        return float(np.max(np.abs(b - b.T))), 1.0 + np.max(np.abs(b))

    return [run_pointwise_check("beta_symmetry", emb.domain, fn, config,
                                detail="the form g(nabla N, .) is symmetric on the hypersurface")]


def check_duality_pairing(emb: EmbeddingMap, s: Structure, config: RunConfig):
    """``beta = eps * alpha-star`` and ``beta-star = eps * alpha``: the
    normal-derivative form of one connection is the second fundamental form
    of its semi-dual."""
    frame = HypersurfaceFrame(emb, s)
    dual = semi_dual_connection(s.g, s.eta, s.conn)

    def fn(p):
        beta, _, _, eps = frame.weingarten(p)
        alpha_star, _ = frame.second_fundamental_form(p, conn=dual)
        beta_star, _, _, _ = frame.weingarten(p, conn=dual)
        alpha, _ = frame.second_fundamental_form(p)
        r1 = np.max(np.abs(values_of(beta) - eps * values_of(alpha_star)))
        r2 = np.max(np.abs(values_of(beta_star) - eps * values_of(alpha)))
        scale = 1.0 + np.max(np.abs(values_of(beta))) + np.max(np.abs(values_of(alpha)))
        return float(max(r1, r2)), scale

    return [run_pointwise_check("duality_pairing", emb.domain, fn, config,
                                detail="fundamental forms of a connection and its semi-dual pair up")]


def umbilic_deviation(frame: HypersurfaceFrame, p, order=0):
    """Least-squares proportionality factor ``f`` with ``beta ~ f g'`` and
    the residual ``|beta - f g'|`` (jets when order > 0)."""
    beta, _, _, _ = frame.weingarten(p, order)
    gp, _, _ = _induced_metric_jets(frame.emb, frame.s.g, p, order)
    num = None
    den = None
    m = frame.emb.domain.dim
    for a in range(m):
        for b in range(m):
            tn = beta[a, b] * gp[a, b]
            td = gp[a, b] * gp[a, b]
            num = tn if num is None else num + tn
            den = td if den is None else den + td
    f = num / den
    dev = np.max(np.abs(values_of(beta) - f.value * values_of(gp)))
    return f, float(dev), beta, gp


def check_umbilic_preservation(emb: EmbeddingMap, s: Structure, t, config: RunConfig):
    """The transformed normal-derivative form satisfies
    ``beta~ = e^{(phi+psi)/2} (beta - dphi(N) g')``; in particular points
    where ``beta`` is proportional to ``g'`` stay proportional."""
    from .conformal import transform

    st = transform(s, t)
    frame = HypersurfaceFrame(emb, s)
    frame_t = HypersurfaceFrame(emb, st)

    def law_fn(p):
        beta_t, _, _, _ = frame_t.weingarten(p)
        beta, _, _, _ = frame.weingarten(p)
        gp, _, _ = _induced_metric_jets(emb, s.g, p, 0)
        N, _ = frame.normal(p, 0)
        q = emb.value(p)
        phi_j = t.phi.jet(q, 1)
        psi_j = t.psi.jet(q, 1)
        dphi_N = float(sum(phi_j.grad[i] * N[i].value for i in range(emb.ambient.dim)))
        factor = np.exp((phi_j.value + psi_j.value) / 2.0)
        rhs = factor * (values_of(beta) - dphi_N * values_of(gp))
        lhs = values_of(beta_t)
        return float(np.max(np.abs(lhs - rhs))), 1.0 + np.max(np.abs(lhs)) + np.max(np.abs(rhs))

    out = [run_pointwise_check("cp_beta_law", emb.domain, law_fn, config,
                               detail="normal-derivative form transforms by the stated closed formula")]

    def umbilic_fn(p):
        _, dev_before, _, gp = umbilic_deviation(frame, p)
        scale_b = 1.0 + np.max(np.abs(values_of(gp)))
        if dev_before > config.tol * scale_b:
            raise SkipPoint("point is not umbilic before the transformation")
        _, dev_after, beta_t, gp_t = umbilic_deviation(frame_t, p)
        return float(dev_after), 1.0 + np.max(np.abs(values_of(gp_t)))

    out.append(run_pointwise_check("umbilic_preservation", emb.domain, umbilic_fn, config,
                                   detail="umbilic points stay umbilic under the transformation"))
    return out


def check_gauss_equation(emb: EmbeddingMap, s: Structure, config: RunConfig):
    """Ambient curvature on tangent vectors decomposes into the induced
    curvature, shape-operator terms, and a normal component built from the
    second fundamental form."""
    frame = HypersurfaceFrame(emb, s)
    ind = induced_structure(emb, s)
    m = emb.domain.dim
    n = emb.ambient.dim

    def fn(p):
        q = emb.value(p)
        R_amb = curvature_values(s.conn, q)
        F = emb.jet(p, 1)
        dF = values_of(_differential(F, m))
        lhs = np.einsum("lkij,kc,ia,jb->lcab", R_amb, dF, dF, dF)

        Rp = curvature_values(ind.conn, p)
        gam_p = values_of(ind.conn.jet(p, 0))
        Tp = torsion_values(ind.conn, p)
        alpha_j, eps = frame.second_fundamental_form(p, order=1)
        alpha = values_of(alpha_j)
        dalpha = np.empty((m, m, m))
        for a in range(m):
            for b in range(m):
                for c in range(m):
                    dalpha[a, b, c] = alpha_j[b, c].grad[a]
        # (nabla'_a alpha)(b, c)
        nalpha = dalpha - np.einsum("mab,mc->abc", gam_p, alpha) - np.einsum("mac,bm->abc", gam_p, alpha)
        beta_j, tau_j, B_j, _ = frame.weingarten(p)
        tau = values_of(tau_j)
        B = values_of(B_j)  # B[d, a]
        N, _ = frame.normal(p, 0)
        Nv = values_of(N)

        rhs = np.einsum("dcab,ld->lcab", Rp, dF)
        shape_term = np.einsum("bc,da->dcab", alpha, B) - np.einsum("ac,db->dcab", alpha, B)
        rhs -= np.einsum("dcab,ld->lcab", shape_term, dF)
        normal_coeff = np.empty((m, m, m))
        for a in range(m):
            for b in range(m):
                for c in range(m):
                    normal_coeff[c, a, b] = (
                        nalpha[a, b, c]
                        + alpha[b, c] * tau[a]
                        - nalpha[b, a, c]
                        - alpha[a, c] * tau[b]
                        + float(Tp[:, a, b] @ alpha[:, c])
                    )
        rhs += np.einsum("cab,l->lcab", normal_coeff, Nv)
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
    m = emb.domain.dim

    def gate_fn(p):
        q = emb.value(p)
        R_star = curvature_values(dual, q)
        _, dev, _, gp = umbilic_deviation(frame, p)
        res = max(np.max(np.abs(R_star)), dev)
        return float(res), 1.0 + np.max(np.abs(values_of(gp)))

    gate = run_pointwise_check("flat_dual/hypothesis", emb.domain, gate_fn, config)
    if not gate.passed:
        return [gated("flat_dual_hypersurface", "not umbilic or ambient semi-dual not flat", config.tol)]

    def fn(p):
        f_jet, _, _, gp = umbilic_deviation(frame, p, order=1)
        gpv = values_of(gp)
        Rp = curvature_values(ind_dual, p)
        _, tau_star_j, B_star_j, eps = frame.weingarten(p, conn=dual)
        B_star = values_of(B_star_j)
        tau_star = values_of(tau_star_j)
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
