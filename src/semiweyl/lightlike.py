"""Degenerate (null) hypersurfaces: radical direction, unique transversal
field, screen decomposition, the induced screen structure, and its behaviour
under the conformal-projective transformation."""

from __future__ import annotations

import numpy as np

from .fields import Chart, DegeneratePointError, VectorField
from .hypersurfaces import EmbeddingMap, _differential, _induced_metric_jets
from .jets import Jet, constant_jets, jet_solve, values_of
from .structures import Structure, is_swmt, semi_dual_connection
from .tensor import degeneracy_threshold
from .verdicts import RunConfig, SkipPoint, gated, run_pointwise_check

__all__ = [
    "LightlikeFrame",
    "check_radical_quality",
    "check_transversal_conditions",
    "check_screen_integrability",
    "check_screen_structure",
    "check_screen_cp_equivalence",
    "check_lightlike_beta_symmetry",
    "check_lightlike_duality_pairing",
    "check_lightlike_umbilic_preservation",
]


def _coordinate_screen(chart: Chart, drop_index):
    fields = []
    for a in range(chart.dim):
        if a == drop_index:
            continue
        comps = ["0"] * chart.dim
        comps[a] = "1"
        fields.append(VectorField.from_expressions(chart, comps))
    return tuple(fields)


class LightlikeFrame:
    """Pointwise frame data for a hypersurface whose induced metric is
    degenerate of rank ``dim - 1``: the radical direction ``xi`` (pinned to
    have unit component at a fixed index), the unique transversal ``N``
    with ``g(N, xi) = 1``, ``g(N, N) = 0``, ``g(N, W) = 0`` for screen
    fields ``W``, and the screen-projected connection."""

    def __init__(self, emb: EmbeddingMap, s: Structure, screen=None):
        if emb.codim != 1:
            raise ValueError("a hypersurface has codimension one")
        self.emb = emb
        self.s = s
        self._pins = None
        self._screen = screen  # tuple of VectorFields on the domain chart, or None

    # -- radical ---------------------------------------------------------

    def _pin_indices(self):
        if self._pins is None:
            p = self.emb.domain.center()
            gp, _, _ = _induced_metric_jets(self.emb, self.s.g, p, 0)
            gv = values_of(gp)
            w, V = np.linalg.eigh(gv)
            xi0 = V[:, int(np.argmin(np.abs(w)))]
            k = int(np.argmax(np.abs(xi0)))
            pin_u = None  # chosen lazily for the transversal
            self._pins = (k, pin_u)
        return self._pins

    def radical(self, p, order):
        """Jets of the radical direction ``xi`` (domain components),
        normalized so that its pinned component is exactly one."""
        m = self.emb.domain.dim
        k, _ = self._pin_indices()
        gp, dF, Gc = _induced_metric_jets(self.emb, self.s.g, p, order)
        gv = values_of(gp)
        thr = degeneracy_threshold(gv)
        # the metric must be degenerate of corank exactly one
        w = np.linalg.eigvalsh(gv)
        if np.sum(np.abs(w) <= max(thr, 1e-7 * (1 + np.max(np.abs(gv))))) != 1:
            raise DegeneratePointError("induced metric does not have corank one")
        A = np.empty((m, m), dtype=object)
        probe = gp[0, 0]
        for i in range(m):
            for j in range(m):
                if i == k:
                    A[i, j] = Jet.constant(1.0 if j == k else 0.0, probe.n, probe.order)
                else:
                    A[i, j] = gp[i, j]
        b = constant_jets(np.eye(m)[k], probe.n, probe.order)
        xi = jet_solve(A, b)
        return xi, gp, dF, Gc

    # -- screen ----------------------------------------------------------

    def screen_fields(self):
        if self._screen is None:
            k, _ = self._pin_indices()
            self._screen = _coordinate_screen(self.emb.domain, k)
        return self._screen

    def _screen_jets(self, p, order):
        W = self.screen_fields()
        m = self.emb.domain.dim
        out = np.empty((len(W), m), dtype=object)
        for i, field in enumerate(W):
            out[i] = field.jet(p, order)
        return out  # [screen index, domain component]

    # -- transversal -------------------------------------------------------

    def transversal(self, p, order):
        """Jets of the transversal ``N`` (ambient components), together
        with the pushed-forward radical and screen vectors."""
        n = self.emb.ambient.dim
        m = self.emb.domain.dim
        xi, gp, dF, Gc = self.radical(p, order)
        Wdom = self._screen_jets(p, order)
        # ambient pushforwards
        def push(vec):
            out = np.empty(n, dtype=object)
            for i in range(n):
                acc = None
                for a in range(m):
                    term = dF[i, a] * vec[a]
                    acc = term if acc is None else acc + term
                out[i] = acc
            return out

        xi_amb = push(xi)
        W_amb = [push(Wdom[i]) for i in range(len(Wdom))]
        probe = xi_amb[0]
        # rows: g(., W_i) = 0, g(., xi) = 1, pinned component = 0
        A = np.empty((n, n), dtype=object)
        b = np.empty(n, dtype=object)
        for r, w in enumerate(W_amb):
            for j in range(n):
                acc = None
                for i in range(n):
                    term = Gc[i, j] * w[i]
                    acc = term if acc is None else acc + term
                A[r, j] = acc
            b[r] = Jet.constant(0.0, probe.n, probe.order)
        r = len(W_amb)
        for j in range(n):
            acc = None
            for i in range(n):
                term = Gc[i, j] * xi_amb[i]
                acc = term if acc is None else acc + term
            A[r, j] = acc
        b[r] = Jet.constant(1.0, probe.n, probe.order)
        k_u = self._transversal_pin(p)
        for j in range(n):
            A[r + 1, j] = Jet.constant(1.0 if j == k_u else 0.0, probe.n, probe.order)
        b[r + 1] = Jet.constant(0.0, probe.n, probe.order)
        U = jet_solve(A, b)
        # shift along the radical to make N null
        gUU = None
        for i in range(n):
            for j in range(n):
                term = Gc[i, j] * U[i] * U[j]
                gUU = term if gUU is None else gUU + term
        N = np.empty(n, dtype=object)
        half = gUU * 0.5
        for i in range(n):
            N[i] = U[i] - half * xi_amb[i]
        return N, xi, xi_amb, W_amb, Wdom, gp, dF, Gc

    def _transversal_pin(self, p0):
        k, pin_u = self._pin_indices()
        if pin_u is None:
            p = self.emb.domain.center()
            xi, _, dF, _ = self.radical(p, 0)
            xi_amb = values_of(dF) @ values_of(xi)
            pin_u = int(np.argmax(np.abs(xi_amb)))
            self._pins = (k, pin_u)
        return self._pins[1]

    # -- screen connection -------------------------------------------------

    def _ambient_derivative(self, p, order, vec_dom, target_amb_jets, conn=None):
        """Ambient components of the ambient covariant derivative of an
        ambient-vector jet field along the pushforward of a domain vector:
        ``sum_a v^a (d_a t^i) + Gamma^i_{jk} (dF v)^j t^k``."""
        conn = self.s.conn if conn is None else conn
        n = self.emb.ambient.dim
        m = self.emb.domain.dim
        F = self.emb.jet(p, order + 1)
        dF = _differential(F, m)
        Gamc = self.emb.compose(conn)(p, order)
        out = np.empty(n, dtype=object)
        vtr = [vec_dom[a].truncate(order) for a in range(m)]
        push = np.empty(n, dtype=object)
        for j in range(n):
            acc = None
            for a in range(m):
                term = dF[j, a] * vtr[a]
                acc = term if acc is None else acc + term
            push[j] = acc
        for i in range(n):
            acc = None
            for a in range(m):
                term = target_amb_jets[i].partial(a) * vtr[a]
                acc = term if acc is None else acc + term
            for j in range(n):
                for k in range(n):
                    acc = acc + Gamc[i, j, k] * push[j] * target_amb_jets[k].truncate(order)
            out[i] = acc
        return out

    def decompose(self, p, order, amb_jets, basis):
        """Coefficients of an ambient-vector jet in the frame given by the
        columns of ``basis`` (a list of ambient-vector jets)."""
        n = self.emb.ambient.dim
        A = np.empty((n, n), dtype=object)
        for j, col in enumerate(basis):
            for i in range(n):
                A[i, j] = col[i].truncate(order)
        b = np.array([amb_jets[i].truncate(order) for i in range(n)], dtype=object)
        return jet_solve(A, b)

    def screen_data(self, p, order=0, conn=None):
        """Returns a dict with the pointwise screen geometry: the Gram
        matrix of the screen fields, the screen connection coefficients,
        the xi/transversal components of frame derivatives, the forms
        ``alpha``, ``beta``, ``tau`` and the screen brackets."""
        conn = self.s.conn if conn is None else conn
        N, xi, xi_amb, W_amb, Wdom, gp, dF, Gc = self.transversal(p, order + 1)
        n = self.emb.ambient.dim
        m = self.emb.domain.dim
        r = len(W_amb)
        basis = list(W_amb) + [xi_amb, N]

        gram = np.empty((r, r), dtype=object)
        for a in range(r):
            for b in range(r):
                acc = None
                for i in range(m):
                    for j in range(m):
                        term = gp[i, j] * Wdom[a][i] * Wdom[b][j]
                        acc = term if acc is None else acc + term
                gram[a, b] = acc

        # derivatives of screen fields along screen fields
        nabla_bar = np.empty((r, r, r), dtype=object)  # [c, a, b]
        xi_comp = np.empty((r, r), dtype=object)
        alpha = np.empty((r, r), dtype=object)  # the pairing g(nabla_a W_b, N)
        for a in range(r):
            for b in range(r):
                # ambient jets of the pushforward of W_b as a field: dF W_b
                target = np.empty(n, dtype=object)
                for i in range(n):
                    acc = None
                    for d in range(m):
                        term = dF[i, d] * Wdom[b][d].truncate(order + 1)
                        acc = term if acc is None else acc + term
                    target[i] = acc
                D = self._ambient_derivative(p, order, Wdom[a], target, conn=conn)
                coeff = self.decompose(p, order, D, basis)
                for c in range(r):
                    nabla_bar[c, a, b] = coeff[c]
                xi_comp[a, b] = coeff[r]
                acc = None
                for i in range(n):
                    for j in range(n):
                        term = Gc[i, j].truncate(order) * D[i] * N[j].truncate(order)
                        acc = term if acc is None else acc + term
                alpha[a, b] = acc

        # brackets of the screen fields (domain components)
        bracket = np.empty((r, r, m), dtype=object)
        for a in range(r):
            for b in range(r):
                for k in range(m):
                    acc = None
                    for d in range(m):
                        term = Wdom[a][d].truncate(order) * Wdom[b][k].partial(d) - \
                            Wdom[b][d].truncate(order) * Wdom[a][k].partial(d)
                        acc = term if acc is None else acc + term
                    bracket[a, b, k] = acc

        # beta and tau from the derivative of N along screen fields
        DN = [self._ambient_derivative(p, order, Wdom[a], N, conn=conn) for a in range(r)]
        beta = np.empty((r, r), dtype=object)
        tau_xi = np.empty(r, dtype=object)
        tau_null = np.empty(r, dtype=object)
        for a in range(r):
            acc_xi = None
            acc_nn = None
            for i in range(n):
                for j in range(n):
                    Gij = Gc[i, j].truncate(order)
                    t1 = Gij * DN[a][i] * xi_amb[j].truncate(order)
                    t2 = Gij * DN[a][i] * N[j].truncate(order)
                    acc_xi = t1 if acc_xi is None else acc_xi + t1
                    acc_nn = t2 if acc_nn is None else acc_nn + t2
            tau_xi[a] = acc_xi
            tau_null[a] = acc_nn
            for b in range(r):
                acc = None
                for i in range(n):
                    push_b = None
                    for d in range(m):
                        term = dF[i, d] * Wdom[b][d].truncate(order + 1)
                        push_b = term if push_b is None else push_b + term
                    for j in range(n):
                        term = Gc[j, i].truncate(order) * DN[a][j] * push_b.truncate(order)
                        acc = term if acc is None else acc + term
                beta[a, b] = -acc

        return {
            "gram": gram,
            "nabla_bar": nabla_bar,
            "xi_comp": xi_comp,
            "alpha": alpha,
            "beta": beta,
            "tau_xi": tau_xi,
            "tau_null": tau_null,
            "bracket": bracket,
            "basis": basis,
            "gp": gp,
            "dF": dF,
            "Gc": Gc,
            "N": N,
            "xi": xi,
            "xi_amb": xi_amb,
            "Wdom": Wdom,
        }


# -- checks -------------------------------------------------------------------


def check_radical_quality(frame: LightlikeFrame, config: RunConfig):
    """The pinned kernel direction really annihilates the induced metric
    and the metric has corank exactly one."""

    def fn(p):
        xi, gp, _, _ = frame.radical(p, 0)
        gv = values_of(gp)
        res = np.max(np.abs(gv @ values_of(xi)))
        return float(res), 1.0 + np.max(np.abs(gv))

    return [run_pointwise_check("radical_quality", frame.emb.domain, fn, config,
                                detail="radical direction annihilates the degenerate induced metric")]


def check_transversal_conditions(frame: LightlikeFrame, config: RunConfig):
    """``g(N, xi) = 1``, ``g(N, N) = 0``, ``g(N, W) = 0`` for the screen."""

    def fn(p):
        N, xi, xi_amb, W_amb, _, _, _, Gc = frame.transversal(p, 0)
        gv = values_of(Gc)
        Nv = values_of(N)
        res = abs(float(Nv @ gv @ values_of(xi_amb)) - 1.0)
        res = max(res, abs(float(Nv @ gv @ Nv)))
        for w in W_amb:
            res = max(res, abs(float(Nv @ gv @ values_of(w))))
        return float(res), 1.0 + np.max(np.abs(Nv)) * (1.0 + np.max(np.abs(gv)))

    return [run_pointwise_check("transversal_conditions", frame.emb.domain, fn, config,
                                detail="transversal field satisfies its defining pairings")]


def check_screen_integrability(frame: LightlikeFrame, config: RunConfig):
    """Brackets of screen fields stay in the screen: their radical
    components vanish (the transversal component vanishes automatically
    for fields tangent to the hypersurface)."""

    def fn(p):
        data = frame.screen_data(p, 0)
        xi = data["xi"]
        Wdom = data["Wdom"]
        m = frame.emb.domain.dim
        r = len(Wdom)
        # decompose each bracket (domain vector) in {W_a, xi}
        A = np.zeros((m, r + 1))
        for a in range(r):
            A[:, a] = values_of(Wdom[a])
        A[:, r] = values_of(xi)
        res = 0.0
        for a in range(r):
            for b in range(r):
                v = values_of(data["bracket"][a, b])
                coeff, *_ = np.linalg.lstsq(A, v, rcond=None)
                rec = A @ coeff
                res = max(res, float(np.max(np.abs(v - rec))), abs(float(coeff[r])))
        return res, 1.0

    return [run_pointwise_check("screen_integrability", frame.emb.domain, fn, config,
                                detail="screen brackets have no radical component")]


def check_screen_structure(frame: LightlikeFrame, config: RunConfig):
    """The screen-projected connection, restricted metric and restricted
    one-form satisfy the same eta-weighted torsion-Codazzi condition as the
    ambient structure (screen assumed integrable)."""
    gate = is_swmt(frame.s, config, name="screen/ambient_hypothesis")
    if not gate.passed:
        return [gated("screen_structure_swmt", "ambient structure condition fails", config.tol)]
    gate2 = check_screen_integrability(frame, config)[0]
    if not gate2.passed:
        return [gated("screen_structure_swmt", "screen distribution not integrable", config.tol)]

    emb = frame.emb

    def fn(p):
        data = frame.screen_data(p, 1)
        gram = data["gram"]
        nb = data["nabla_bar"]
        Wdom = data["Wdom"]
        xi = data["xi"]
        r = gram.shape[0]
        m = emb.domain.dim
        gram_v = values_of(gram)
        eta_dom = _pullback_eta_values(frame, p)
        eta_W = np.array([float(eta_dom @ values_of(Wdom[a])[: len(eta_dom)]) for a in range(r)])
        # directional derivatives of the Gram matrix along screen fields
        dgram = np.empty((r, r, r))
        for a in range(r):
            wa = values_of(Wdom[a])
            for b in range(r):
                for c in range(r):
                    dgram[a, b, c] = float(gram[b, c].grad @ wa)
        nbv = values_of(nb)
        # screen components of the brackets
        A = np.zeros((m, r + 1))
        for a in range(r):
            A[:, a] = values_of(Wdom[a])
        A[:, r] = values_of(xi)
        brk = np.zeros((r, r, r))
        for a in range(r):
            for b in range(r):
                coeff, *_ = np.linalg.lstsq(A, values_of(data["bracket"][a, b]), rcond=None)
                brk[a, b] = coeff[:r]
        res = 0.0
        for a in range(r):
            for b in range(r):
                for c in range(r):
                    nabla_g_ab = dgram[a, b, c] - float(nbv[:, a, b] @ gram_v[:, c]) - float(nbv[:, a, c] @ gram_v[b, :])
                    nabla_g_ba = dgram[b, a, c] - float(nbv[:, b, a] @ gram_v[:, c]) - float(nbv[:, b, c] @ gram_v[a, :])
                    tors = nbv[:, a, b] - nbv[:, b, a] - brk[a, b]
                    val = (
                        nabla_g_ab + eta_W[a] * gram_v[b, c]
                        - nabla_g_ba - eta_W[b] * gram_v[a, c]
                        + float(tors @ gram_v[:, c])
                    )
                    res = max(res, abs(val))
        scale = 1.0 + np.max(np.abs(gram_v)) * (1.0 + np.max(np.abs(nbv)) + np.max(np.abs(eta_W))) + np.max(np.abs(dgram))
        return res, scale

    v = run_pointwise_check("screen_structure_swmt", emb.domain, fn, config,
                            detail="induced screen structure satisfies the eta-weighted torsion-Codazzi condition")
    return [v]


def _pullback_eta_values(frame, p):
    emb = frame.emb
    m = emb.domain.dim
    F = emb.jet(p, 1)
    dF = values_of(_differential(F, m))
    eta_amb = frame.s.eta.value(values_of(F))
    return eta_amb @ dF


def check_screen_cp_equivalence(frame: LightlikeFrame, t, config: RunConfig):
    """Transforming the ambient structure changes the screen connection by
    the transformation built from the restricted functions (with the screen
    gradient of the second function)."""
    from .conformal import transform

    st = transform(frame.s, t)
    frame_t = LightlikeFrame(frame.emb, st, screen=frame.screen_fields())
    emb = frame.emb

    def fn(p):
        data = frame.screen_data(p, 0)
        data_t = frame_t.screen_data(p, 0)
        gram = values_of(data["gram"])
        r = gram.shape[0]
        q = emb.value(p)
        phi_j = t.phi.jet(q, 1)
        psi_j = t.psi.jet(q, 1)
        m = emb.domain.dim
        F = emb.jet(p, 1)
        dF = values_of(_differential(F, m))
        Wdom = data["Wdom"]
        dphi_W = np.empty(r)
        dpsi_W = np.empty(r)
        for a in range(r):
            push = dF @ values_of(Wdom[a])
            dphi_W[a] = float(phi_j.grad @ push)
            dpsi_W[a] = float(psi_j.grad @ push)
        # screen gradient of the restricted psi: gram s = dpsi_W
        sgrad = np.linalg.solve(gram, dpsi_W)
        lhs = values_of(data_t["nabla_bar"])
        rhs = values_of(data["nabla_bar"]).copy()
        for c in range(r):
            for a in range(r):
                for b in range(r):
                    rhs[c, a, b] += (dphi_W[a] if c == b else 0.0) + (dphi_W[b] if c == a else 0.0) \
                        - gram[a, b] * sgrad[c]
        return float(np.max(np.abs(lhs - rhs))), 1.0 + np.max(np.abs(lhs)) + np.max(np.abs(rhs))

    return [run_pointwise_check("screen_cp_equivalence", emb.domain, fn, config,
                                detail="screen connections of transformed and original structures differ by the restricted transformation")]


def check_lightlike_beta_symmetry(frame: LightlikeFrame, config: RunConfig):
    gate = is_swmt(frame.s, config, name="lightlike_beta/ambient_hypothesis")
    if not gate.passed:
        return [gated("lightlike_beta_symmetry", "ambient structure condition fails", config.tol)]

    def fn(p):
        data = frame.screen_data(p, 0)
        b = values_of(data["beta"])
        return float(np.max(np.abs(b - b.T))), 1.0 + np.max(np.abs(b))

    return [run_pointwise_check("lightlike_beta_symmetry", frame.emb.domain, fn, config,
                                detail="screen form g(nabla N, .) is symmetric")]


def check_lightlike_duality_pairing(frame: LightlikeFrame, config: RunConfig):
    """``beta = alpha-star`` and ``beta-star = alpha`` on the screen."""
    dual = semi_dual_connection(frame.s.g, frame.s.eta, frame.s.conn)

    def fn(p):
        data = frame.screen_data(p, 0)
        data_star = frame.screen_data(p, 0, conn=dual)
        r1 = np.max(np.abs(values_of(data["beta"]) - values_of(data_star["alpha"])))
        r2 = np.max(np.abs(values_of(data_star["beta"]) - values_of(data["alpha"])))
        scale = 1.0 + np.max(np.abs(values_of(data["beta"]))) + np.max(np.abs(values_of(data["alpha"])))
        return float(max(r1, r2)), scale

    return [run_pointwise_check("lightlike_duality_pairing", frame.emb.domain, fn, config,
                                detail="screen fundamental forms of a connection and its semi-dual pair up")]


def check_lightlike_umbilic_preservation(frame: LightlikeFrame, t, config: RunConfig):
    """``beta~ = beta - dphi(N) gram`` on the screen (with the radical
    pinned to the same normalization before and after, the transversal
    rescales by the full inverse conformal factor, which absorbs the
    usual square-root prefactor), and pointwise proportionality
    ``beta ~ f gram`` is preserved."""
    from .conformal import transform

    st = transform(frame.s, t)
    frame_t = LightlikeFrame(frame.emb, st, screen=frame.screen_fields())
    emb = frame.emb

    def law_fn(p):
        data = frame.screen_data(p, 0)
        data_t = frame_t.screen_data(p, 0)
        q = emb.value(p)
        phi_j = t.phi.jet(q, 1)
        Nv = values_of(data["N"])
        dphi_N = float(phi_j.grad @ Nv)
        rhs = values_of(data["beta"]) - dphi_N * values_of(data["gram"])
        lhs = values_of(data_t["beta"])
        return float(np.max(np.abs(lhs - rhs))), 1.0 + np.max(np.abs(lhs)) + np.max(np.abs(rhs))

    out = [run_pointwise_check("lightlike_beta_law", emb.domain, law_fn, config,
                               detail="screen normal-derivative form transforms by the closed formula")]

    def umbilic_fn(p):
        data = frame.screen_data(p, 0)
        b = values_of(data["beta"])
        gr = values_of(data["gram"])
        f = float(np.sum(b * gr) / np.sum(gr * gr))
        if np.max(np.abs(b - f * gr)) > config.tol * (1.0 + np.max(np.abs(gr))):
            raise SkipPoint("point is not umbilic before the transformation")
        data_t = frame_t.screen_data(p, 0)
        bt = values_of(data_t["beta"])
        gt = values_of(data_t["gram"])
        ft = float(np.sum(bt * gt) / np.sum(gt * gt))
        return float(np.max(np.abs(bt - ft * gt))), 1.0 + np.max(np.abs(gt))

    out.append(run_pointwise_check("lightlike_umbilic_preservation", emb.domain, umbilic_fn, config,
                                   detail="screen umbilic points stay umbilic under the transformation"))
    return out
