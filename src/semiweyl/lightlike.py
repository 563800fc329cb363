"""Degenerate (null) hypersurfaces: radical direction, unique transversal
field, screen decomposition, the induced screen structure, and its behaviour
under the conformal-projective transformation.

A :class:`LightlikeFrame` gives the fundamental-form data that beta
symmetry, the duality pairing and the umbilic laws of
:mod:`~semiweyl.hypersurfaces` read: the screen forms ``alpha`` and
``beta``, the screen Gram matrix in place of the induced metric, the null
transversal ``N`` in place of the unit normal, and ``eps = g(N, xi) = 1``."""

from __future__ import annotations

import numpy as np

from .fields import Chart, DegeneratePointError, LastPointCache, VectorField
from .hypersurfaces import EmbeddingMap
from .jets import jet_einsum, jet_solve, jet_stack, partials
from .structures import Structure, is_swmt
from .tensor import degeneracy_threshold
from .verdicts import RunConfig, gated, run_pointwise_check

__all__ = [
    "LightlikeFrame",
    "check_radical_quality",
    "check_transversal_conditions",
    "check_screen_integrability",
    "check_screen_structure",
    "check_screen_cp_equivalence",
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

    # verdict names and details of the checks shared with hypersurface frames
    VERDICTS = {
        "beta_symmetry": ("lightlike_beta_symmetry", "screen form g(nabla N, .) is symmetric"),
        "duality_pairing": ("lightlike_duality_pairing", "screen fundamental forms of a connection and its semi-dual pair up"),
        "beta_law": ("lightlike_beta_law", "screen normal-derivative form transforms by the closed formula"),
        "umbilic": ("lightlike_umbilic_preservation", "screen umbilic points stay umbilic under the transformation"),
    }
    # with the radical pinned to the same normalization before and after,
    # the transversal rescales by the full inverse conformal factor, which
    # absorbs the square-root prefactor of the beta law
    BETA_LAW_WEIGHT = 0.0

    def __init__(self, emb: EmbeddingMap, s: Structure, screen=None):
        if emb.codim != 1:
            raise ValueError("a hypersurface has codimension one")
        self.emb = emb
        self.s = s
        self._radical_pin = None
        self._transversal_pin = None
        self._screen = screen  # tuple of VectorFields on the domain chart, or None
        self._screen_data = {}  # connection -> LastPointCache

    def with_structure(self, s: Structure):
        """The frame of the same hypersurface and screen in another ambient
        structure."""
        return LightlikeFrame(self.emb, s, screen=self.screen_fields())

    # -- radical ---------------------------------------------------------

    def _radical_index(self):
        if self._radical_pin is None:
            gp = self.emb.induced_metric(self.s.g).value(self.emb.domain.center())
            w, V = np.linalg.eigh(gp)
            xi0 = V[:, int(np.argmin(np.abs(w)))]
            self._radical_pin = int(np.argmax(np.abs(xi0)))
        return self._radical_pin

    def radical(self, p, order):
        """Jets of the radical direction ``xi`` (domain components),
        normalized so that its pinned component is exactly one."""
        k = self._radical_index()
        emb = self.emb
        gp = emb.induced_metric(self.s.g).jet(p, order)
        dF = partials(emb.jet(p, order + 1))
        Gc = emb.compose(self.s.g).jet(p, order)
        gv = gp.value
        thr = degeneracy_threshold(gv)
        # the metric must be degenerate of corank exactly one
        w = np.linalg.eigvalsh(gv)
        if np.sum(np.abs(w) <= max(thr, 1e-7 * (1 + np.max(np.abs(gv))))) != 1:
            raise DegeneratePointError("induced metric does not have corank one")
        # rows of g' except row k, which pins the k-th component to one
        e_k = np.eye(len(gp))[k]
        A = jet_stack([e_k if i == k else row for i, row in enumerate(gp)])
        xi = jet_solve(A, e_k)
        return xi, gp, dF, Gc

    # -- screen ----------------------------------------------------------

    def screen_fields(self):
        if self._screen is None:
            self._screen = _coordinate_screen(self.emb.domain, self._radical_index())
        return self._screen

    # -- transversal -------------------------------------------------------

    def transversal(self, p, order):
        """Jets of the transversal ``N`` (ambient components), together
        with the pushed-forward radical and screen vectors."""
        n = self.emb.ambient.dim
        pin = np.eye(n)[self._transversal_index()]  # before p's jets, which it would evict
        xi, gp, dF, Gc = self.radical(p, order)
        Wdom = jet_stack([field.jet(p, order) for field in self.screen_fields()])  # [screen index, domain component]
        # ambient pushforwards
        xi_amb = jet_einsum("ia,a->i", dF, xi)
        W_amb = jet_einsum("ia,ra->ri", dF, Wdom)
        r = len(W_amb)
        # rows: g(., W_i) = 0, g(., xi) = 1, pinned component = 0
        A = jet_stack([*jet_einsum("ij,ri->rj", Gc, W_amb), jet_einsum("ij,i->j", Gc, xi_amb), pin])
        U = jet_solve(A, np.eye(n)[r])
        # shift along the radical to make N null
        N = U - xi_amb * (jet_einsum("ij,i,j->", Gc, U, U) * 0.5)
        return N, xi, xi_amb, W_amb, Wdom, gp, dF, Gc

    def _transversal_index(self):
        if self._transversal_pin is None:
            xi, _, dF, _ = self.radical(self.emb.domain.center(), 0)
            xi_amb = dF.value @ xi.value
            self._transversal_pin = int(np.argmax(np.abs(xi_amb)))
        return self._transversal_pin

    # -- screen connection -------------------------------------------------

    def screen_data(self, p, order=0, conn=None):
        """Returns a dict with the pointwise screen geometry: the Gram
        matrix of the screen fields, the screen connection coefficients,
        the forms ``alpha``, ``beta`` and ``tau_null``, the screen brackets,
        and the transversal, radical and screen fields they came from.  The
        result at the most recent point is kept per connection and order."""
        conn = self.s.conn if conn is None else conn
        cache = self._screen_data.get(conn)
        if cache is None:
            cache = self._screen_data[conn] = LastPointCache()
        return cache(lambda p, order: self._build_screen_data(p, order, conn), p, order)

    def _build_screen_data(self, p, order, conn):
        N, xi, xi_amb, W_amb, Wdom, gp, dF, Gc = self.transversal(p, order + 1)
        r = len(W_amb)
        Gamc = self.emb.compose(conn).jet(p, order)

        def along_screen(t):
            """``[a, ..., i]``: ambient covariant derivative of the ambient
            vectors ``t[..., i]`` along the screen field ``W_a``."""
            return jet_einsum("ad,...id->a...i", Wdom, partials(t)) + jet_einsum("ijk,aj,...k->a...i", Gamc, W_amb, t)

        gram = jet_einsum("ij,ai,bj->ab", gp, Wdom, Wdom)

        # derivatives of screen fields along screen fields, D[a, b] = nabla_{W_a} W_b,
        # in the frame W_1 .. W_r, xi, N
        D = along_screen(W_amb)
        coeff = jet_solve(jet_stack([*W_amb, xi_amb, N], axis=1), D.transpose(2, 0, 1))  # [c, a, b]
        alpha = jet_einsum("ij,abi,j->ab", Gc, D, N)  # the pairing g(nabla_a W_b, N)

        # brackets of the screen fields (domain components)
        W_dW = jet_einsum("ad,bkd->abk", Wdom, partials(Wdom))
        bracket = W_dW - W_dW.transpose(1, 0, 2)

        # beta and tau from the derivative of N along screen fields
        DN = along_screen(N)
        tau_null = jet_einsum("ij,ai,j->a", Gc, DN, N)
        beta = -jet_einsum("ij,ai,bj->ab", Gc, DN, W_amb)

        return {
            "gram": gram,
            "nabla_bar": coeff[:r],
            "alpha": alpha,
            "beta": beta,
            "tau_null": tau_null,
            "bracket": bracket,
            "N": N,
            "xi": xi,
            "Wdom": Wdom,
        }

    # -- the values the shared fundamental-form checks read ----------------

    def alpha(self, p, conn=None):
        return self.screen_data(p, 0, conn)["alpha"].value

    def beta(self, p, conn=None):
        return self.screen_data(p, 0, conn)["beta"].value

    def eps(self, p):
        return 1.0

    def tangent_metric(self, p):
        """The Gram matrix of the screen fields."""
        return self.screen_data(p, 0)["gram"].value

    def transversal_value(self, p):
        return self.screen_data(p, 0)["N"].value


# -- checks -------------------------------------------------------------------


def check_radical_quality(frame: LightlikeFrame, config: RunConfig):
    """The pinned kernel direction really annihilates the induced metric
    and the metric has corank exactly one."""

    def fn(p):
        xi, gp, _, _ = frame.radical(p, 0)
        gv = gp.value
        res = np.max(np.abs(gv @ xi.value))
        return float(res), 1.0 + np.max(np.abs(gv))

    return [run_pointwise_check("radical_quality", frame.emb.domain, fn, config,
                                detail="radical direction annihilates the degenerate induced metric")]


def check_transversal_conditions(frame: LightlikeFrame, config: RunConfig):
    """``g(N, xi) = 1``, ``g(N, N) = 0``, ``g(N, W) = 0`` for the screen."""

    def fn(p):
        N, xi, xi_amb, W_amb, _, _, _, Gc = frame.transversal(p, 0)
        gv = Gc.value
        Nv = N.value
        res = abs(float(Nv @ gv @ xi_amb.value) - 1.0)
        res = max(res, abs(float(Nv @ gv @ Nv)))
        for w in W_amb.value:
            res = max(res, abs(float(Nv @ gv @ w)))
        return float(res), 1.0 + np.max(np.abs(Nv)) * (1.0 + np.max(np.abs(gv)))

    return [run_pointwise_check("transversal_conditions", frame.emb.domain, fn, config,
                                detail="transversal field satisfies its defining pairings")]


def check_screen_integrability(frame: LightlikeFrame, config: RunConfig):
    """Brackets of screen fields stay in the screen: their radical
    components vanish (the transversal component vanishes automatically
    for fields tangent to the hypersurface)."""

    def fn(p):
        coeff, err = _bracket_coefficients(frame.screen_data(p, 0))
        return max(err, float(np.max(np.abs(coeff[-1])))), 1.0

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
        Wdom = data["Wdom"].value
        gv, nbv = gram.value, data["nabla_bar"].value
        eta_W = Wdom @ (frame.s.eta.value(emb.value(p)) @ emb.jet(p, 1).grad)
        # directional derivatives of the Gram matrix along screen fields
        dgram = np.einsum("bcd,ad->abc", gram.grad, Wdom)
        # (nabla_a g)(W_b, W_c), and the screen torsion, whose bracket part
        # is the screen component of [W_a, W_b]
        ng = dgram - np.einsum("mab,mc->abc", nbv, gv) - np.einsum("mac,bm->abc", nbv, gv)
        tors = nbv - nbv.transpose(0, 2, 1) - _bracket_coefficients(data)[0][:-1]
        res = (
            ng - ng.transpose(1, 0, 2)
            + np.einsum("a,bc->abc", eta_W, gv) - np.einsum("b,ac->abc", eta_W, gv)
            + np.einsum("mab,mc->abc", tors, gv)
        )
        scale = 1.0 + np.max(np.abs(gv)) * (1.0 + np.max(np.abs(nbv)) + np.max(np.abs(eta_W))) + np.max(np.abs(dgram))
        return float(np.max(np.abs(res))), scale

    v = run_pointwise_check("screen_structure_swmt", emb.domain, fn, config,
                            detail="induced screen structure satisfies the eta-weighted torsion-Codazzi condition")
    return [v]


def _bracket_coefficients(data):
    """Least-squares coefficients ``[c, a, b]`` of the screen brackets
    ``[W_a, W_b]`` (domain vectors) in the frame ``W_1 .. W_r, xi``, and
    the largest reconstruction error."""
    A = np.column_stack([*data["Wdom"].value, data["xi"].value])
    brackets = data["bracket"].value  # [a, b, domain component]
    r = len(brackets)
    V = brackets.reshape(r * r, -1).T
    coeff = np.linalg.lstsq(A, V, rcond=None)[0]
    return coeff.reshape(-1, r, r), float(np.max(np.abs(V - A @ coeff)))


def check_screen_cp_equivalence(frame: LightlikeFrame, t, config: RunConfig):
    """Transforming the ambient structure changes the screen connection by
    the transformation built from the restricted functions (with the screen
    gradient of the second function)."""
    from .conformal import transform

    st = transform(frame.s, t)
    frame_t = frame.with_structure(st)
    emb = frame.emb

    def fn(p):
        data = frame.screen_data(p, 0)
        data_t = frame_t.screen_data(p, 0)
        gram = data["gram"].value
        q = emb.value(p)
        # ambient images of the screen fields, and phi, psi derived along them
        push = data["Wdom"].value @ emb.jet(p, 1).grad.T
        dphi_W = push @ t.phi.jet(q, 1).grad
        dpsi_W = push @ t.psi.jet(q, 1).grad
        # screen gradient of the restricted psi: gram s = dpsi_W
        sgrad = np.linalg.solve(gram, dpsi_W)
        eye = np.eye(len(gram))
        lhs = data_t["nabla_bar"].value
        rhs = (
            data["nabla_bar"].value
            + np.einsum("a,cb->cab", dphi_W, eye)
            + np.einsum("b,ca->cab", dphi_W, eye)
            - np.einsum("ab,c->cab", gram, sgrad)
        )
        return float(np.max(np.abs(lhs - rhs))), 1.0 + np.max(np.abs(lhs)) + np.max(np.abs(rhs))

    return [run_pointwise_check("screen_cp_equivalence", emb.domain, fn, config,
                                detail="screen connections of transformed and original structures differ by the restricted transformation")]
