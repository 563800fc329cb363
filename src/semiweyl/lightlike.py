"""Degenerate (null) hypersurfaces: radical direction, unique transversal
field, screen decomposition, the induced screen structure, and its behaviour
under the conformal-projective transformation.

A :class:`LightlikeFrame` gives the fundamental-form data that beta
symmetry, the duality pairing and the umbilic laws of
:mod:`~semiweyl.hypersurfaces` read: the screen forms ``alpha`` and
``beta``, the screen Gram matrix in place of the induced metric, the null
transversal ``N`` in place of the unit normal, and ``eps = g(N, xi) = 1``,
all of its own structure."""

from __future__ import annotations

import numpy as np

from .fields import DegeneratePointError, VectorField, _Field, kept
from .hypersurfaces import AMBIENT_FAILS, EmbeddingMap, _swmt_along
from .jets import EvaluationDomainError, Jet, at_points, innermost, jet_einsum, jet_solve, jet_stack, partials, singular
from .structures import Structure
from .tensor import codazzi_defect, covariant_derivative_of_form, degeneracy_threshold
from .verdicts import RunConfig, gated, row_max, run_pointwise_check

__all__ = [
    "LightlikeFrame",
    "check_radical_quality",
    "check_transversal_conditions",
    "check_screen_integrability",
    "check_screen_structure",
    "check_screen_cp_equivalence",
]


@kept
def _radical_index(emb: EmbeddingMap, g):
    """The component pinned to one in the radical of the metric induced by
    ``g``: the largest of the kernel direction at the centre of the domain."""
    w, V = np.linalg.eigh(emb.induced_metric(g).value(emb.domain.center()))
    return int(np.argmax(np.abs(V[:, int(np.argmin(np.abs(w)))])))


def _radical(emb: EmbeddingMap, g, p, order):
    """:meth:`LightlikeFrame.radical` of the metric ``g``."""
    k = _radical_index(emb, g)
    gp = emb.induced_metric(g).jet(p, order)
    dF = partials(emb.coords.jet(p, order + 1))
    Gc = emb.compose(g).jet(p, order)
    gv = gp.value
    thr = degeneracy_threshold(gv)
    # the metric must be degenerate of corank exactly one (at each point)
    w = np.linalg.eigvalsh(gv)
    small = np.abs(w) <= np.maximum(thr, 1e-7 * (1 + np.max(np.abs(gv), axis=(-2, -1))))[..., None]
    if np.any(bad := np.sum(small, axis=-1) != 1):
        raise DegeneratePointError.where(bad, "induced metric does not have corank one")
    # rows of g' except row k, which pins the k-th component to one
    d = gv.shape[-1]
    e_k = np.eye(d)[k]
    A = jet_stack([e_k if i == k else gp[..., i, :] for i in range(d)], axis=-2)
    return jet_solve(A, e_k), gp, dF, Gc


@kept
def _coordinate_screen(emb: EmbeddingMap, g):
    """The coordinate vector fields but the one of the radical's pin."""
    n, drop = emb.domain.dim, _radical_index(emb, g)

    def unit(e):
        return VectorField(emb.domain, lambda p, order: at_points(Jet.constant(e, n, order), p))

    return tuple(unit(e) for a, e in enumerate(np.eye(n)) if a != drop)


@kept
def _null_frame(emb: EmbeddingMap, g, screen) -> _Field:
    """:meth:`LightlikeFrame.transversal` of the metric ``g`` and the
    ``screen``, a field; ``N`` has a zero component at the largest of
    ``xi``'s pushforward at the centre of the domain."""
    n = emb.ambient.dim
    xi, _, dF, _ = _radical(emb, g, emb.domain.center(), 0)
    pin = np.eye(n)[int(np.argmax(np.abs(dF.value @ xi.value)))]

    def fn(p, order):
        xi, gp, dF, Gc = _radical(emb, g, p, order)
        Wdom = jet_stack([field.jet(p, order) for field in screen], axis=-2)
        # ambient pushforwards
        xi_amb = jet_einsum("...ia,...a->...i", dF, xi)
        W_amb = jet_einsum("...ia,...ra->...ri", dF, Wdom)
        r = W_amb.shape[-2]
        # rows: g(., W_i) = 0, g(., xi) = 1, pinned component = 0
        GW = jet_einsum("...ij,...ri->...rj", Gc, W_amb)
        A = jet_stack([*(GW[..., a, :] for a in range(r)), jet_einsum("...ij,...i->...j", Gc, xi_amb), pin], axis=-2)
        U = jet_solve(A, np.eye(n)[r])
        # shift along the radical to make N null
        N = U - xi_amb * (jet_einsum("...ij,...i,...j->...", Gc, U, U) * 0.5)[..., None]
        return N, xi, xi_amb, W_amb, Wdom, gp, dF, Gc

    return _Field(emb.domain, fn)


@kept
def _screen_data(emb: EmbeddingMap, s: Structure, screen) -> _Field:
    """:meth:`LightlikeFrame.screen_data` of ``s`` and the ``screen``, a
    field."""

    def fn(p, order):
        N, xi, xi_amb, W_amb, Wdom, gp, dF, Gc = _null_frame(emb, s.g, screen).jet(p, order + 1)
        r = W_amb.shape[-2]
        Gamc = emb.compose(s.conn).jet(p, order)

        def along_screen(t, b):
            """``[a, b, i]``: ambient covariant derivative of the ambient
            vectors ``t[b, i]`` (``t[i]`` when ``b`` is empty) along the
            screen field ``W_a``."""
            return (
                jet_einsum(f"...ad,...{b}id->...a{b}i", Wdom, partials(t))
                + jet_einsum(f"...ijk,...aj,...{b}k->...a{b}i", Gamc, W_amb, t)
            )

        gram = jet_einsum("...ij,...ai,...bj->...ab", gp, Wdom, Wdom)

        # derivatives of screen fields along screen fields, D[a, b] = nabla_{W_a} W_b,
        # in the frame W_1 .. W_r, xi, N
        D = along_screen(W_amb, "b")
        frame = jet_stack([*(W_amb[..., a, :] for a in range(r)), xi_amb, N], axis=-1)
        coeff = jet_solve(frame, D.transpose(2, 0, 1))  # [c, a, b]
        alpha = jet_einsum("...ij,...abi,...j->...ab", Gc, D, N)  # the pairing g(nabla_a W_b, N)

        # brackets of the screen fields (domain components)
        W_dW = jet_einsum("...ad,...bkd->...abk", Wdom, partials(Wdom))
        bracket = W_dW - W_dW.transpose(1, 0, 2)

        # beta from the derivative of N along screen fields
        beta = -jet_einsum("...ij,...ai,...bj->...ab", Gc, along_screen(N, ""), W_amb)

        return {
            "gram": gram,
            "nabla_bar": coeff[..., :r, :, :],
            "alpha": alpha,
            "beta": beta,
            "bracket": bracket,
            "N": N,
            "xi": xi,
            "Wdom": Wdom,
            "gp": gp,
            "Gc": Gc,
            "xi_amb": xi_amb,
            "W_amb": W_amb,
        }

    return _Field(emb.domain, fn)


class LightlikeFrame:
    """Pointwise frame data for a hypersurface whose induced metric is
    degenerate of rank ``dim - 1``: the radical direction ``xi`` (pinned to
    have unit component at a fixed index), the unique transversal ``N``
    with ``g(N, xi) = 1``, ``g(N, N) = 0``, ``g(N, W) = 0`` for screen
    fields ``W``, and the screen-projected connection.  A run keeps the
    radical, the transversal and the coordinate screen per (map, metric,
    screen), so the frame of the semi-dual structure shares them."""

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
        if screen is not None and len(screen) != emb.domain.dim - 1:
            raise ValueError(f"a screen has {emb.domain.dim - 1} fields, got {len(screen)}")
        self.emb = emb
        self.s = s
        self._screen = screen  # tuple of VectorFields on the domain chart, or None

    def with_structure(self, s: Structure):
        """The frame of the same hypersurface and screen in another ambient
        structure."""
        return LightlikeFrame(self.emb, s, self.screen_fields())

    def radical(self, p, order):
        """Jets of the radical direction ``xi`` (domain components),
        normalized so that its pinned component is exactly one, with the
        induced metric, the differential and the pulled back metric."""
        return _radical(self.emb, self.s.g, p, order)

    def screen_fields(self):
        """The screen fields: those given, or the coordinate screen."""
        return self._screen or _coordinate_screen(self.emb, self.s.g)

    def transversal(self, p, order):
        """Jets of the transversal ``N`` (ambient components), the radical,
        the screen fields ``Wdom[screen index, domain component]``, their
        ambient pushforwards, and the rest of :meth:`radical`'s result."""
        return _null_frame(self.emb, self.s.g, self.screen_fields()).jet(p, order)

    # -- screen connection -------------------------------------------------

    def screen_data(self, p, order):
        """Returns a dict with the pointwise screen geometry: the Gram
        matrix of the screen fields, the screen connection coefficients,
        the forms ``alpha`` and ``beta``, the screen brackets, and what
        they came from: the transversal, the radical and screen fields and
        their ambient pushforwards, and the induced and ambient metrics.
        The result is kept like any field's; its jets are read-only.

        At order ``k``, ``gram``, ``N``, ``xi``, ``Wdom``, ``gp``, ``Gc``,
        ``xi_amb`` and ``W_amb`` are jets of order ``k + 1``, and
        ``nabla_bar``, ``alpha``, ``beta`` and ``bracket`` of order ``k``;
        so order 0 holds the first derivatives of the Gram matrix that
        :func:`check_screen_structure` reads."""
        return _screen_data(self.emb, self.s, self.screen_fields()).jet(p, order)

    # -- the values the shared fundamental-form checks read ----------------

    def alpha(self, p):
        return self.screen_data(p, 0)["alpha"].value

    def beta(self, p):
        return self.screen_data(p, 0)["beta"].value

    def eps(self, p):
        return np.ones(np.shape(p)[:-1])

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
        data = frame.screen_data(p, 0)
        gv = data["gp"].value
        return row_max(np.matvec(gv, data["xi"].value), p), 1.0 + row_max(gv, p)

    return [run_pointwise_check("radical_quality", frame.emb.domain, fn, config,
                                detail="radical direction annihilates the degenerate induced metric")]


def check_transversal_conditions(frame: LightlikeFrame, config: RunConfig):
    """``g(N, xi) = 1``, ``g(N, N) = 0``, ``g(N, W) = 0`` for the screen."""

    def fn(p):
        data = frame.screen_data(p, 0)
        gv = data["Gc"].value
        Nv = data["N"].value
        Ng = np.vecmat(Nv, gv)
        res = np.maximum(abs(np.vecdot(Ng, data["xi_amb"].value) - 1.0), abs(np.vecdot(Ng, Nv)))
        res = np.maximum(res, row_max(np.vecdot(Ng[..., None, :], data["W_amb"].value), p))
        return res, 1.0 + row_max(Nv, p) * (1.0 + row_max(gv, p))

    return [run_pointwise_check("transversal_conditions", frame.emb.domain, fn, config,
                                detail="transversal field satisfies its defining pairings")]


def check_screen_integrability(frame: LightlikeFrame, config: RunConfig):
    """Brackets of screen fields stay in the screen: their radical
    components vanish (the transversal component vanishes automatically
    for fields tangent to the hypersurface)."""

    def fn(p):
        coeff, err = _bracket_coefficients(frame.screen_data(p, 0))
        return np.maximum(err, row_max(coeff[..., -1, :, :], p)), 1.0

    return [run_pointwise_check("screen_integrability", frame.emb.domain, fn, config,
                                detail="screen brackets have no radical component")]


def check_screen_structure(frame: LightlikeFrame, config: RunConfig):
    """The screen-projected connection, restricted metric and restricted
    one-form satisfy the same eta-weighted torsion-Codazzi condition as the
    ambient structure along the hypersurface (screen assumed integrable)."""
    if not _swmt_along(frame.emb, frame.s, config).passed:
        return [gated("screen_structure_swmt", AMBIENT_FAILS, config.tol)]
    gate2 = check_screen_integrability(frame, config)[0]
    if not gate2.passed:
        return [gated("screen_structure_swmt", "screen distribution not integrable", config.tol)]

    emb = frame.emb

    def fn(p):
        data = frame.screen_data(p, 0)
        gram = data["gram"]
        Wdom = data["Wdom"].value
        gv, nbv = gram.value, data["nabla_bar"].value
        eta_W = np.einsum("...ad,...i,...id->...a", Wdom, frame.s.eta.value(emb.coords.value(p)), emb.coords.jet(p, 1).grad)
        # directional derivatives of the Gram matrix along screen fields
        dgram = np.einsum("...bcd,...ad->...abc", gram.grad, Wdom)
        # (nabla_a g)(W_b, W_c), and the screen torsion, whose bracket part
        # is the screen component of [W_a, W_b]
        ng = covariant_derivative_of_form(dgram, nbv, gv)
        tors = nbv - nbv.swapaxes(-1, -2) - _bracket_coefficients(data)[0][..., :-1, :, :]
        res = codazzi_defect(ng, gv, tors, eta_W)
        scale = 1.0 + row_max(gv, p) * (1.0 + row_max(nbv, p) + row_max(eta_W, p)) + row_max(dgram, p)
        return row_max(res, p), scale

    v = run_pointwise_check("screen_structure_swmt", emb.domain, fn, config,
                            detail="induced screen structure satisfies the eta-weighted torsion-Codazzi condition")
    return [v]


def _bracket_coefficients(data):
    """Coefficients ``[c, a, b]`` of the screen brackets ``[W_a, W_b]``
    (domain vectors) in the frame ``W_1 .. W_r, xi``, which is square, and
    the largest reconstruction error, at a point or at each point of a set.
    Raises :class:`EvaluationDomainError` where the frame is singular."""
    Wdom, xi, brackets = (data[key].value for key in ("Wdom", "xi", "bracket"))
    A = np.concatenate([Wdom, xi[..., None, :]], axis=-2).swapaxes(-1, -2)
    r = Wdom.shape[-2]  # brackets[..., a, b, domain component]
    V = brackets.reshape(brackets.shape[:-3] + (r * r, -1)).swapaxes(-1, -2)
    try:
        coeff = np.linalg.solve(A, V)
    except np.linalg.LinAlgError as exc:
        raise EvaluationDomainError.where(singular(A), "singular screen frame") from exc
    coeff = innermost(coeff, 2)
    return coeff.reshape(coeff.shape[:-1] + (r, r)), np.abs(V - np.einsum("...ij,...jk->...ik", A, coeff)).max(axis=(-2, -1))


def check_screen_cp_equivalence(frame: LightlikeFrame, t, config: RunConfig):
    """Transforming the ambient structure changes the screen connection by
    the transformation built from the restricted functions (with the screen
    gradient of the second function)."""
    from .conformal import transform

    frame_t = frame.with_structure(transform(frame.s, t))
    emb = frame.emb

    def fn(p):
        data = frame.screen_data(p, 0)
        data_t = frame_t.screen_data(p, 0)
        gram = data["gram"].value
        q = emb.coords.value(p)
        # ambient images of the screen fields, and phi, psi derived along them
        push = np.einsum("...ad,...id->...ai", data["Wdom"].value, emb.coords.jet(p, 1).grad)
        dphi_W = np.einsum("...ai,...i->...a", push, t.phi.jet(q, 1).grad)
        dpsi_W = np.einsum("...ai,...i->...a", push, t.psi.jet(q, 1).grad)
        # screen gradient of the restricted psi: gram s = dpsi_W
        sgrad = np.linalg.solve(gram, dpsi_W[..., None])[..., 0]
        eye = at_points(np.eye(gram.shape[-1]), p)
        lhs = data_t["nabla_bar"].value
        rhs = (
            data["nabla_bar"].value
            + np.einsum("...a,...cb->...cab", dphi_W, eye)
            + np.einsum("...b,...ca->...cab", dphi_W, eye)
            - np.einsum("...ab,...c->...cab", gram, sgrad)
        )
        return row_max(lhs - rhs, p), 1.0 + row_max(lhs, p) + row_max(rhs, p)

    return [run_pointwise_check("screen_cp_equivalence", emb.domain, fn, config,
                                detail="screen connections of transformed and original structures differ by the restricted transformation")]
