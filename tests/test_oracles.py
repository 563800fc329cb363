"""Sympy as an independent oracle for the jet engine.

Christoffel symbols, curvature, Ricci, the semi-dual connection and an
induced metric are derived symbolically from their definitions and
compared, with first derivatives where the engine carries them, against
the jet values at fixed points.  Expressions and a composition are also
compared layer by layer up to order 4, where products and elementwise
functions take their layers from the first-order rule one order down, and a
composition from the chain rule one order down.  No code is shared with
``semiweyl.jets``.
"""

import numpy as np
import pytest

sp = pytest.importorskip("sympy")

from semiweyl.expressions import eval_jets, parse_expression  # noqa: E402
from semiweyl.fields import (  # noqa: E402
    Chart,
    ConnectionField,
    MetricField,
    OneFormField,
    eta_tensor_id,
    id_tensor_eta,
)
from semiweyl.hypersurfaces import EmbeddingMap, induced_structure  # noqa: E402
from semiweyl.jets import jet_compose  # noqa: E402
from semiweyl.structures import Structure, semi_dual_connection  # noqa: E402
from semiweyl.tensor import curvature_values, levi_civita, ricci_values  # noqa: E402

CASES = {
    "2d": {
        "coords": ("x", "y"),
        "metric": [["1 + 0.2*x*x", "0.1*x*y"], ["0.1*x*y", "exp(x*y)"]],
        "one_form": ["y", "sin(x)"],
        "point": (0.7, 0.9),
    },
    "3d": {
        "coords": ("x", "y", "z"),
        "metric": [
            ["1 + 0.2*x*x", "0.1*x*y", "0.05*z"],
            ["0.1*x*y", "1 + 0.2*y*y", "0.05*y*z"],
            ["0.05*z", "0.05*y*z", "exp(0.2*x*z)"],
        ],
        "one_form": ["0.2*y", "0.1*z", "0.15*x"],
        "point": (0.4, 0.8, 0.6),
    },
}

TOL = 1e-11


class Symbolic:
    """The case's metric and one-form as sympy expressions, with the
    Levi-Civita connection shifted by ``eta (x) I`` (so it has torsion)."""

    def __init__(self, case):
        self.x = sp.symbols(case["coords"])
        self.n = n = len(self.x)
        self.g = sp.Matrix(n, n, lambda i, j: sp.sympify(case["metric"][i][j]))
        self.eta = [sp.sympify(e) for e in case["one_form"]]
        self.point = case["point"]
        ginv = self.g.adjugate() / self.g.det()
        d = sp.diff
        x = self.x
        self.levi_civita = [
            [
                [
                    sum(ginv[k, l] * (d(self.g[j, l], x[i]) + d(self.g[i, l], x[j]) - d(self.g[i, j], x[l])) for l in range(n)) / 2
                    for j in range(n)
                ]
                for i in range(n)
            ]
            for k in range(n)
        ]
        # nabla_{d_i} d_j = gamma^k_ij d_k, shifted by eta_i delta^k_j
        self.gamma = [
            [[self.levi_civita[k][i][j] + (self.eta[i] if k == j else 0) for j in range(n)] for i in range(n)]
            for k in range(n)
        ]
        self.ginv = ginv

    def at(self, exprs):
        """Float array of a nested list of expressions at the case point."""
        return np.array(sp.lambdify(self.x, exprs, "math", cse=True)(*self.point), dtype=float)

    def with_gradient(self, exprs):
        """Values and first partials (on a new last axis) at the point."""
        grads = sp.derive_by_array(sp.Array(exprs), self.x).tolist()
        return self.at(exprs), np.moveaxis(self.at(grads), 0, -1)

    def curvature(self):
        """``R[l, k, i, j]``, the ``d_l`` part of
        ``nabla_i nabla_j d_k - nabla_j nabla_i d_k``."""
        n, x, G = self.n, self.x, self.gamma

        def nabla_nabla(i, j, k, l):
            # nabla_i (gamma^m_jk d_m) = d_i gamma^l_jk d_l + gamma^m_jk gamma^l_im d_l
            return sp.diff(G[l][j][k], x[i]) + sum(G[m][j][k] * G[l][i][m] for m in range(n))

        return [
            [[[nabla_nabla(i, j, k, l) - nabla_nabla(j, i, k, l) for j in range(n)] for i in range(n)] for k in range(n)]
            for l in range(n)
        ]

    def semi_dual(self, gamma):
        """``gamma*`` from ``d_i g_jk = g(gamma_ij, d_k) + g(d_j, gamma*_ik) - eta_i g_jk``."""
        n, x, g = self.n, self.x, self.g
        return [
            [
                [
                    sum(
                        self.ginv[l, j]
                        * (sp.diff(g[j, k], x[i]) + self.eta[i] * g[j, k] - sum(gamma[m][i][j] * g[m, k] for m in range(n)))
                        for j in range(n)
                    )
                    for k in range(n)
                ]
                for i in range(n)
            ]
            for l in range(n)
        ]


def engine(case):
    n = len(case["coords"])
    chart = Chart(case["coords"], (-2.0,) * n, (2.0,) * n)
    g = MetricField.from_expressions(chart, case["metric"])
    eta = OneFormField.from_expressions(chart, case["one_form"])
    return g, eta, levi_civita(g).add_tensor(eta_tensor_id(chart, eta))


def value_and_gradient(jet):
    return jet.value, jet.grad


def assert_close(got, want):
    assert np.max(np.abs(got - want)) <= TOL * (1.0 + np.max(np.abs(want)))


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    return CASES[request.param], Symbolic(CASES[request.param])


def test_christoffel_symbols_and_their_derivatives(case):
    spec, sym = case
    g, _, _ = engine(spec)
    got = value_and_gradient(levi_civita(g).jet(spec["point"], 1))
    want = sym.with_gradient(sym.levi_civita)
    assert_close(got[0], want[0])
    assert_close(got[1], want[1])


def test_curvature_and_ricci(case):
    spec, sym = case
    g, _, conn = engine(spec)
    R = sym.at(sym.curvature())
    assert_close(curvature_values(conn, spec["point"]), R)
    assert_close(ricci_values(conn, g, spec["point"]), np.einsum("ajai->ij", R))
    # the torsion shift makes the oracle non-trivial: R and Ric are not symmetric
    assert np.max(np.abs(R)) > 1e-3


def test_semi_dual_connection(case):
    # the base connection is flat plus I (x) eta, K^k_ij = delta^k_i eta_j:
    # with eta (x) I the eta terms of the semi-dual would cancel
    spec, sym = case
    g, eta, _ = engine(spec)
    conn = ConnectionField.flat(g.chart).add_tensor(id_tensor_eta(g.chart, eta))
    got = value_and_gradient(semi_dual_connection(g, eta, conn).jet(spec["point"], 1))
    n = sym.n
    gamma = [[[sym.eta[j] if k == i else 0 for j in range(n)] for i in range(n)] for k in range(n)]
    want = sym.with_gradient(sym.semi_dual(gamma))
    assert_close(got[0], want[0])
    assert_close(got[1], want[1])


def test_induced_metric_of_the_sphere_in_a_curved_ambient():
    spec = CASES["3d"]
    sym = Symbolic(spec)
    g, eta, conn = engine(spec)
    domain = Chart(("u", "v"), (0.4, 0.4), (1.2, 1.2))
    components = ["cos(u)*sin(v)", "sin(u)*sin(v)", "cos(v)"]
    emb = EmbeddingMap(domain, g.chart, components)
    p = (0.7, 0.9)
    got = value_and_gradient(induced_structure(emb, Structure(g.chart, g, eta, conn)).g.jet(p, 1))

    u = sp.symbols(("u", "v"))
    F = [sp.sympify(c) for c in components]
    gF = sym.g.subs(dict(zip(sym.x, F)))
    dF = sp.Matrix(3, 2, lambda i, a: sp.diff(F[i], u[a]))
    induced = (dF.T * gF * dF).tolist()
    want_value = np.array(sp.lambdify(u, induced, "math")(*p), dtype=float)
    grads = sp.derive_by_array(sp.Array(induced), u).tolist()
    want_grad = np.moveaxis(np.array(sp.lambdify(u, grads, "math")(*p), dtype=float), 0, -1)
    assert_close(got[0], want_value)
    assert_close(got[1], want_grad)


# -- order four: the first-order rule one order down ---------------------------


def symbolic_layers(exprs, symbols, point, order):
    """Layers ``0 .. order`` of the sympy array ``exprs`` at ``point``, each
    with its derivative axes last, as the jets store them."""
    D, layers = sp.Array(exprs), []
    for r in range(order + 1):
        values = np.array(sp.lambdify(symbols, D.tolist(), "math", cse=True)(*point), dtype=float)
        layers.append(np.moveaxis(values, list(range(r)), list(range(-r, 0))) if r else values)
        D = sp.derive_by_array(D, symbols)
    return layers


def assert_layers_close(jet, want, tol=TOL):
    assert jet.order == len(want) - 1
    for r, (got, ref) in enumerate(zip(jet.layers, want)):
        assert np.max(np.abs(got - ref)) <= tol * (1.0 + np.max(np.abs(ref))), r


@pytest.mark.parametrize(
    "text",
    [
        "exp(x*y) * sin(x + y^2)",
        "log(1 + x*y) / (2 + cos(x))",
        "sqrt(1 + x*x*y) * (x - y)^3",
        "(1 + x*y)^(-2) - 1/(x + y)",
    ],
)
def test_expression_layers_to_fourth_order(text):
    # every elementary function and integer power, products and quotients
    x = sp.symbols(("x", "y"))
    p = (0.7, 0.4)
    e = parse_expression(text, ("x", "y"))
    want = symbolic_layers([sp.sympify(text.replace("^", "**"))], x, p, 4)
    assert_layers_close(eval_jets([e], p, 4), want)


def test_composition_to_fourth_order():
    # ambient metric entries pulled back through the sphere map, by jet_compose
    x, u = sp.symbols(("x", "y", "z")), sp.symbols(("u", "v"))
    outer = ["exp(0.2*x*z)", "0.1*x*y", "1 + 0.2*y*y"]
    inner = ["cos(u)*sin(v)", "sin(u)*sin(v)", "cos(v)"]
    p = (0.7, 0.9)
    F = eval_jets([parse_expression(c, ("u", "v")) for c in inner], p, 4)
    G = eval_jets([parse_expression(c, ("x", "y", "z")) for c in outer], F.value, 4)
    at_F = dict(zip(x, (sp.sympify(c) for c in inner)))
    assert_layers_close(jet_compose(G, F), symbolic_layers([sp.sympify(c).subs(at_F) for c in outer], u, p, 4))
