import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiweyl.expressions import eval_jet, eval_jets, parse_expression
from semiweyl.jets import (
    EvaluationDomainError,
    Jet,
    JetOrderError,
    _leibniz,
    jet_compose,
    jet_cross,
    jet_einsum,
    jet_solve,
    jet_stack,
    partials,
)

finite = st.floats(-2.0, 2.0).filter(lambda v: abs(v) > 1e-3)


def random_jet(value, grad, hess):
    h = np.asarray(hess)
    return Jet(2, [value, np.asarray(grad), (h + h.T) / 2])


jets = st.builds(
    random_jet,
    finite,
    st.tuples(finite, finite),
    st.tuples(st.tuples(finite, finite), st.tuples(finite, finite)),
)


# -- independent references ------------------------------------------------------
#
# Expected layers come from the Leibniz rule written out below with numpy,
# not from the engine: derivative r of a product x y is the sum, over every
# way of putting the r derivative slots on x or on y, of the matching
# layers of x and y.

LEIBNIZ = {
    0: [("", "")],
    1: [("x", ""), ("", "x")],
    2: [("xy", ""), ("x", "y"), ("y", "x"), ("", "xy")],
    3: [
        ("xyz", ""),
        ("xy", "z"), ("xz", "y"), ("yz", "x"),
        ("x", "yz"), ("y", "xz"), ("z", "xy"),
        ("", "xyz"),
    ],
}


def product_layers(spec, x, y, order):
    """Layers of the einsum product ``spec`` of two operands given by their
    layers (layers beyond an operand's list are zero)."""
    xs, rest = spec.split(",")
    ys, out = rest.split("->")
    layers = []
    for r in range(order + 1):
        terms = [
            np.einsum(f"{xs}{on_x},{ys}{on_y}->{out}{'xyz'[:r]}", x[len(on_x)], y[len(on_y)])
            for on_x, on_y in LEIBNIZ[r]
            if len(on_x) < len(x) and len(on_y) < len(y)
        ]
        layers.append(sum(terms))
    return layers


def _symmetric(rng, shape, n, rank):
    """Random layer of tensor shape ``shape``, symmetric in its ``rank``
    derivative axes."""
    t = rng.normal(size=shape + (n,) * rank)
    k = len(shape)
    perms = itertools.permutations(range(k, k + rank))
    return sum(np.transpose(t, tuple(range(k)) + perm) for perm in perms) / math.factorial(rank)


def random_jets(rng, shape, order, n=2):
    """Jet with random values and random symmetric derivative layers."""
    value = rng.normal(size=shape) if shape else float(rng.normal())
    return Jet(n, [value] + [_symmetric(rng, shape, n, r) for r in range(1, order + 1)])


def assert_layers_close(got, want, tol=1e-13):
    assert got.order == len(want) - 1
    for r, (a, b) in enumerate(zip(got.layers, want)):
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape, r
        assert np.max(np.abs(a - b), initial=0.0) <= tol * (1.0 + np.max(np.abs(b), initial=0.0)), r


class TestArithmetic:
    @settings(max_examples=60, deadline=None)
    @given(jets, jets)
    def test_product_rule(self, a, b):
        p = a * b
        assert p.value == pytest.approx(a.value * b.value)
        assert np.allclose(p.grad, a.value * b.grad + b.value * a.grad)
        expected_hess = (
            a.value * b.hess
            + b.value * a.hess
            + np.outer(a.grad, b.grad)
            + np.outer(b.grad, a.grad)
        )
        assert np.allclose(p.hess, expected_hess)

    @settings(max_examples=60, deadline=None)
    @given(jets)
    def test_reciprocal_inverts(self, a):
        r = a * a.reciprocal()
        assert r.value == pytest.approx(1.0)
        assert np.allclose(r.grad, 0.0, atol=1e-9)
        assert np.allclose(r.hess, 0.0, atol=1e-8)

    @settings(max_examples=60, deadline=None)
    @given(jets)
    def test_exp_log_roundtrip(self, a):
        b = a.exp().log()
        assert b.value == pytest.approx(a.value)
        assert np.allclose(b.grad, a.grad, atol=1e-9)
        assert np.allclose(b.hess, a.hess, atol=1e-7)

    def test_log_domain_error(self):
        with pytest.raises(EvaluationDomainError):
            Jet.constant(-1.0, 2, 2).log()

    def test_order_three_product(self):
        # third-order coefficients follow the trilinear Leibniz rule,
        # cross-checked against sympy
        sp = pytest.importorskip("sympy")
        x, y = sp.symbols("x y")
        e = parse_expression("(x^2*y + sin(x)) * exp(y)", ("x", "y"))
        p = (0.7, 0.4)
        j = eval_jet(e, p, 3)
        d = sp.diff((x**2 * y + sp.sin(x)) * sp.exp(y), x, y, y)
        assert j.third[0, 1, 1] == pytest.approx(float(d.subs({x: p[0], y: p[1]})), rel=1e-12)

    def test_order_is_not_capped(self):
        assert Jet.constant(1.0, 2, 5).order == 5
        assert eval_jet(parse_expression("x*y", NAMES), (0.5, 0.5), 6).layers[6].shape == (2,) * 6
        with pytest.raises(JetOrderError):
            Jet.constant(1.0, 2, -1)
        with pytest.raises(JetOrderError):
            Jet(2, [])


NAMES = ("x", "y")


def _parsed(texts):
    return [parse_expression(t, NAMES) for t in texts]


class TestDenseJet:
    def test_indexing_keeps_the_derivative_axes(self):
        J = random_jets(np.random.default_rng(1), (2, 3), 3)
        for idx in (1, (slice(None), 2), (Ellipsis, 1), (1, slice(1, None))):
            full = idx if isinstance(idx, tuple) else (idx,)
            for r, L in enumerate(J[idx].layers):
                assert np.array_equal(L, J.layers[r][full + (slice(None),) * r])
        scalar = J[1, 2]
        assert scalar.shape == () and isinstance(scalar.value, float)
        assert np.array_equal(scalar.third, J.layers[3][1, 2])

    def test_a_batch_of_coordinates_has_its_unit_derivative_on_the_last_axis(self):
        # indexing the first axis made point 1's whole gradient one
        values = np.array([0.1, 0.2, 0.3])
        J = Jet.coordinate(values, 1, 2, 2)
        assert J.shape == (3,) and np.array_equal(J.value, values)
        assert np.array_equal(J.grad, [[0.0, 1.0]] * 3) and not J.hess.any()

    def test_transpose_reshape_and_no_iteration(self):
        J = random_jets(np.random.default_rng(2), (2, 3, 4), 2)
        for r, L in enumerate(J.transpose(2, 0, 1).layers):
            assert np.array_equal(L, np.transpose(J.layers[r], (2, 0, 1) + tuple(range(3, 3 + r))))
        for r, L in enumerate(J[0].T.layers):
            assert np.array_equal(L, np.swapaxes(J.layers[r][0], 0, 1))
        for r, L in enumerate(J.reshape(6, 4).layers):
            assert np.array_equal(L, J.layers[r].reshape((6, 4) + (2,) * r))
        # no length and no iteration: over a set they would walk its points
        with pytest.raises(TypeError):
            list(J)
        with pytest.raises(TypeError):
            len(J)

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_products_broadcast(self, order):
        rng = np.random.default_rng(3 + order)
        T, s, v = random_jets(rng, (2, 3), order), random_jets(rng, (), order), random_jets(rng, (3,), order)
        assert_layers_close(T * s, product_layers("ij,->ij", T.layers, s.layers, order))
        assert_layers_close(s * T, product_layers("ij,->ij", T.layers, s.layers, order))
        assert_layers_close(T * v, product_layers("ij,j->ij", T.layers, v.layers, order))
        C = rng.normal(size=(2, 3))
        assert_layers_close(T * C, product_layers("ij,ij->ij", T.layers, [C], order))
        assert_layers_close(C - T, [C - T.value] + [-L for L in T.layers[1:]])
        assert_layers_close(T + 2.0, [T.value + 2.0] + T.layers[1:], tol=0.0)

    @pytest.mark.parametrize("name", ["exp", "log", "sin", "cos", "sqrt", "reciprocal"])
    def test_elementwise_functions_match_scalar_evaluation(self, name):
        p = (0.8, 0.6)
        args = ["1 + x*y", "2 + x - y^2", "x + 0.5*y"]
        tensor = eval_jets(_parsed(args), p, 3).reshape(3, 1)
        got = getattr(tensor, name)()
        outer = "1/({})" if name == "reciprocal" else name + "({})"
        want = eval_jets(_parsed([outer.format(a) for a in args]), p, 3).reshape(3, 1)
        assert_layers_close(got, want.layers, tol=1e-12)

    def test_integer_powers_match_scalar_evaluation(self):
        p = (0.8, 0.6)
        base = eval_jets(_parsed(["1 + x*y", "x - y"]), p, 3)
        for k in (-2, 0, 1, 2, 3):
            want = eval_jets(_parsed([f"(1 + x*y)^({k})", f"(x - y)^({k})"]), p, 3)
            assert_layers_close(base**k, want.layers, tol=1e-12)

    def test_stack_lifts_constants(self):
        rng = np.random.default_rng(4)
        a, b = random_jets(rng, (3,), 2), random_jets(rng, (3,), 3)
        c = np.arange(3.0)
        S = jet_stack([a, c, b], axis=1)
        assert S.shape == (3, 3) and S.order == 2
        assert np.array_equal(S.value, np.stack([a.value, c, b.value], axis=1))
        assert np.array_equal(S.hess[:, 2], b.hess) and not S.grad[:, 1].any()

    def test_not_finite_and_not_an_array(self):
        J = random_jets(np.random.default_rng(5), (2,), 1)
        assert J.is_finite()
        assert not Jet(2, [J.value, J.grad * np.inf]).is_finite()
        with pytest.raises(TypeError):
            np.asarray(J)
        with pytest.raises(TypeError, match="truth value"):
            bool(J[0])


class TestLinearAlgebra:
    def _matrix_jets(self, exprs, p, order=2):
        return eval_jets(_parsed([e for row in exprs for e in row]), p, order).reshape(len(exprs), len(exprs))

    def test_solve_matches_symbolic(self):
        p = (0.8, 0.6)
        A = self._matrix_jets([["1 + x*y", "0.3*y"], ["0.2*x", "2 + sin(x)"]], p)
        b = eval_jets(_parsed(["x^2", "cos(y)"]), p, 2)
        sol = jet_solve(A, b)
        # residual A @ sol - b must vanish to second order
        r = [x - y for x, y in zip(product_layers("ij,j->i", A.layers, sol.layers, 2), b.layers)]
        assert np.max(np.abs(r[0])) < 1e-12
        assert np.max(np.abs(r[1])) < 1e-12
        assert np.max(np.abs(r[2])) < 1e-10

    def test_matinv_times_matrix_is_identity(self):
        # the inverse is jet_solve against the identity
        p = (0.5, 0.9)
        A = self._matrix_jets([["2 + x", "y"], ["0.1", "1 + y^2"]], p)
        acc = product_layers("ij,jk->ik", A.layers, jet_solve(A, np.eye(2)).layers, 2)
        assert np.allclose(acc[0], np.eye(2), rtol=0.0, atol=1e-12)
        assert np.max(np.abs(acc[1])) < 1e-11
        assert np.max(np.abs(acc[2])) < 1e-10

    def test_det_matches_symbolic(self):
        # the determinant is the first row against the cross product of the others
        exprs = [["2 + x", "y"], ["0.1*x", "1 + y^2"]]
        det_expr = parse_expression("(2 + x)*(1 + y^2) - y*0.1*x", NAMES)
        p = (0.4, 0.7)
        A = self._matrix_jets(exprs, p)
        d = jet_einsum("i,i->", A[0], jet_cross(A[1:]))
        ref = eval_jet(det_expr, p, 2)
        assert d.value == pytest.approx(ref.value, rel=1e-12)
        assert np.allclose(d.grad, ref.grad)
        assert np.allclose(d.hess, ref.hess)

    def test_cross_matches_symbolic(self):
        rows = [["1 + x", "y^2", "x*y"], ["sin(y)", "2", "x - y"]]
        (a1, a2, a3), (b1, b2, b3) = rows
        cross = [f"({a2})*({b3}) - ({a3})*({b2})", f"({a3})*({b1}) - ({a1})*({b3})", f"({a1})*({b2}) - ({a2})*({b1})"]
        p = (0.3, 0.8)
        c = jet_cross(eval_jets(_parsed([e for row in rows for e in row]), p, 3).reshape(2, 3))
        ref = eval_jets(_parsed(cross), p, 3)
        for got, want in zip(c.layers, ref.layers):
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_cross_is_one_sum_over_the_permutations(self, k):
        # the rows past the second are contracted one at a time; against
        # the permutation sum as one einsum of every row
        rng = np.random.default_rng(90 + k)
        rows = random_jets(rng, (4, k - 1, k), 2, n=3)
        eps = np.zeros((k,) * k)
        for perm in itertools.permutations(range(k)):
            eps[perm] = round(np.linalg.det(np.eye(k)[list(perm)]))
        i, *idx = "ijklm"[:k]
        spec = f"{i}{''.join(idx)},{','.join('...' + a for a in idx)}->...{i}"
        assert_layers_close(jet_cross(rows), jet_einsum(spec, eps, *(rows[..., a, :] for a in range(k - 1))).layers)

    def test_singular_matrix_raises(self):
        ones = Jet.constant(np.ones((2, 2)), 2, 2)
        rhs = Jet.constant(np.ones(2), 2, 2)
        with pytest.raises(EvaluationDomainError):
            jet_solve(ones, rhs)


class TestBatch:
    """A jet of a point set carries its points on a leading axis; each row of
    a helper's result on the set is bitwise its result at the point alone."""

    P = 7

    def batch(self, rng, shape, order, n=2):
        return random_jets(rng, (self.P,) + shape, order, n)

    def assert_rows(self, got, alone):
        for r in range(self.P):
            want = alone(r)
            assert got[r].shape == want.shape and got[r].order == want.order
            assert [np.asarray(L).tobytes() for L in got[r].layers] == [np.asarray(L).tobytes() for L in want.layers]

    def frames(self, rng, order, k=3):
        """A batch of well-conditioned ``(k, k)`` matrix jets."""
        A = self.batch(rng, (k, k), order)
        return A + np.eye(k) * 4.0

    @pytest.mark.parametrize("order", [1, 2, 4])
    def test_solve_with_a_jet_right_hand_side(self, order):
        rng = np.random.default_rng(20 + order)
        A, b = self.frames(rng, order), self.batch(rng, (3, 2), order)
        self.assert_rows(jet_solve(A, b), lambda r: jet_solve(A[r], b[r]))

    @pytest.mark.parametrize("order", [1, 3])
    def test_solve_with_a_constant_right_hand_side(self, order):
        rng = np.random.default_rng(30 + order)
        A, b = self.frames(rng, order), rng.normal(size=(3, 2))
        S = jet_solve(A, b)
        assert S.shape == (self.P, 3, 2)
        self.assert_rows(S, lambda r: jet_solve(A[r], b))

    def test_a_singular_member_raises_for_the_set(self):
        rng = np.random.default_rng(40)
        A = self.frames(rng, 1)
        value = np.array(A.value)
        value[3] = 1.0  # all ones: singular
        A = Jet(2, [value, A.grad])
        with pytest.raises(EvaluationDomainError, match="singular") as raised:
            jet_solve(A, np.eye(3))
        # the set's error names the singular row; a point names no rows
        assert [r is not None for r in raised.value.rows] == [r == 3 for r in range(self.P)]
        with pytest.raises(EvaluationDomainError, match="singular") as raised:
            jet_solve(A[3], np.eye(3))
        assert raised.value.rows is None
        for r in (0, 6):
            jet_solve(A[r], np.eye(3))

    @pytest.mark.parametrize(
        "op,message",
        [
            (Jet.sqrt, "sqrt of a negative value"),
            (Jet.log, "log of a non-positive value"),
            (Jet.reciprocal, "division by zero"),
            (lambda J: J ** -2, "zero raised to a negative power"),
        ],
        ids=["sqrt", "log", "reciprocal", "power"],
    )
    def test_a_domain_error_on_a_set_names_the_rows_that_raise_alone(self, op, message):
        values = np.array([[1.0, 2.0], [0.0, 1.0], [-1.0, 1.0], [3.0, np.inf]])
        J = Jet(1, [values, np.ones(values.shape + (1,))])
        alone = []
        for r in range(len(values)):
            try:
                op(J[r])
                alone.append(None)
            except EvaluationDomainError as exc:
                alone.append((EvaluationDomainError, exc.args))
        with pytest.raises(EvaluationDomainError, match=f"^{message}$") as raised:
            op(J)
        assert raised.value.rows == alone and any(alone) and not all(alone)

    @pytest.mark.parametrize("axis", [-2, -1])
    def test_stack_broadcasts_its_constants(self, axis):
        rng = np.random.default_rng(50)
        a, b, c = self.batch(rng, (3,), 2), self.batch(rng, (3,), 3), np.arange(3.0)
        S = jet_stack([a, c, b], axis=axis)
        assert S.shape == (self.P, 3, 3) and S.order == 2
        self.assert_rows(S, lambda r: jet_stack([a[r], c, b[r]], axis=axis + 2))

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_compose(self, order):
        # the points innermost, as a set's arrays are: a row has its bits in
        # any set of two or more points, and alone its einsums may take
        # numpy's contiguous dot loop and sum in another order
        rng = np.random.default_rng(60 + order)
        outer, inner = self.batch(rng, (2,), order, n=3), self.batch(rng, (3,), order)
        innermost = lambda J: Jet(J.n, [np.asfortranarray(L) for L in J.layers])  # noqa: E731
        got = jet_compose(innermost(outer), innermost(inner))
        assert got.shape == (self.P, 2) and got.n == 2
        for r in range(self.P):
            rows = [r, (r + 3) % self.P]
            pair = jet_compose(innermost(outer[rows]), innermost(inner[rows]))
            assert [L[r].tobytes() for L in got.layers] == [L[0].tobytes() for L in pair.layers]
            assert_layers_close(got[r], jet_compose(outer[r], inner[r]).layers, tol=1e-14)

    def test_cross(self):
        rng = np.random.default_rng(70)
        rows = self.batch(rng, (2, 3), 2)
        self.assert_rows(jet_cross(rows), lambda r: jet_cross(rows[r]))

    def test_transpose_acts_on_the_trailing_axes(self):
        J = self.batch(np.random.default_rng(80), (2, 3, 4), 2)
        assert J.transpose(2, 0, 1).shape == (self.P, 4, 2, 3) and J.T.shape == (self.P, 2, 4, 3)
        self.assert_rows(J.transpose(2, 0, 1), lambda r: J[r].transpose(2, 0, 1))
        self.assert_rows(J.transpose(-1, 0, 1), lambda r: J[r].transpose(2, 0, 1))
        self.assert_rows(J.T, lambda r: J[r].T)
        self.assert_rows(J[..., 0, :, :].T, lambda r: J[r][0].T)


class TestComposition:
    def test_compose_matches_direct_evaluation(self):
        # outer(f1, f2) with inner maps given by expressions equals the
        # direct jet of the composite expression
        names = ("u", "v")
        outer = parse_expression("sin(x) * y", NAMES)
        composite = parse_expression("sin(u*v) * (u + v^2)", names)
        p = (0.6, 0.8)
        inner = eval_jets([parse_expression(t, names) for t in ("u*v", "u + v^2")], p, 2)
        out = jet_compose(eval_jet(outer, inner.value, 2), inner)
        ref = eval_jet(composite, p, 2)
        assert out.value == pytest.approx(ref.value, rel=1e-12)
        assert np.allclose(out.grad, ref.grad)
        assert np.allclose(out.hess, ref.hess)

    @pytest.mark.parametrize("order", [3, 4, 5])
    def test_compose_matches_direct_evaluation_at_high_order(self, order):
        # every layer of the chain rule taken one order down, against
        # products and elementwise functions of the composite expression
        names = ("u", "v")
        outer = parse_expression("exp(x) * y + x*x*y", NAMES)
        composite = parse_expression("exp(u*v) * sin(u + v) + u*v*u*v*sin(u + v)", names)
        p = (0.6, 0.8)
        inner = eval_jets([parse_expression(t, names) for t in ("u*v", "sin(u + v)")], p, order)
        out = jet_compose(eval_jet(outer, inner.value, order), inner)
        assert_layers_close(out, eval_jet(composite, p, order).layers, tol=1e-12)

    def test_values_of(self):
        arr = Jet.constant(np.arange(6.0).reshape(2, 3), 2, 1)
        assert np.array_equal(arr.value, np.arange(6.0).reshape(2, 3))
        assert arr.grad.shape == (2, 3, 2) and not arr.grad.any()


def _set_partitions(slots):
    """Every partition of the string ``slots`` into blocks (strings)."""
    if not slots:
        yield []
        return
    first, rest = slots[0], slots[1:]
    for part in _set_partitions(rest):
        yield [first] + part
        for i in range(len(part)):
            yield part[:i] + [first + part[i]] + part[i + 1 :]


def _falling(a, k):
    return math.prod(a - i for i in range(k))


# each elementwise function, and its k-th derivative at the values v
ELEMENTWISE = {
    "exp": (Jet.exp, lambda v, k: np.exp(v)),
    "log": (Jet.log, lambda v, k: np.log(v) if k == 0 else _falling(-1, k - 1) / v**k),
    "sin": (Jet.sin, lambda v, k: np.sin(v + k * np.pi / 2)),
    "cos": (Jet.cos, lambda v, k: np.cos(v + k * np.pi / 2)),
    "sqrt": (Jet.sqrt, lambda v, k: _falling(0.5, k) * v ** (0.5 - k)),
    "reciprocal": (Jet.reciprocal, lambda v, k: _falling(-1, k) / v ** (k + 1)),
    "**3": (lambda J: J**3, lambda v, k: _falling(3, k) * v ** (3 - k)),
    "**-2": (lambda J: J**-2, lambda v, k: _falling(-2, k) / v ** (2 + k)),
}
OPERATIONS = {"product": lambda J, K: J * K} | {name: lambda J, K, f=f: f(J) for name, (f, _) in ELEMENTWISE.items()}


class TestGenericOrders:
    """Layers 1 to 3 of products and elementwise functions are written out
    by hand; above order 3, layer ``r`` is layer ``r - 1`` of the first-order
    rule (``da b + a db``, ``f'(g) dg``) on jets one order lower.  Checked
    against the Leibniz sum over every slot placement and the Faa di Bruno
    sum over every set partition, written out here, as is a composition,
    the chain rule one order down; and a layer does not depend on the order
    it is computed to, nor a row on its set."""

    P = 3

    def set_jets(self, seed, order):
        """Two random jets of a set of ``P`` points; the first has values in
        [0.5, 1.5), inside every function's domain."""
        rng = np.random.default_rng(seed)
        J, K = (random_jets(rng, (self.P,), order) for _ in range(2))
        return Jet(2, [0.5 + rng.random(self.P)] + J.layers[1:]), K

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_generic_leibniz_sum_matches_the_closed_forms(self, r):
        rng = np.random.default_rng(80 + r)
        T, v = random_jets(rng, (2, 3), 3), random_jets(rng, (3,), 3)
        want = (T * v).layers[r]
        got = _leibniz(("...", "..."), "...", [T.layers, v.layers], r)
        assert np.max(np.abs(got - want)) <= 1e-13 * (1.0 + np.max(np.abs(want)))

    @pytest.mark.parametrize("order", [4, 5, 6])
    def test_product_against_every_placement(self, order):
        J, K = self.set_jets(100 + order, order)
        want = []
        for r in range(order + 1):
            slots = "abcdef"[:r]
            want.append(0.0)
            for owner in itertools.product((0, 1), repeat=r):
                on_J = "".join(c for c, o in zip(slots, owner) if o == 0)
                on_K = "".join(c for c, o in zip(slots, owner) if o == 1)
                want[r] = want[r] + np.einsum(f"p{on_J},p{on_K}->p{slots}", J.layers[len(on_J)], K.layers[len(on_K)])
        assert_layers_close(J * K, want, tol=1e-12)

    @pytest.mark.parametrize("order", [4, 5, 6])
    @pytest.mark.parametrize("name", ELEMENTWISE)
    def test_function_against_every_set_partition(self, name, order):
        J, _ = self.set_jets(110 + order, order)
        f, derivative = ELEMENTWISE[name]
        want = []
        for r in range(order + 1):
            slots = "abcdef"[:r]
            want.append(0.0)
            for blocks in _set_partitions(slots):
                spec = ",".join(["p"] + ["p" + b for b in blocks]) + "->p" + slots
                terms = [J.layers[len(b)] for b in blocks]
                want[r] = want[r] + np.einsum(spec, derivative(J.value, len(blocks)), *terms)
        assert_layers_close(f(J), want, tol=1e-12)

    @pytest.mark.parametrize("order", range(6))
    def test_compose_against_every_set_partition(self, order):
        # a composition takes layer r as layer r - 1 of (Df o F) dF; the
        # Faa di Bruno sum puts layer k of the outer jet, one image axis per
        # block, on each partition of the r slots into k blocks
        rng = np.random.default_rng(140 + order)
        outer, inner = random_jets(rng, (self.P, 2), order, n=3), random_jets(rng, (self.P, 3), order)
        want = []
        for r in range(order + 1):
            slots = "abcdef"[:r]
            want.append(0.0)
            for blocks in _set_partitions(slots):
                images = "ABCDEF"[: len(blocks)]
                spec = ",".join(["zi" + images] + ["z" + A + b for A, b in zip(images, blocks)]) + "->zi" + slots
                want[r] = want[r] + np.einsum(spec, outer.layers[len(blocks)], *(inner.layers[len(b)] for b in blocks))
        assert_layers_close(jet_compose(outer, inner), want, tol=1e-12)

    @pytest.mark.parametrize("name", OPERATIONS)
    def test_order_six_truncated_is_each_fresh_lower_order(self, name):
        J, K = self.set_jets(120, 6)
        op = OPERATIONS[name]
        six = op(J, K)
        for o in range(6):
            fresh = op(Jet(2, J.layers[: o + 1]), Jet(2, K.layers[: o + 1]))
            assert [L.tobytes() for L in fresh.layers] == [L.tobytes() for L in six.layers[: o + 1]], o

    @pytest.mark.parametrize("name", OPERATIONS)
    def test_each_row_of_an_order_five_set_is_its_point_alone(self, name):
        J, K = self.set_jets(130, 5)
        op = OPERATIONS[name]
        got = op(J, K)
        for r in range(self.P):
            alone = op(J[r], K[r])
            assert [np.asarray(L).tobytes() for L in alone.layers] == [L[r].tobytes() for L in got.layers], r

    def test_order_four_product_against_every_placement(self):
        # reference: all 2^4 ways of sharing the slots x, y, z, w between the
        # factors, written out here with numpy
        rng = np.random.default_rng(99)
        T, v = random_jets(rng, (2, 3), 4), random_jets(rng, (3,), 4)
        slots = "wxyz"
        want = 0.0
        for owner in itertools.product((0, 1), repeat=4):
            on_T = "".join(c for c, o in zip(slots, owner) if o == 0)
            on_v = "".join(c for c, o in zip(slots, owner) if o == 1)
            want = want + np.einsum(f"ij{on_T},j{on_v}->ij{slots}", T.layers[len(on_T)], v.layers[len(on_v)])
        got = (T * v).layers[4]
        assert np.max(np.abs(got - want)) <= 1e-13 * (1.0 + np.max(np.abs(want)))

    def test_order_four_solve_satisfies_the_system(self):
        p = (0.8, 0.6)
        exprs = ["1 + x*y", "0.3*y", "0.2*x", "2 + sin(x)"]
        A = eval_jets(_parsed(exprs), p, 4).reshape(2, 2)
        b = eval_jets(_parsed(["x^2", "cos(y)"]), p, 4)
        residual = jet_einsum("ij,j->i", A, jet_solve(A, b)) - b
        for r, L in enumerate(residual.layers):
            assert np.max(np.abs(L)) < 1e-9, r


# -- dense contractions ---------------------------------------------------------


ORDERS = [0, 1, 2, 3]


class TestJetEinsum:
    @pytest.mark.parametrize("order", ORDERS)
    def test_matrix_product(self, order):
        rng = np.random.default_rng(order)
        A, B = random_jets(rng, (3, 2), order), random_jets(rng, (2, 4), order)
        want = product_layers("ij,jk->ik", A.layers, B.layers, order)
        assert_layers_close(jet_einsum("ij,jk->ik", A, B), want)

    @pytest.mark.parametrize("order", ORDERS)
    def test_three_operands(self, order):
        rng = np.random.default_rng(10 + order)
        A, B, v = random_jets(rng, (2, 3), order), random_jets(rng, (3, 2), order), random_jets(rng, (2,), order)
        AB = product_layers("ij,jk->ik", A.layers, B.layers, order)
        want = product_layers("ik,a->ia", AB, v.layers, order)
        assert_layers_close(jet_einsum("ij,jk,a->ia", A, B, v), want)

    @pytest.mark.parametrize("order", ORDERS)
    def test_float_operand_is_a_constant(self, order):
        rng = np.random.default_rng(20 + order)
        A, C = random_jets(rng, (3, 3), order), rng.normal(size=(3, 2))
        want = product_layers("ij,jk->ik", A.layers, [C], order)
        assert_layers_close(jet_einsum("ij,jk->ik", A, C), want)

    @pytest.mark.parametrize("order", ORDERS)
    def test_scalar_output_is_a_jet(self, order):
        rng = np.random.default_rng(30 + order)
        u, v = random_jets(rng, (3,), order), random_jets(rng, (3,), order)
        out = jet_einsum("i,i->", u, v)
        assert isinstance(out, Jet) and out.shape == () and isinstance(out.value, float)
        assert_layers_close(out, product_layers("i,i->", u.layers, v.layers, order))

    @pytest.mark.parametrize("low, high", [(0, 3), (1, 2), (1, 3), (2, 3)])
    def test_mixed_orders_truncate_to_the_lowest(self, low, high):
        rng = np.random.default_rng(40 + 4 * low + high)
        A, v = random_jets(rng, (2, 3), high), random_jets(rng, (3,), low)
        out = jet_einsum("ij,j->i", A, v)
        assert out.order == low
        assert_layers_close(out, product_layers("ij,j->i", A.layers[: low + 1], v.layers, low))

    def test_no_jet_operand_is_plain_einsum(self):
        a = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(jet_einsum("ij->ji", a), a.T)


# spec on a set, and each operand's shape after the batch axis; the operands
# spelled with ``...`` or ``z`` carry the batch axis, and at a point the spec
# drops ``z``
CONTRACTIONS = {
    "leading": ("...ijk,...ja,...kb->...iab", [(3, 3, 3), (3, 2), (3, 2)]),
    "mid-subscript": ("z...AB,zAa,zBb->z...ab", [(2, 3, 3), (3, 2), (3, 2)]),
    "constant": ("abc,...b,...c->...a", [(3, 3, 3), (3,), (3,)]),
    "constants-first": ("ab,bc,...c->...a", [(4, 4), (4, 4), (4,)]),
    "four-operands": ("...lkij,...kc,...ia,...jb->...lcab", [(3, 3, 3, 3), (3, 2), (3, 2), (3, 2)]),
    "long-sums": ("...i,...ij,...j->...", [(16,), (16, 16), (16,)]),
    "dot-first": ("...i,...i,...j->...j", [(16,), (16,), (3,)]),
    "outer-product": ("...i,...j,...k->...ijk", [(2,), (3,), (4,)]),
}


class TestContract:
    """Every contraction is one ``np.einsum``: with the points innermost, a
    row of a set is summed alike in every set of two or more points, and
    within rounding as at the point alone."""

    P = 7

    def operands(self, case):
        """Operands of a set, each with its point axis innermost and entries
        spread over six decades, so that another summation order shows in
        the bits."""
        spec, shapes = CONTRACTIONS[case]
        rng = np.random.default_rng(sorted(CONTRACTIONS).index(case))
        batched = ["..." in s or s.startswith("z") for s in spec.split("->")[0].split(",")]
        shapes = [(self.P,) * b + shape for b, shape in zip(batched, shapes)]
        ops = [rng.normal(size=s) * 10.0 ** rng.integers(-3, 4, size=s) for s in shapes]
        return spec, [np.asfortranarray(x) if b else x for x, b in zip(ops, batched)], batched

    @pytest.mark.parametrize("case", CONTRACTIONS)
    def test_each_row_is_its_row_in_any_set_and_near_its_point(self, case):
        spec, ops, batched = self.operands(case)
        got = np.einsum(spec, *ops)
        assert got.strides[0] == got.itemsize
        for r in range(self.P):
            rows = [r, (r + 3) % self.P]
            pair = np.einsum(spec, *(np.asfortranarray(op[rows]) if b else op for op, b in zip(ops, batched)))
            assert got[r].tobytes() == pair[0].tobytes()
            # alone, numpy may sum a row's terms in another order
            point = np.einsum(spec.replace("z", ""), *(op[r] if b else op for op, b in zip(ops, batched)))
            bound = 1e-14 * np.einsum(spec, *(np.abs(op[r : r + 1]) if b else np.abs(op) for op, b in zip(ops, batched)))[0]
            assert np.all(np.abs(got[r] - point) <= bound)


class TestPartials:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_matches_partial(self, order):
        J = random_jets(np.random.default_rng(50 + order), (2, 3), order)
        P = partials(J)
        # P[i, j, a] is the jet of d/dx_a J[i, j]: its layer r is J's layer r + 1
        assert P.shape == (2, 3, 2) and P.order == order - 1
        for r, L in enumerate(P.layers):
            assert np.array_equal(L, J.layers[r + 1])

    def test_scalar_jet_gives_its_gradient_jets(self):
        j = random_jets(np.random.default_rng(60), (), 2)
        P = partials(j)
        assert P.shape == (2,)
        assert np.array_equal(P.value, j.grad) and np.array_equal(P.grad, j.hess)

    def test_order_zero_raises(self):
        with pytest.raises(JetOrderError):
            partials(Jet.constant(np.ones(2), 2, 0))


class TestArrayCompose:
    @pytest.mark.parametrize("order", ORDERS)
    def test_array_outer_matches_entrywise(self, order):
        rng = np.random.default_rng(70 + order)
        outer = random_jets(rng, (2, 3), order, n=3)
        inner = random_jets(rng, (3,), order, n=2)
        got = jet_compose(outer, inner)
        assert got.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            assert_layers_close(got[idx], jet_compose(outer[idx], inner).layers)
