import itertools
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiweyl.expressions import differentiate, eval_jet, eval_value, parse_expression
from semiweyl.jets import (
    EvaluationDomainError,
    Jet,
    JetOrderError,
    constant_jets,
    jet_compose,
    jet_det,
    jet_einsum,
    jet_matinv,
    jet_solve,
    partials,
    values_of,
)

finite = st.floats(-2.0, 2.0).filter(lambda v: abs(v) > 1e-3)


def random_jet(value, grad, hess):
    h = np.asarray(hess)
    return Jet(2, 2, value, np.asarray(grad), (h + h.T) / 2)


jets = st.builds(
    random_jet,
    finite,
    st.tuples(finite, finite),
    st.tuples(st.tuples(finite, finite), st.tuples(finite, finite)),
)


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
        # cross-checked against symbolic differentiation
        e = parse_expression("(x^2*y + sin(x)) * exp(y)", ("x", "y"))
        p = (0.7, 0.4)
        j = eval_jet(e, p, 3)
        d = e
        for idx in (0, 1, 1):
            d = differentiate(d, idx)
        assert j.third[0, 1, 1] == pytest.approx(eval_value(d, p), rel=1e-12)


class TestLinearAlgebra:
    def _matrix_jets(self, exprs, p, order=2):
        n = len(exprs)
        out = np.empty((n, n), dtype=object)
        for i in range(n):
            for j in range(n):
                out[i, j] = eval_jet(parse_expression(exprs[i][j], ("x", "y")), p, order)
        return out

    def test_solve_matches_symbolic(self):
        p = (0.8, 0.6)
        A = self._matrix_jets([["1 + x*y", "0.3*y"], ["0.2*x", "2 + sin(x)"]], p)
        b = np.array([eval_jet(parse_expression(t, ("x", "y")), p, 2) for t in ("x^2", "cos(y)")], dtype=object)
        sol = jet_solve(A, b)
        # residual A @ sol - b must vanish to second order
        for i in range(2):
            r = A[i, 0] * sol[0] + A[i, 1] * sol[1] - b[i]
            assert abs(r.value) < 1e-12
            assert np.max(np.abs(r.grad)) < 1e-12
            assert np.max(np.abs(r.hess)) < 1e-10

    def test_matinv_times_matrix_is_identity(self):
        p = (0.5, 0.9)
        A = self._matrix_jets([["2 + x", "y"], ["0.1", "1 + y^2"]], p)
        Ainv = jet_matinv(A)
        for i in range(2):
            for j in range(2):
                acc = A[i, 0] * Ainv[0, j] + A[i, 1] * Ainv[1, j]
                target = 1.0 if i == j else 0.0
                assert acc.value == pytest.approx(target, abs=1e-12)
                assert np.max(np.abs(acc.grad)) < 1e-11
                assert np.max(np.abs(acc.hess)) < 1e-10

    def test_det_matches_symbolic(self):
        exprs = [["2 + x", "y"], ["0.1*x", "1 + y^2"]]
        det_expr = parse_expression("(2 + x)*(1 + y^2) - y*0.1*x", ("x", "y"))
        p = (0.4, 0.7)
        d = jet_det(self._matrix_jets(exprs, p))
        ref = eval_jet(det_expr, p, 2)
        assert d.value == pytest.approx(ref.value, rel=1e-12)
        assert np.allclose(d.grad, ref.grad)
        assert np.allclose(d.hess, ref.hess)

    def test_singular_matrix_raises(self):
        ones = constant_jets(np.ones((2, 2)), 2, 2)
        rhs = constant_jets(np.ones(2), 2, 2)
        with pytest.raises(EvaluationDomainError):
            jet_solve(ones, rhs)


class TestComposition:
    def test_compose_matches_direct_evaluation(self):
        # outer(f1, f2) with inner maps given by expressions equals the
        # direct jet of the composite expression
        names = ("u", "v")
        inner_exprs = ("u*v", "u + v^2")
        outer = parse_expression("sin(x) * y", ("x", "y"))
        composite = parse_expression("sin(u*v) * (u + v^2)", names)
        p = (0.6, 0.8)
        inner = np.array([eval_jet(parse_expression(t, names), p, 2) for t in inner_exprs], dtype=object)
        x = tuple(j.value for j in inner)
        out = jet_compose(eval_jet(outer, x, 2), inner)
        ref = eval_jet(composite, p, 2)
        assert out.value == pytest.approx(ref.value, rel=1e-12)
        assert np.allclose(out.grad, ref.grad)
        assert np.allclose(out.hess, ref.hess)

    def test_values_of(self):
        arr = constant_jets(np.arange(6.0).reshape(2, 3), 2, 1)
        assert np.allclose(values_of(arr), np.arange(6.0).reshape(2, 3))


# -- dense contractions ---------------------------------------------------------


def _symmetric(rng, n, rank):
    t = rng.normal(size=(n,) * rank)
    return sum(np.transpose(t, perm) for perm in itertools.permutations(range(rank))) / 6.0


def random_jets(rng, shape, order, n=2):
    """Object array of jets with random symmetric derivative coefficients."""
    out = np.empty(shape, dtype=object)
    for idx in np.ndindex(shape):
        out[idx] = Jet(
            n,
            order,
            rng.normal(),
            rng.normal(size=n) if order >= 1 else None,
            _symmetric(rng, n, 2) if order >= 2 else None,
            _symmetric(rng, n, 3) if order >= 3 else None,
        )
    return out


def assert_jets_close(got, want, tol=1e-13):
    got, want = np.asarray(got, dtype=object), np.asarray(want, dtype=object)
    assert got.shape == want.shape
    for g, w in zip(got.flat, want.flat):
        assert g.order == w.order
        for name in ("value", "grad", "hess", "third")[: w.order + 1]:
            a, b = np.asarray(getattr(g, name)), np.asarray(getattr(w, name))
            assert np.max(np.abs(a - b)) <= tol * (1.0 + np.max(np.abs(b))), name


def jet_sum(terms):
    return reduce(lambda a, b: a + b, terms)


ORDERS = [0, 1, 2, 3]


class TestJetEinsum:
    @pytest.mark.parametrize("order", ORDERS)
    def test_matrix_product(self, order):
        rng = np.random.default_rng(order)
        A, B = random_jets(rng, (3, 2), order), random_jets(rng, (2, 4), order)
        want = np.empty((3, 4), dtype=object)
        for i, k in np.ndindex(want.shape):
            want[i, k] = jet_sum(A[i, j] * B[j, k] for j in range(2))
        assert_jets_close(jet_einsum("ij,jk->ik", A, B), want)

    @pytest.mark.parametrize("order", ORDERS)
    def test_three_operands(self, order):
        rng = np.random.default_rng(10 + order)
        A, B, v = random_jets(rng, (2, 3), order), random_jets(rng, (3, 2), order), random_jets(rng, (2,), order)
        want = np.empty((2, 2), dtype=object)
        for i, a in np.ndindex(want.shape):
            want[i, a] = jet_sum(A[i, j] * B[j, k] * v[a] for j in range(3) for k in range(2))
        assert_jets_close(jet_einsum("ij,jk,a->ia", A, B, v), want)

    @pytest.mark.parametrize("order", ORDERS)
    def test_float_operand_is_a_constant(self, order):
        rng = np.random.default_rng(20 + order)
        A, C = random_jets(rng, (3, 3), order), rng.normal(size=(3, 2))
        want = np.empty((3, 2), dtype=object)
        for i, k in np.ndindex(want.shape):
            want[i, k] = jet_sum(A[i, j] * C[j, k] for j in range(3))
        assert_jets_close(jet_einsum("ij,jk->ik", A, C), want)

    @pytest.mark.parametrize("order", ORDERS)
    def test_scalar_output_is_a_jet(self, order):
        rng = np.random.default_rng(30 + order)
        u, v = random_jets(rng, (3,), order), random_jets(rng, (3,), order)
        out = jet_einsum("i,i->", u, v)
        assert isinstance(out, Jet)
        assert_jets_close(out, jet_sum(u[i] * v[i] for i in range(3)))

    @pytest.mark.parametrize("low, high", [(0, 3), (1, 2), (1, 3), (2, 3)])
    def test_mixed_orders_truncate_to_the_lowest(self, low, high):
        rng = np.random.default_rng(40 + 4 * low + high)
        A, v = random_jets(rng, (2, 3), high), random_jets(rng, (3,), low)
        out = jet_einsum("ij,j->i", A, v)
        assert all(j.order == low for j in out)
        want = np.array([jet_sum(A[i, j] * v[j] for j in range(3)) for i in range(2)], dtype=object)
        assert_jets_close(out, want)

    def test_no_jet_operand_is_plain_einsum(self):
        a = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(jet_einsum("ij->ji", a), a.T)


class TestPartials:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_matches_partial(self, order):
        J = random_jets(np.random.default_rng(50 + order), (2, 3), order)
        want = np.empty((2, 3, 2), dtype=object)
        for i, j, a in np.ndindex(want.shape):
            want[i, j, a] = J[i, j].partial(a)
        assert_jets_close(partials(J), want, tol=0.0)

    def test_scalar_jet_gives_its_gradient_jets(self):
        j = random_jets(np.random.default_rng(60), (), 2)[()]
        assert_jets_close(partials(j), np.array([j.partial(0), j.partial(1)], dtype=object), tol=0.0)

    def test_order_zero_raises(self):
        with pytest.raises(JetOrderError):
            partials(constant_jets(np.ones(2), 2, 0))


class TestArrayCompose:
    @pytest.mark.parametrize("order", ORDERS)
    def test_array_outer_matches_entrywise(self, order):
        rng = np.random.default_rng(70 + order)
        outer = random_jets(rng, (2, 3), order, n=3)
        inner = random_jets(rng, (3,), order, n=2)
        want = np.empty((2, 3), dtype=object)
        for idx in np.ndindex(want.shape):
            want[idx] = jet_compose(outer[idx], inner)
        assert_jets_close(jet_compose(outer, inner), want)
