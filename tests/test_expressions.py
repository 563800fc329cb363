import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semiweyl.expressions import (
    ExpressionSyntaxError,
    UnknownSymbolError,
    eval_jet,
    eval_jets,
    eval_value,
    finite_difference,
    parse_expression,
)
from semiweyl.jets import EvaluationDomainError


def parse2(text):
    return parse_expression(text, ("x", "y"))


class TestParsing:
    def test_arithmetic_and_precedence(self):
        e = parse2("1 + 2*x^2 - y/4")
        assert eval_value(e, (3.0, 8.0)) == pytest.approx(1 + 18 - 2)

    def test_functions_and_nesting(self):
        e = parse2("exp(sin(x) + log(y)) * sqrt(y)")
        x, y = 0.7, 2.0
        assert eval_value(e, (x, y)) == pytest.approx(math.exp(math.sin(x) + math.log(y)) * math.sqrt(y))

    def test_unary_minus(self):
        e = parse2("-x + -(y*2)")
        assert eval_value(e, (1.0, 3.0)) == pytest.approx(-7.0)

    def test_syntax_error(self):
        with pytest.raises(ExpressionSyntaxError):
            parse2("x + * y")

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbolError):
            parse2("x + zeta")

    def test_unbalanced_parens(self):
        with pytest.raises(ExpressionSyntaxError):
            parse2("sin(x")


class TestJetEvaluation:
    def test_polynomial_jet_golden(self):
        # x^2 y at (1, 2): value 2, gradient (4, 1), Hessian [[4, 2], [2, 0]]
        j = eval_jet(parse2("x^2 * y"), (1.0, 2.0), 2)
        assert j.value == pytest.approx(2.0)
        assert np.allclose(j.grad, [4.0, 1.0])
        assert np.allclose(j.hess, [[4.0, 2.0], [2.0, 0.0]])

    def test_jet_matches_symbolic_partials(self):
        sp = pytest.importorskip("sympy")
        x, y = sp.symbols("x y")
        f = sp.exp(x) * sp.sin(y) + x * y**3
        e = parse2("exp(x) * sin(y) + x*y^3")
        p = (0.6, 0.9)
        at = {x: p[0], y: p[1]}
        j = eval_jet(e, p, 2)
        for a, xa in enumerate((x, y)):
            assert j.grad[a] == pytest.approx(float(sp.diff(f, xa).subs(at)), rel=1e-12)
            for b, xb in enumerate((x, y)):
                assert j.hess[a, b] == pytest.approx(float(sp.diff(f, xa, xb).subs(at)), rel=1e-12)


# Random expression trees for the finite-difference property test.
def _expr_strategy():
    leafs = st.sampled_from(["x", "y", "0.7", "1.3", "2"])
    unary = st.sampled_from(["sin", "cos", "exp"])

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from("+-*"), children, children).map(lambda t: f"({t[1]} {t[0]} {t[2]})"),
            st.tuples(unary, children).map(lambda t: f"{t[0]}({t[1]})"),
        )

    return st.recursive(leafs, extend, max_leaves=8)


def _plain_value(text, x, y):
    """``text`` evaluated in plain numpy floats: inf or nan where it
    overflows."""
    names = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "x": np.float64(x), "y": np.float64(y)}
    with np.errstate(all="ignore"):
        return eval(text, {"__builtins__": {}}, names)


class TestFiniteDifferenceOracle:
    @settings(max_examples=100, deadline=None)
    @given(_expr_strategy(), st.floats(0.3, 1.1), st.floats(0.3, 1.1))
    @example("exp(exp(exp(2)))", 1.0, 1.0)
    def test_symbolic_matches_central_difference(self, text, x, y):
        e = parse2(text)
        p = np.array([x, y])
        if not np.isfinite(_plain_value(text, x, y)):
            # an overflowing draw is outside the domain: both evaluations
            # raise instead of returning inf or nan
            with pytest.raises(EvaluationDomainError):
                eval_jet(e, p, 1)
            with pytest.raises(EvaluationDomainError):
                finite_difference(e, p, 0, 1e-5)
            return
        grad = eval_jet(e, p, 1).grad
        for a in range(2):
            exact = grad[a]
            scale = 1.0 + abs(exact)
            approx = finite_difference(e, p, a, 1e-5)
            assert abs(exact - approx) / scale < 1e-7

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_overflow_raises_without_numpy_warnings(self, order):
        e = parse2("exp(exp(exp(2)))")
        p = np.array([1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationDomainError):
                eval_jet(e, p, order)
            with pytest.raises(EvaluationDomainError):
                eval_jets([parse2("x"), e], p, order)

    def test_second_order_convergence(self):
        # Central differences converge at order h^2: the deviation-over-h^2
        # ratio stays stable as h shrinks.
        e = parse2("exp(x*y) * sin(x + y^2)")
        p = np.array([0.7, 0.9])
        cs = []
        for h in (1e-3, 1e-4):
            exact = eval_jet(e, p, 1).grad[0]
            dev = abs(finite_difference(e, p, 0, h) - exact)
            cs.append(dev / h**2)
        assert cs[1] == pytest.approx(cs[0], rel=0.05)
