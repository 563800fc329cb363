import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import central_difference
from semiweyl.expressions import (
    ExpressionSyntaxError,
    UnknownSymbolError,
    eval_jet,
    eval_jets,
    parse_expression,
)
from semiweyl.jets import EvaluationDomainError, Jet


def parse2(text):
    return parse_expression(text, ("x", "y"))


class TestParsing:
    def test_arithmetic_and_precedence(self):
        e = parse2("1 + 2*x^2 - y/4")
        assert eval_jet(e, (3.0, 8.0), 0).value == pytest.approx(1 + 18 - 2)

    def test_functions_and_nesting(self):
        e = parse2("exp(sin(x) + log(y)) * sqrt(y)")
        x, y = 0.7, 2.0
        assert eval_jet(e, (x, y), 0).value == pytest.approx(math.exp(math.sin(x) + math.log(y)) * math.sqrt(y))

    def test_unary_minus(self):
        e = parse2("-x + -(y*2)")
        assert eval_jet(e, (1.0, 3.0), 0).value == pytest.approx(-7.0)

    def test_syntax_error(self):
        with pytest.raises(ExpressionSyntaxError):
            parse2("x + * y")

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbolError):
            parse2("x + zeta")

    def test_unbalanced_parens(self):
        with pytest.raises(ExpressionSyntaxError):
            parse2("sin(x")

    @pytest.mark.parametrize(
        "text, kind, message, position",
        [
            ("x + * y", ExpressionSyntaxError, "unexpected token '*'", 4),
            ("sin(x", ExpressionSyntaxError, "expected ')'", 5),
            ("(x", ExpressionSyntaxError, "expected ')'", 2),
            (")", ExpressionSyntaxError, "unexpected token ')'", 0),
            ("x ^ 1.5", ExpressionSyntaxError, "integer exponent expected", 4),
            ("x^1e2", ExpressionSyntaxError, "integer exponent expected", 2),
            ("x^(y)", ExpressionSyntaxError, "integer exponent expected", 3),
            ("x^", ExpressionSyntaxError, "integer exponent expected", 2),
            ("x^-", ExpressionSyntaxError, "integer exponent expected", 3),
            ("x^(-", ExpressionSyntaxError, "integer exponent expected", 4),
            ("x^(--2)", ExpressionSyntaxError, "integer exponent expected", 4),
            ("x^(2", ExpressionSyntaxError, "expected ')'", 4),
            ("x^-(2", ExpressionSyntaxError, "expected ')'", 5),
            ("x^(2)(", ExpressionSyntaxError, "unexpected token '('", 5),
            ("2 $ x", ExpressionSyntaxError, "unexpected character '$'", 2),
            ("", ExpressionSyntaxError, "unexpected end of input", 0),
            ("x y", ExpressionSyntaxError, "unexpected token 'y'", 2),
            ("x + zeta", UnknownSymbolError, "unknown symbol 'zeta'", 4),
            ("foo(x)", UnknownSymbolError, "unknown symbol 'foo'", 0),
        ],
    )
    def test_malformed_input_message_and_offset(self, text, kind, message, position):
        with pytest.raises(kind) as caught:
            parse2(text)
        assert type(caught.value) is kind
        assert str(caught.value) == f"{message} (at offset {position})"
        if kind is ExpressionSyntaxError:
            assert caught.value.position == position

    @pytest.mark.parametrize(
        "text, k",
        [("x^2", 2), ("x^-2", -2), ("x^(2)", 2), ("x^(-2)", -2), ("x^-(2)", -2), ("x^-(-2)", 2)],
    )
    def test_exponent_spellings(self, text, k):
        x = 1.5
        j = eval_jet(parse2(text), (x, 0.5), 1)
        assert j.value == pytest.approx(x**k, rel=1e-15)
        assert np.allclose(j.grad, [k * x ** (k - 1), 0.0], rtol=1e-15, atol=0.0)


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


class TestConstants:
    """A number's jet is the float itself; an operation on numbers alone
    evaluates them as constant jets, to their value with zero derivatives,
    or raises at each evaluation."""

    POINTS = [(0.3, 0.4), np.array([[0.3, 0.4], [0.5, 0.6], [0.7, 0.2]])]

    @pytest.mark.parametrize(
        "text,jet",
        [("0 - 1", lambda: Jet.constant(0.0, 2, 3) - Jet.constant(1.0, 2, 3)), ("sin(2)", lambda: Jet.constant(2.0, 2, 3).sin())],
        ids=["difference", "sine"],
    )
    def test_a_constant_evaluates_to_its_constant_jet(self, text, jet):
        e, want = parse2(text), jet()
        alone = eval_jet(e, self.POINTS[0], 3)
        assert np.float64(alone.value).tobytes() == np.float64(want.value).tobytes()
        assert all(np.array_equal(L, W) for L, W in zip(alone.layers, want.layers, strict=True))
        on_set = eval_jets([e], self.POINTS[1], 3)
        assert np.all(on_set.value == want.value) and not any(L.any() for L in on_set.layers[1:])

    @pytest.mark.parametrize(
        "text,message", [("1/0", "division by zero"), ("sqrt(0-1)", "sqrt of a negative value")], ids=["quotient", "root"]
    )
    def test_a_constant_that_raises_raises_each_time(self, text, message):
        e = parse2(text)
        for p in self.POINTS * 2:
            for order in (0, 2):
                with pytest.raises(EvaluationDomainError, match=f"^{message}$"):
                    eval_jets([e], p, order)

    def test_a_constant_that_raises_above_order_zero_raises_there(self):
        # the root of zero has no first derivative
        e = parse2("sqrt(0) + x")
        assert eval_jet(e, self.POINTS[0], 0).value == 0.3
        with pytest.raises(EvaluationDomainError, match="^sqrt of a negative value$"):
            eval_jet(e, self.POINTS[0], 1)


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
    @example("sin(exp(exp(x)))", 1.1, 1.1)  # one central difference: off by 1.0e-7
    def test_symbolic_matches_central_difference(self, text, x, y):
        e = parse2(text)
        p = np.array([x, y])
        if not np.isfinite(_plain_value(text, x, y)):
            # an overflowing draw is outside the domain: both evaluations
            # raise instead of returning inf or nan
            with pytest.raises(EvaluationDomainError):
                eval_jet(e, p, 1)
            with pytest.raises(EvaluationDomainError):
                central_difference(e, p, 0, 1e-5)
            return
        grad = eval_jet(e, p, 1).grad
        for a in range(2):
            exact = grad[a]
            scale = 1.0 + abs(exact)
            # Richardson extrapolation cancels the h^2 term of the truncation
            # error, which alone exceeds the bound on steep draws
            approx = (4.0 * central_difference(e, p, a, 0.5e-5) - central_difference(e, p, a, 1e-5)) / 3.0
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
            dev = abs(central_difference(e, p, 0, h) - exact)
            cs.append(dev / h**2)
        assert cs[1] == pytest.approx(cs[0], rel=0.05)
