"""The run's result store is the only cache of field results: inside a
store a field asked again at a point calls its ``fn`` once, a lower order
read after a higher one is the higher one truncated, a new store calls it
again, and a call outside any run opens a
store for itself, so each field of its chain is evaluated once.  A point
error is kept by its store, which raises it again without a new call.
Results at interleaved points match fresh fields, are read-only, and
errors do not outlive their store (the evaluation count of one structure
check is in ``test_structures.py``).  A metric's entries must be symmetric
as given."""

from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import euclidean3_chart, plane_chart, sphere_embedding, swmt_structure
from semiweyl import hypersurfaces
from semiweyl.fields import MetricField, ScalarField, _Field, result_store, sample_set
from semiweyl.jets import EvaluationDomainError, Jet
from semiweyl.lightlike import LightlikeFrame
from semiweyl.sampling import halton_points
from semiweyl.specfile import load_spec
from semiweyl.structures import semi_dual_connection

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def count_orders(field):
    """Wrap the field's underlying ``fn`` so each call's order is counted."""
    calls = Counter()
    fn = field._fn

    def counted(p, order):
        calls[order] += 1
        return fn(p, order)

    field._fn = counted
    return calls


def assert_same_jets(got, want):
    """Equal value, grad and hess layers of two order-2 jets."""
    assert got.order == want.order == 2
    for a, b in zip(got.layers, want.layers):
        assert np.array_equal(a, b)


def fresh_semi_dual():
    s = swmt_structure()
    return semi_dual_connection(s.g, s.eta, s.conn)


def field_getters():
    """Named ways to build a field (or map) from a fresh structure."""
    return {
        "metric": lambda: swmt_structure().g,
        "connection": lambda: swmt_structure().conn,
        "semi_dual": fresh_semi_dual,
        "embedding": lambda: sphere_embedding(euclidean3_chart()).coords,
    }


class TestInterleaving:
    @pytest.mark.parametrize("name", sorted(field_getters()))
    def test_points_a_b_a_match_fresh_fields(self, name):
        make = field_getters()[name]
        field = make()
        a, b = halton_points(field.chart, 2)
        for p in (a, b, a):
            assert_same_jets(field.jet(p, 2), make().jet(p, 2))


class TestLowerOrders:
    """A result kept at a higher order answers every lower order of its
    field and points; a kept failure answers none."""

    def test_a_lower_order_after_a_higher_is_its_truncation(self):
        field = swmt_structure().conn
        calls = count_orders(field)
        p = halton_points(plane_chart(), 1)[0]
        with result_store():
            high = field.jet(p, 2)
            low, mid = field.jet(p, 0), field.jet(p, 1)
            assert field.jet(p.copy(), 0) is low and field.jet(p, 1) is mid
        assert calls == {2: 1}
        assert [L.tobytes() for L in low.layers] == [L.tobytes() for L in high.layers[:1]]
        assert [L.tobytes() for L in mid.layers] == [L.tobytes() for L in high.layers[:2]]
        for order, got in ((0, low), (1, mid)):
            fresh = swmt_structure().conn.jet(p, order)
            assert [L.tobytes() for L in got.layers] == [L.tobytes() for L in fresh.layers]

    def test_the_arrays_of_a_result_stay_as_they_are(self):
        # the unit normal's result is (N, eps): N a jet, eps an array
        normal = hypersurfaces.unit_normal(sphere_embedding(euclidean3_chart()), MetricField.euclidean(euclidean3_chart()))
        calls = count_orders(normal)
        pts = halton_points(normal.chart, 5)
        with result_store():
            N2, eps2 = normal.jet(pts, 2)
            N0, eps0 = normal.jet(pts, 0)
        assert calls == {2: 1} and eps0 is eps2
        assert N0.order == 0 and N0.value is N2.value

    def test_a_higher_order_after_a_lower_is_its_own_fill(self):
        field = swmt_structure().conn
        calls = count_orders(field)
        p = halton_points(plane_chart(), 1)[0]
        with result_store():
            low = field.jet(p, 0)
            high = field.jet(p, 2)
            assert field.jet(p, 0) is low and field.jet(p, 2) is high
        assert calls == {0: 1, 2: 1} and (low.order, high.order) == (0, 2)

    def test_a_kept_failure_answers_no_lower_order(self):
        # sqrt at 0 has a value but no derivative
        f = ScalarField.from_expression(plane_chart(-1.0, 1.0), "sqrt(x)")
        calls = count_orders(f)
        p = np.array([0.0, 0.5])
        with result_store():
            with pytest.raises(EvaluationDomainError, match="^sqrt of a negative value$"):
                f.jet(p, 1)
            assert f.jet(p, 0).value == 0.0
        assert calls == {1: 1, 0: 1}


class TestOneCache:
    def test_a_lone_point_calls_fn_once_per_run(self):
        field = fresh_semi_dual()
        calls = count_orders(field)
        p = halton_points(plane_chart(), 1)[0]
        with result_store():
            first = field.jet(p, 1)
            assert field.jet(p.copy(), 1) is first and calls[1] == 1
        with result_store():  # a new run
            again = field.jet(p, 1)
        assert again is not first and calls[1] == 2
        assert [L.tobytes() for L in again.layers] == [L.tobytes() for L in first.layers]

    def test_a_lone_point_keeps_its_reason(self):
        f = ScalarField.from_expression(plane_chart(-1.0, 1.0), "1 + sqrt(x)")
        calls = count_orders(f)
        p = np.array([-0.5, 0.2])
        with result_store():
            for _ in range(2):
                with pytest.raises(EvaluationDomainError, match="^sqrt of a negative value$"):
                    f.jet(p, 1)
            assert calls[1] == 1
        with result_store():  # a new run
            with pytest.raises(EvaluationDomainError, match="^sqrt of a negative value$"):
                f.jet(p, 1)
        assert calls[1] == 2

    def test_a_call_outside_any_run_evaluates_each_link_once(self):
        # the semi-dual connection and the Levi-Civita part of the connection
        # it dualizes both ask the metric at order 1
        s = swmt_structure()
        links = {"g": s.g, "eta": s.eta, "conn": s.conn}
        counts = {name: count_orders(field) for name, field in links.items()}
        field = semi_dual_connection(s.g, s.eta, s.conn)
        outer = count_orders(field)
        p = halton_points(plane_chart(), 1)[0]
        field.jet(p, 0)
        assert outer == {0: 1}
        for name, calls in counts.items():
            assert calls and max(calls.values()) == 1, (name, calls)
        field.jet(p, 0)  # its store is gone with the call
        assert outer == {0: 2}


class TestReadOnly:
    @pytest.mark.parametrize("name", sorted(field_getters()))
    def test_item_assignment_raises(self, name):
        field = field_getters()[name]()
        p = halton_points(field.chart, 1)[0]
        J = field.jet(p, 1)
        with pytest.raises(TypeError):
            J[0] = J[-1]  # a jet has no item assignment
        for layer in J.layers:
            with pytest.raises(ValueError):
                layer[0] = layer[-1]

    def test_tuple_results_are_read_only(self):
        field = _Field(plane_chart(), lambda p, order: (np.zeros(2), np.ones(3), order))
        out = field.jet(np.zeros(2), 1)
        for a in out[:2]:
            with pytest.raises(ValueError):
                a[0] = 5.0

    def test_dict_results_are_read_only(self):
        field = _Field(plane_chart(), lambda p, order: {"a": np.zeros(2), "j": Jet.constant(np.ones(2), 2, order)})
        out = field.jet(np.zeros(2), 1)
        for a in (out["a"], *out["j"].layers):
            with pytest.raises(ValueError):
                a[0] = 5.0

    def test_the_points_asked_stay_writable(self):
        # a result is made read-only in place; the points it was asked at
        # stay as they were given, at a point and on a set
        s = swmt_structure()
        fields = [ScalarField.from_expression(s.chart, "x"), s.g, semi_dual_connection(s.g, s.eta, s.conn)]
        pts = np.array(halton_points(s.chart, 4))
        p = pts[2].copy()
        with result_store():
            for field in fields:
                field.jet(p, 1)
            with sample_set(pts):
                for field in fields:
                    for q in (pts, pts[1], p):
                        field.jet(q, 1)
        assert pts.flags.writeable and p.flags.writeable

    def test_screen_data_is_read_only(self):
        # every layer was writeable when only tuples were frozen
        spec = load_spec(FIXTURES / "null_cone.spec")
        frame = LightlikeFrame(spec.lightlike_embedding, spec.structure)
        data = frame.screen_data(halton_points(spec.lightlike_embedding.domain, 1)[0], 0)
        layers = [layer for jet in data.values() for layer in jet.layers]
        assert layers and not any(layer.flags.writeable for layer in layers)


class TestErrors:
    def test_errors_are_not_cached(self):
        chart = plane_chart(-1.0, 1.0)
        f = ScalarField.from_expression(chart, "sqrt(x)")
        calls = count_orders(f)
        bad, good = np.array([-0.5, 0.2]), np.array([0.25, 0.2])
        for _ in range(2):
            with pytest.raises(EvaluationDomainError):
                f.jet(bad, 1)
        assert calls[1] == 2
        j = f.jet(good, 1)
        assert j.value == 0.5 and j.grad[0] == 1.0
        with pytest.raises(EvaluationDomainError):
            f.jet(bad, 1)
        assert calls[1] == 4


class TestMetricSymmetry:
    """``g_ij`` and ``g_ji`` are accepted when they are the same text, the
    same number or the same node, and become one shared node."""

    @pytest.mark.parametrize(
        "entries",
        [
            lambda chart: ("0.1*x*y", "0.1*x*y"),
            lambda chart: (0.5, 0.5),
            lambda chart: (chart.parse("0.1*x*y"),) * 2,
        ],
        ids=["same text", "equal numbers", "shared node"],
    )
    def test_symmetric_entries_are_accepted(self, entries):
        chart = plane_chart()
        upper, lower = entries(chart)
        g = MetricField.from_expressions(chart, [["1", upper], [lower, "x*x"]])
        assert g.expressions[0][1] is g.expressions[1][0]
        gv = g.value(halton_points(chart, 1)[0])
        assert gv[0, 1] == gv[1, 0]

    def test_a_diagonal_metric_is_accepted(self):
        chart = euclidean3_chart()
        g = MetricField.from_diagonal(chart, ["1", "2", "x*x + 1"])
        off = {id(g.expressions[i][j]) for i in range(3) for j in range(3) if i != j}
        assert len(off) == 1
        assert np.array_equal(g.value(np.zeros(3)), np.diag([1.0, 2.0, 1.0]))

    @pytest.mark.parametrize(
        "entries",
        [
            lambda chart: ("0.1*x*y", "0.1*y*x"),
            lambda chart: ("x", "y"),
            lambda chart: (0.5, 0.25),
            lambda chart: (chart.parse("x"), chart.parse("x")),
        ],
        ids=["different text", "different names", "different numbers", "two nodes"],
    )
    def test_different_entries_are_rejected(self, entries):
        chart = plane_chart()
        upper, lower = entries(chart)
        with pytest.raises(ValueError, match=r"metric components \(0,1\) and \(1,0\) differ"):
            MetricField.from_expressions(chart, [["1", upper], [lower, "1"]])
