"""Fields remember their jets at the most recent point: interleaved points,
separate orders, read-only results and uncached errors (the evaluation
count of one structure check is in ``test_structures.py``)."""

from collections import Counter

import numpy as np
import pytest

from conftest import euclidean3_chart, plane_chart, sphere_embedding, swmt_structure
from semiweyl.fields import ScalarField, _Field
from semiweyl.jets import EvaluationDomainError
from semiweyl.sampling import halton_points
from semiweyl.structures import semi_dual_connection


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
        "embedding": lambda: sphere_embedding(euclidean3_chart()),
    }


class TestInterleaving:
    @pytest.mark.parametrize("name", sorted(field_getters()))
    def test_points_a_b_a_match_fresh_fields(self, name):
        make = field_getters()[name]
        field = make()
        a, b = halton_points(field.domain if name == "embedding" else field.chart, 2)
        for p in (a, b, a):
            assert_same_jets(field.jet(p, 2), make().jet(p, 2))

    def test_orders_are_kept_apart_at_one_point(self):
        field = swmt_structure().conn
        p = halton_points(plane_chart(), 1)[0]
        high = field.jet(p, 2)
        low = field.jet(p, 0)
        assert field.jet(p.copy(), 2) is high and field.jet(p, 0) is low
        assert low.order == 0 and high.order == 2


class TestReadOnly:
    @pytest.mark.parametrize("name", sorted(field_getters()))
    def test_item_assignment_raises(self, name):
        field = field_getters()[name]()
        p = halton_points(field.domain if name == "embedding" else field.chart, 1)[0]
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
