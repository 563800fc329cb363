"""Taylor consistency of every field the fixture specs build.

Layer ``k + 1`` of a jet is the derivative of layer ``k``.  So for each
field, central differences (step ``H``) of the top layer of its order-``k``
jet must match the layer ``k + 1`` of its order-``k + 1`` jet, at points
drawn by hypothesis inside the chart box.  The oracle needs no sympy and
shares no derivative rule with the engine: a wrong term in a product,
chain-rule, composition or solve layer shows up at O(1), far above the
O(h^2) truncation error.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, assume, given, settings
from hypothesis import strategies as st

from semiweyl.affine import realized_structure, xi_rescaled
from semiweyl.conformal import transform
from semiweyl.expressions import eval_jet, parse_expression
from semiweyl.hypersurfaces import induced_structure
from semiweyl.jets import Jet
from semiweyl.lightlike import LightlikeFrame
from semiweyl.specfile import load_spec
from semiweyl.structures import semi_dual_connection

FIXTURES = sorted((Path(__file__).resolve().parents[1] / "fixtures").glob("*.spec"))
H = 1e-4
ORDERS = (0, 1, 2, 3)  # k: the order-k jet is differenced against layer k + 1
TOL = 2e-6  # relative to 1 + max |layer k + 1|


def _structure_fields(prefix, s):
    return [(f"{prefix}.g", s.g.jet), (f"{prefix}.eta", s.eta.jet), (f"{prefix}.conn", s.conn.jet)]


def _screen_fields(prefix, frame):
    keys = ("gram", "nabla_bar", "alpha", "beta")
    out = [(f"{prefix}.transversal", lambda p, order: frame.transversal(p, order)[0])]
    out += [(f"{prefix}.screen.{key}", lambda p, order, key=key: frame.screen_data(p, order)[key]) for key in keys]
    return out


def spec_fields(spec):
    """``(chart, [(label, fn(p, order) -> Jet), ...])`` per chart of the
    spec: the structure, its semi-dual and transformed connections, and the
    induced, screen, transversal and realized fields."""
    charts = []
    s = spec.structure
    if s is not None:
        fields = _structure_fields("structure", s)
        fields.append(("semi_dual.conn", semi_dual_connection(s.g, s.eta, s.conn).jet))
        if spec.transform is not None:
            st_ = transform(s, spec.transform)
            fields += [("transformed.g", st_.g.jet), ("transformed.conn", st_.conn.jet)]
        charts.append((spec.chart, fields))
        if spec.embedding is not None:
            charts.append((spec.embedding.domain, _structure_fields("induced", induced_structure(spec.embedding, s))))
        if spec.lightlike_embedding is not None:
            charts.append((spec.lightlike_embedding.domain, _screen_fields("lightlike", LightlikeFrame(spec.lightlike_embedding, s))))
    if spec.affine is not None:
        dist = spec.affine
        realized, B_fn = realized_structure(dist)
        fields = _structure_fields("realized", realized) + [("realized.B", B_fn)]
        if spec.affine_psi is not None:
            for variant in ("inner", "outer"):
                rescaled, B_t = realized_structure(xi_rescaled(dist, spec.affine_psi, variant))
                fields += _structure_fields(f"rescaled_{variant}", rescaled) + [(f"rescaled_{variant}.B", B_t)]
        charts.append((dist.chart, fields))
    return charts


def _points(chart):
    """Points of the chart box, kept ``H`` plus 5 % of each side away from
    its faces."""
    coords = []
    for lo, hi in zip(chart.lo, chart.hi):
        margin = H + 0.05 * (hi - lo)
        coords.append(st.floats(lo + margin, hi - margin))
    return st.tuples(*coords).map(np.array)


def taylor_defects(fn, p, k):
    """Largest relative gap between central differences of layer ``k`` of
    the order-``k`` jet and layer ``k + 1`` of the order-``k + 1`` jet."""
    top = fn(p, k + 1).layers[k + 1]
    worst = 0.0
    for a in range(len(p)):
        step = np.zeros(len(p))
        step[a] = H
        fd = (fn(p + step, k).layers[k] - fn(p - step, k).layers[k]) / (2.0 * H)
        worst = max(worst, float(np.max(np.abs(fd - top[..., a]))) / (1.0 + float(np.max(np.abs(top)))))
    return worst


def _evaluable(fields, p):
    try:
        for _, fn in fields:
            fn(p, 0)
    except ArithmeticError:
        return False
    return True


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_jet_layers_are_derivatives_of_the_layer_below(path):
    for chart, fields in spec_fields(load_spec(path)):

        # one point per chart keeps the test near 8 s; a failure names its
        # point, and is not shrunk (each evaluation takes up to a second)
        @settings(
            max_examples=1,
            deadline=None,
            database=None,
            phases=(Phase.generate,),
            suppress_health_check=[HealthCheck.filter_too_much],
        )
        @given(_points(chart))
        def check(p):
            assume(_evaluable(fields, p))
            for label, fn in fields:
                for k in ORDERS:
                    defect = taylor_defects(fn, p, k)
                    assert defect <= TOL, f"{label} at k={k}, p={p}: {defect:.3e}"

        check()


def test_the_oracle_sees_a_wrong_layer():
    # a jet whose second layer is off by a constant fails at k = 1
    e = parse_expression("sin(x)*exp(y)", ("x", "y"))

    def wrong(p, order):
        J = eval_jet(e, p, order)
        return Jet(J.n, J.layers[:2] + [L + 0.01 for L in J.layers[2:]])

    p = np.array([0.4, 0.7])
    assert taylor_defects(lambda q, order: eval_jet(e, q, order), p, 1) <= TOL
    assert taylor_defects(wrong, p, 1) > 1e-3
