"""Taylor consistency of every field the fixture specs build, as ``semiweyl
oracle`` checks it (``semiweyl.cli.taylor_oracle``): layer ``k + 1`` of a
jet is the derivative of layer ``k``, so a wrong term in a product,
chain-rule, composition or solve layer shows up at O(1), far above the
O(h^2) truncation error of central differences."""

from pathlib import Path

import numpy as np
import pytest

from semiweyl import hypersurfaces
from semiweyl.cli import BOUND, H, main, taylor_defects, taylor_oracle
from semiweyl.expressions import eval_jet, parse_expression
from semiweyl.jets import Jet, PointError
from semiweyl.specfile import load_spec

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = sorted((ROOT / "fixtures").glob("*.spec"))

# the fields the oracle compares, by the spec block that brings them
LABELS = {
    "structure": ["structure.g", "structure.eta", "structure.conn", "semi_dual.conn"],
    "transform": ["transformed.g", "transformed.conn", "phi", "psi"],
    "submanifold": ["embedding.coords", "induced.g", "induced.eta", "induced.conn", "hypersurface.normal",
                    "hypersurface.second_fundamental_form", "hypersurface.weingarten"],
    "lightlike": ["lightlike.transversal", "lightlike.screen_data"],
    "affine": ["realized.g", "realized.eta", "realized.conn", "realized.B"],
    "affine_psi": [f"rescaled_{v}.{key}" for v in ("inner", "outer") for key in ("g", "eta", "conn", "B")],
}


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_jet_layers_are_derivatives_of_the_layer_below(path):
    spec = load_spec(path)
    rows = taylor_oracle(spec, 50)
    assert sorted(label for label, *_ in rows) == sorted(
        label for block, labels in LABELS.items() if block in spec.blocks for label in labels
    )
    for label, pts, defects, failing in rows:
        # every point of every fixture is compared at k = 0..3, and each is
        # within the bound at H: none needs the H/2 rule
        assert defects.shape == (4, 50) and not np.isnan(defects).any(), label
        assert defects.max() <= BOUND and not failing.any(), f"{label}: {defects.max():.3e}"


def test_the_oracle_sees_a_wrong_layer():
    # a jet whose second layer is off by a constant fails at k = 1
    e = parse_expression("sin(x)*exp(y)", ("x", "y"))

    def wrong(p, order):
        J = eval_jet(e, p, order)
        return Jet(J.n, J.layers[:2] + [L + 0.01 for L in J.layers[2:]])

    pts = np.array([[0.4, 0.7], [0.9, 0.3]])
    assert (taylor_defects(lambda q, order: eval_jet(e, q, order), pts, 1, H) <= BOUND).all()
    assert (taylor_defects(wrong, pts, 1, H) > 1e-3).all()


@pytest.mark.parametrize("layer", [1, 2, 3, 4])
def test_a_wrong_layer_shows_only_at_the_k_below_it(layer):
    # a constant off in one layer is the derivative of nothing below it, and
    # its own differences cancel it, so of k = 0..3 only k = layer - 1 fails
    e = parse_expression("sin(x)*exp(y)", ("x", "y"))

    def wrong(p, order):
        J = eval_jet(e, p, order)
        return Jet(J.n, [L + 0.01 if i == layer else L for i, L in enumerate(J.layers)])

    pts = np.array([[0.4, 0.7], [0.9, 0.3], [0.6, 0.5]])
    defects = np.array([taylor_defects(wrong, pts, k, H) for k in range(4)])
    assert (defects[layer - 1] > 1e-3).all()
    assert (np.delete(defects, layer - 1, axis=0) <= BOUND).all()


def test_a_point_error_leaves_out_the_rows_it_names():
    # sqrt is outside its domain at the two points with x < 0 only
    e = parse_expression("sqrt(x)*y", ("x", "y"))
    pts = np.array([[0.4, 0.7], [-0.5, 0.3], [0.9, 0.5], [-0.2, 0.6]])
    defects = taylor_defects(lambda q, order: eval_jet(e, q, order), pts, 1, H)
    assert np.isnan(defects).tolist() == [False, True, False, True]
    assert (defects[[0, 2]] <= BOUND).all()


def test_a_point_error_that_names_no_row_leaves_out_the_set():
    def fails(p, order):
        raise PointError("no row named", None)

    assert np.isnan(taylor_defects(fails, np.array([[0.4, 0.7], [0.9, 0.3]]), 0, H)).all()


def test_each_jet_of_a_tuple_or_dict_result_is_compared():
    # a result holds jets and arrays; the arrays are not compared, and the
    # worst jet gives the defect
    e = parse_expression("x*x*y", ("x", "y"))

    def bundle(p, order):
        J = eval_jet(e, p, order)
        off = Jet(J.n, J.layers[:1] + [L + 0.01 for L in J.layers[1:]])
        return {"right": J, "note": np.zeros(len(p)), "wrong": off}

    pts = np.array([[0.4, 0.7], [0.9, 0.3]])
    assert (taylor_defects(bundle, pts, 0, H) > 1e-3).all()
    assert (taylor_defects(lambda q, order: (eval_jet(e, q, order), np.ones(len(q))), pts, 0, H) <= BOUND).all()


def test_a_wrong_pullback_layer_fails_the_induced_fields(monkeypatch, capsys):
    # layer 2 of every pullback off by 0.01: the fields built on the
    # embedding fail, and those of the ambient structure do not
    compose = hypersurfaces.jet_compose

    def wrong(*args):
        J = compose(*args)
        return Jet(J.n, [L + 0.01 if i == 2 else L for i, L in enumerate(J.layers)])

    monkeypatch.setattr(hypersurfaces, "jet_compose", wrong)
    assert main(["oracle", str(ROOT / "fixtures" / "sphere_hypersurface.spec")]) == 1
    *lines, last = capsys.readouterr().out.splitlines()
    failing = {line.split(":")[0] for line in lines if line.endswith(": FAILS")}
    assert {"induced.g", "induced.eta", "induced.conn", "hypersurface.weingarten"} <= failing
    assert not {"structure.g", "structure.conn", "transformed.conn", "embedding.coords"} & failing
    assert last.endswith("oracle DISAGREES")


def test_points_outside_the_domain_are_left_out(capsys):
    # sqrt(x) in the metric: the 17 of 50 points with x < 0 are left out of
    # every field built on it; near x = 0, where the derivatives of sqrt
    # grow, the truncation error exceeds the bound at H and falls 4x at H/2
    assert main(["oracle", str(ROOT / "perfbench" / "specs" / "domain_edge.spec")]) == 0
    lines = {line.split(": ", 1)[0]: line.split(": ", 1)[1] for line in capsys.readouterr().out.splitlines()}
    assert lines["structure.g"].startswith("33 points, 17 left out,")
    assert lines["structure.g"].endswith(", 6 over the bound at H, 0 not 3x lower at H/2")
    assert lines["structure.eta"].startswith("50 points, 0 left out,")
    assert lines["k = 0..3, H = 0.0001, bound 2e-06"] == "oracle agrees"
