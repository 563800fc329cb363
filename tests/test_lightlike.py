from pathlib import Path

import numpy as np
import pytest

from conftest import count_field_calls, half_null_plane, minkowski_structure, null_cone_embedding, potentials, rows_alone
from semiweyl import lightlike
from semiweyl.fields import Chart, DegeneratePointError, result_store, sample_set
from semiweyl.jets import EvaluationDomainError, Jet
from semiweyl.hypersurfaces import (
    EmbeddingMap,
    check_beta_symmetry,
    check_duality_pairing,
    check_umbilic_preservation,
)
from semiweyl.lightlike import (
    LightlikeFrame,
    check_radical_quality,
    check_screen_cp_equivalence,
    check_screen_integrability,
    check_screen_structure,
    check_transversal_conditions,
)
from semiweyl.report import run_spec
from semiweyl.sampling import halton_points
from semiweyl.specfile import load_spec
from semiweyl.verdicts import RunConfig

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def cone_frame(eta_comps=None):
    s = minkowski_structure(3, eta_comps)
    return LightlikeFrame(null_cone_embedding(s.chart), s), s


def cone4_frame():
    s = minkowski_structure(4)
    dom = Chart(("u", "v", "w"), (0.5, 0.3, 0.3), (1.5, 1.2, 1.2))
    emb = EmbeddingMap(dom, s.chart, ["u", "u*cos(v)", "u*sin(v)*cos(w)", "u*sin(v)*sin(w)"])
    return LightlikeFrame(emb, s), s


def hyperplane_frame():
    s = minkowski_structure(3)
    dom = Chart(("u", "v"), (0.3, 0.3), (1.4, 1.4))
    emb = EmbeddingMap(dom, s.chart, ["u", "u", "v"])
    return LightlikeFrame(emb, s), s


def skew_frame():
    """The 4-D cone with the screen {d_v, d_w + 0.3 v d_v}: its bracket
    0.3 d_v stays in the screen, so the screen is integrable."""
    from semiweyl.fields import VectorField

    frame, s = cone4_frame()
    dom = frame.emb.domain
    fields = (
        VectorField.from_expressions(dom, ["0", "1", "0"]),
        VectorField.from_expressions(dom, ["0", "0.3*v", "1"]),
    )
    return LightlikeFrame(frame.emb, s, screen=fields), s


def ambient_transform(chart):
    names = chart.coord_names
    return potentials(chart, f"0.2*{names[0]} + 0.1*{names[2]}", f"0.1*{names[1]} + 0.05*{names[2]}")


class TestRadicalAndTransversal:
    def test_radical_spans_kernel_on_cone(self, config):
        frame, _s = cone_frame()
        out = check_radical_quality(frame, config)
        assert all(v.passed for v in out)

    def test_radical_on_cone_is_ruling_direction(self):
        frame, _s = cone_frame()
        for p in halton_points(frame.emb.domain, 10):
            xi, gp, dF, Gc = frame.radical(p, 0)
            xi_v = xi.value
            xi_v = xi_v / xi_v[0]
            # the kernel of the cone metric is the radial ruling d_u
            assert np.allclose(xi_v, [1.0, 0.0], atol=1e-10)

    def test_transversal_three_conditions(self, config):
        for frame, _s in (cone_frame(), cone4_frame(), hyperplane_frame()):
            out = check_transversal_conditions(frame, config)
            assert all(v.passed for v in out)

    @pytest.mark.parametrize("name", ["minkowski_null_hyperplane", "null_cone"])
    def test_the_transversal_solves_no_point_alone(self, monkeypatch, name):
        # its system closes with the row xi_amb . U = 0, not with a component
        # pinned by a solve at the domain centre
        shapes = []
        jet_solve = lightlike.jet_solve

        def recording(A, b):
            shapes.append(A.value.shape)
            return jet_solve(A, b)

        monkeypatch.setattr(lightlike, "jet_solve", recording)
        spec = load_spec(FIXTURES / f"{name}.spec")
        assert run_spec(spec).all_expectations_met
        assert shapes and {shape[0] for shape in shapes} == {spec.config.samples}

    def test_degenerate_everywhere(self):
        frame, s = cone_frame()
        emb = frame.emb
        for p in halton_points(emb.domain, 10):
            _xi, gp, _dF, _Gc = frame.radical(p, 0)
            assert abs(np.linalg.det(gp.value)) < 1e-12


class TestScreen:
    def test_default_screen_is_integrable(self, config):
        frame, _s = cone4_frame()
        out = check_screen_integrability(frame, config)
        assert all(v.passed for v in out)

    def test_non_involutive_screen_fails(self, config):
        # screen {d_v, d_w + v d_u}: the bracket is d_u, the radical
        # direction, which integrability of the screen does not allow
        from semiweyl.fields import VectorField

        frame, s = cone4_frame()
        dom = frame.emb.domain
        bad_fields = (
            VectorField.from_expressions(dom, ["0", "1", "0"]),
            VectorField.from_expressions(dom, ["v", "0", "1"]),
        )
        bad = LightlikeFrame(frame.emb, s, screen=bad_fields)
        out = check_screen_integrability(bad, config)
        assert any((not v.passed) and v.max_residual > 1e-2 for v in out)

    def test_screen_checks_pass_on_a_non_coordinate_screen(self, config):
        # the bracket of the skew screen enters the screen torsion
        skew, s = skew_frame()
        p = halton_points(skew.emb.domain, 1)[0]
        assert np.allclose(skew.screen_data(p, 0)["bracket"].value[0, 1], [0.0, 0.3, 0.0])
        out = (
            check_screen_integrability(skew, config)
            + check_screen_structure(skew, config)
            + check_screen_cp_equivalence(skew, ambient_transform(s.chart), config)
        )
        assert all(v.passed for v in out)

    def test_bracket_coefficients_of_a_set_are_those_of_its_points(self):
        # the bracket 0.6 v d_v of this screen varies from point to point
        from semiweyl.fields import VectorField
        from semiweyl.lightlike import _bracket_coefficients

        frame, s = cone4_frame()
        dom = frame.emb.domain
        fields = (
            VectorField.from_expressions(dom, ["0", "1", "0"]),
            VectorField.from_expressions(dom, ["0", "0.3*v*v", "1"]),
        )
        skew = LightlikeFrame(frame.emb, s, screen=fields)
        pts = halton_points(dom, 7)
        coeff, err = _bracket_coefficients(skew.screen_data(pts, 0))
        assert coeff.shape == (7, 3, 2, 2) and err.shape == (7,)
        for row, p in enumerate(pts):
            c, e = _bracket_coefficients(skew.screen_data(p, 0))
            assert coeff[row].tobytes() == c.tobytes() and err[row] == e
        assert np.allclose(coeff[:, 0, 0, 1], 0.6 * pts[:, 1])

    def test_a_singular_frame_skips_only_its_row(self):
        # a screen field that vanishes at one point of a set makes the frame
        # W_1, W_2, xi singular there: the fit raises for the set, and a law
        # that fits keeps a reason for that row alone
        from semiweyl.lightlike import _bracket_coefficients
        from semiweyl.verdicts import _outcomes

        frame, _s = cone4_frame()
        pts = halton_points(frame.emb.domain, 7)
        data = {key: np.array(frame.screen_data(pts, 0)[key].value) for key in ("Wdom", "xi", "bracket")}
        data["Wdom"][3, 1] = 0.0

        def at(p):
            rows = slice(None) if p.ndim == 2 else int(np.flatnonzero((pts == p).all(axis=-1))[0])
            return {key: Jet.constant(value[rows], 3, 0) for key, value in data.items()}

        with pytest.raises(EvaluationDomainError, match="singular screen frame") as raised:
            _bracket_coefficients(at(pts))
        assert raised.value.rows == rows_alone(lambda p: _bracket_coefficients(at(p)), pts)
        _res, _scale, reason = _outcomes(lambda p: (_bracket_coefficients(at(p))[1], 1.0), pts)
        assert list(reason) == [""] * 3 + ["singular screen frame"] + [""] * 3

    def test_a_screen_has_one_field_fewer_than_the_domain_dimension(self):
        from semiweyl.fields import VectorField

        frame, s = cone4_frame()
        one = (VectorField.from_expressions(frame.emb.domain, ["0", "1", "0"]),)
        with pytest.raises(ValueError, match="a screen has 2 fields, got 1"):
            LightlikeFrame(frame.emb, s, screen=one)

    def test_screen_structure_is_swmt(self, config):
        frame, _s = cone4_frame()
        out = check_screen_structure(frame, config)
        assert all(v.passed for v in out)

    def test_screen_cp_equivalence(self, config):
        frame, s = cone4_frame()
        out = check_screen_cp_equivalence(frame, ambient_transform(s.chart), config)
        assert all(v.passed for v in out)


def fixture_frame(name):
    spec = load_spec(FIXTURES / f"{name}.spec")
    return LightlikeFrame(spec.lightlike_embedding, spec.structure)


FRAMES = {
    "hyperplane": lambda: fixture_frame("minkowski_null_hyperplane"),
    "null_cone": lambda: fixture_frame("null_cone"),
    "skew_screen": lambda: skew_frame()[0],
}


class TestScreenDataOrders:
    """``screen_data(p, k)`` holds what the transversal solve gives at
    order ``k + 1`` and the screen connection at order ``k``, so order 0
    holds the first derivatives of the Gram matrix that
    ``check_screen_structure`` reads."""

    # the jet order of each key at k = 0
    ORDERS = {
        "gram": 1, "N": 1, "xi": 1, "Wdom": 1, "gp": 1, "Gc": 1, "xi_amb": 1, "W_amb": 1,
        "nabla_bar": 0, "alpha": 0, "beta": 0, "bracket": 0,
    }

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("name", FRAMES)
    def test_the_order_of_each_key(self, name, k):
        frame = FRAMES[name]()
        for p in (halton_points(frame.emb.domain, 5), frame.emb.domain.center()):
            data = frame.screen_data(p, k)
            assert {key: jet.order for key, jet in data.items()} == {key: k + r for key, r in self.ORDERS.items()}

    @pytest.mark.parametrize("name", FRAMES)
    def test_order_0_holds_the_gram_layers_of_order_1(self, name):
        # each call outside a run has a store of its own, so the two orders
        # are built apart, on the set and at each of its points alone
        frame = FRAMES[name]()
        pts = halton_points(frame.emb.domain, 7)
        for p in (pts, *pts):
            low = frame.screen_data(p, 0)["gram"].layers
            high = frame.screen_data(p, 1)["gram"].layers
            assert len(low) == 2 and all(a.tobytes() == b.tobytes() for a, b in zip(low, high))

    @pytest.mark.parametrize("name", ["minkowski_null_hyperplane", "null_cone"])
    def test_no_check_builds_screen_data_above_order_0(self, monkeypatch, name):
        calls = []
        count_field_calls(monkeypatch, lightlike, "_screen_data", calls)
        assert run_spec(load_spec(FIXTURES / f"{name}.spec")).all_expectations_met
        # screen_structure asked order 1 before, for the Gram matrix's grad
        assert calls and {order for _, order in calls} == {0}

    def test_a_structure_and_its_semi_dual_share_the_transversal(self):
        from semiweyl.structures import semi_dual

        pts = halton_points(fixture_frame("null_cone").emb.domain, 5)
        # a run's frames share it: the coordinate screen is one per run
        with result_store(), sample_set(pts):
            frame = fixture_frame("null_cone")
            dual = frame.with_structure(semi_dual(frame.s))
            assert dual.transversal(pts, 1) is frame.transversal(pts, 1)
            assert dual.screen_data(pts, 0) is not frame.screen_data(pts, 0)


class TestFundamentalData:
    def test_beta_symmetry(self, config):
        for frame, _s in (cone_frame(), cone4_frame()):
            out = check_beta_symmetry(frame, config)
            assert all(v.passed for v in out)

    def test_duality_pairing(self, config):
        frame, _s = cone4_frame()
        out = check_duality_pairing(frame, config)
        assert all(v.passed for v in out)

    def test_umbilic_preservation(self, config):
        frame, s = cone_frame()
        out = check_umbilic_preservation(frame, ambient_transform(s.chart), config)
        assert all(v.passed for v in out)

    def test_umbilic_preservation_4d(self, config):
        frame, s = cone4_frame()
        out = check_umbilic_preservation(frame, ambient_transform(s.chart), config)
        assert all(v.passed for v in out)


def test_a_corank_that_is_not_one_names_its_rows():
    s, emb = half_null_plane()
    frame = LightlikeFrame(emb, s)
    pts = halton_points(emb.domain, 12)
    with pytest.raises(DegeneratePointError, match="^induced metric does not have corank one$") as raised:
        frame.radical(pts, 0)
    rows = rows_alone(lambda p: frame.radical(p, 0), pts)
    assert raised.value.rows == rows and any(rows) and not all(rows)
