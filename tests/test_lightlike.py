import numpy as np
import pytest

from conftest import minkowski_structure, null_cone_embedding
from semiweyl.conformal import TransformData
from semiweyl.fields import Chart
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
from semiweyl.sampling import halton_points
from semiweyl.verdicts import RunConfig


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


def ambient_transform(chart):
    names = chart.coord_names
    return TransformData(chart, f"0.2*{names[0]} + 0.1*{names[2]}", f"0.1*{names[1]} + 0.05*{names[2]}")


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
        # screen {d_v, d_w + 0.3 v d_v}: its bracket 0.3 d_v stays in the
        # screen, so the screen is integrable, and the bracket enters the
        # screen torsion
        from semiweyl.fields import VectorField

        frame, s = cone4_frame()
        dom = frame.emb.domain
        fields = (
            VectorField.from_expressions(dom, ["0", "1", "0"]),
            VectorField.from_expressions(dom, ["0", "0.3*v", "1"]),
        )
        skew = LightlikeFrame(frame.emb, s, screen=fields)
        p = halton_points(dom, 1)[0]
        assert np.allclose(skew.screen_data(p, 0)["bracket"].value[0, 1], [0.0, 0.3, 0.0])
        out = (
            check_screen_integrability(skew, config)
            + check_screen_structure(skew, config)
            + check_screen_cp_equivalence(skew, ambient_transform(s.chart), config)
        )
        assert all(v.passed for v in out)

    def test_screen_structure_is_swmt(self, config):
        frame, _s = cone4_frame()
        out = check_screen_structure(frame, config)
        assert all(v.passed for v in out)

    def test_screen_cp_equivalence(self, config):
        frame, s = cone4_frame()
        out = check_screen_cp_equivalence(frame, ambient_transform(s.chart), config)
        assert all(v.passed for v in out)


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
