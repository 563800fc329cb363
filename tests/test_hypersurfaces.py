import numpy as np
import pytest

from conftest import ambient_swmt_3d, euclidean3_chart, minkowski_structure, sphere_embedding
from semiweyl import hypersurfaces
from semiweyl.conformal import TransformData
from semiweyl.fields import (
    Chart,
    ConnectionField,
    MetricField,
    OneFormField,
    ScalarField,
)
from semiweyl.hypersurfaces import (
    EmbeddingMap,
    HypersurfaceFrame,
    check_beta_symmetry,
    check_duality_pairing,
    check_flat_dual_hypersurface,
    check_gauss_equation,
    check_induced_cp_equivalence,
    check_induced_duality_commutes,
    check_induced_structure,
    check_umbilic_preservation,
    induced_structure,
    umbilic_deviation,
)
from semiweyl.sampling import halton_points
from semiweyl.structures import Structure
from semiweyl.tensor import curvature_values, scalar_curvature
from semiweyl.verdicts import RunConfig


def flat_euclidean_3d():
    chart = euclidean3_chart()
    g = MetricField.euclidean(chart)
    eta = OneFormField.from_expressions(chart, ["0", "0", "0"])
    return Structure(chart, g, eta, ConnectionField.flat(chart))


def circle_in_plane():
    amb = Chart(("x", "y"), (-1.5, -1.5), (1.5, 1.5))
    dom = Chart(("theta",), (0.3,), (2.5,))
    return EmbeddingMap(dom, amb, ["cos(theta)", "sin(theta)"]), amb


def cylinder_embedding(ambient_chart):
    dom = Chart(("u", "v"), (0.3, -1.0), (2.5, 1.0))
    return EmbeddingMap(dom, ambient_chart, ["cos(u)", "sin(u)", "v"])


def ambient_transform(chart):
    return TransformData(chart, "0.2*x + 0.1*y", "0.1*z + 0.05*x*y")


def spacelike_hyperboloid(ambient_chart):
    """The unit hyperboloid ``t = sqrt(1 + x^2 + y^2)`` of 3-D Minkowski
    space: a spacelike, umbilic hypersurface whose unit normal is timelike."""
    dom = Chart(("u", "v"), (-0.8, -0.8), (0.8, 0.8))
    return EmbeddingMap(dom, ambient_chart, ["sqrt(1 + u*u + v*v)", "u", "v"])


class TestInducedGeometry:
    def test_circle_induced_metric_and_connection(self):
        emb, amb = circle_in_plane()
        g = MetricField.euclidean(amb)
        eta = OneFormField.from_expressions(amb, ["0", "0"])
        s = Structure(amb, g, eta, ConnectionField.flat(amb))
        ind = induced_structure(emb, s)
        for p in halton_points(emb.domain, 10):
            assert ind.g.value(p)[0, 0] == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(ind.conn.value(p))) < 1e-12

    def test_sphere_curvature_via_induced_connection(self):
        s = flat_euclidean_3d()
        emb = sphere_embedding(s.chart)
        ind = induced_structure(emb, s)
        for p in halton_points(emb.domain, 5):
            # unit sphere with Levi-Civita has scalar curvature 2
            assert scalar_curvature(ind.conn, ind.g, p) == pytest.approx(2.0, abs=1e-9)

    def test_induced_structure_inherits_swmt(self, config):
        s = ambient_swmt_3d()
        out = check_induced_structure(sphere_embedding(s.chart), s, config)
        assert all(v.passed for v in out)

    def test_induced_duality_commutes(self, config):
        s = ambient_swmt_3d()
        out = check_induced_duality_commutes(sphere_embedding(s.chart), s, config)
        assert all(v.passed for v in out)

    def test_induced_cp_equivalence(self, config):
        s = ambient_swmt_3d()
        out = check_induced_cp_equivalence(sphere_embedding(s.chart), s, ambient_transform(s.chart), config)
        assert all(v.passed for v in out)


class TestPullbacks:
    def test_a_pullback_is_a_field_of_the_same_kind(self):
        s = ambient_swmt_3d()
        emb = sphere_embedding(s.chart)
        phi = ScalarField.from_expression(s.chart, "x*y + exp(z)")
        pb = emb.compose(phi)
        assert isinstance(pb, ScalarField) and pb.chart is emb.domain
        assert isinstance(emb.compose(s.conn), ConnectionField)
        assert emb.compose(phi) is pb and emb.induced_metric(s.g) is emb.induced_metric(s.g)
        for p in halton_points(emb.domain, 5):
            x, y, z = emb.value(p)
            assert pb.value(p) == pytest.approx(x * y + np.exp(z), abs=1e-14)

    def test_a_duality_point_composes_each_ambient_field_once(self, monkeypatch):
        s = ambient_swmt_3d()
        frame = HypersurfaceFrame(sphere_embedding(s.chart), s)
        frame.normal(frame.emb.domain.center(), 0)  # fixes the orientation outside the count
        real = hypersurfaces.jet_compose
        calls = []
        monkeypatch.setattr(hypersurfaces, "jet_compose", lambda *a: calls.append(a) or real(*a))
        out = check_duality_pairing(frame, RunConfig(samples=1, seed=0, tol=1e-8, min_valid_points=1))
        assert out[0].passed and out[0].points_tested == 1
        # the metric at orders 0 and 1, the connection and its semi-dual at order 0
        assert len(calls) == 4


class TestFundamentalForms:
    def test_sphere_shape_operator_golden(self):
        # For the unit sphere in flat space the dual second-fundamental form
        # is plus-or-minus the induced metric (unit principal curvatures),
        # with a consistent sign from the orientation convention.
        s = flat_euclidean_3d()
        emb = sphere_embedding(s.chart)
        frame = HypersurfaceFrame(emb, s)
        ind = induced_structure(emb, s)
        signs = set()
        for p in halton_points(emb.domain, 10):
            beta, tau, B, eps = (a.value if hasattr(a, "value") else a for a in frame.weingarten(p))
            gp = ind.g.value(p)
            ratio = beta[0, 0] / gp[0, 0]
            assert abs(abs(ratio) - 1.0) < 1e-10
            signs.add(round(float(np.sign(ratio))))
            assert np.allclose(beta, ratio * gp, atol=1e-10)
            assert np.allclose(B, ratio * np.eye(2), atol=1e-10)
            assert np.max(np.abs(tau)) < 1e-12
        assert len(signs) == 1  # orientation is consistent across the patch

    def test_sphere_is_umbilic(self):
        s = flat_euclidean_3d()
        emb = sphere_embedding(s.chart)
        frame = HypersurfaceFrame(emb, s)
        for p in halton_points(emb.domain, 10):
            f, dev, beta, gp = umbilic_deviation(frame, p)
            assert dev < 1e-10
            assert abs(abs(f.value) - 1.0) < 1e-10

    def test_cylinder_is_not_umbilic(self):
        s = flat_euclidean_3d()
        emb = cylinder_embedding(s.chart)
        frame = HypersurfaceFrame(emb, s)
        for p in halton_points(emb.domain, 10):
            _f, dev, _beta, _gp = umbilic_deviation(frame, p)
            assert dev >= 0.4  # principal curvatures 1 and 0

    def test_beta_symmetry_on_swmt_ambient(self, config):
        s = ambient_swmt_3d()
        out = check_beta_symmetry(HypersurfaceFrame(sphere_embedding(s.chart), s), config)
        assert all(v.passed for v in out)

    def test_duality_pairing(self, config):
        s = ambient_swmt_3d()
        out = check_duality_pairing(HypersurfaceFrame(sphere_embedding(s.chart), s), config)
        assert all(v.passed for v in out)

    def test_umbilic_preservation_under_transform(self, config):
        s = ambient_swmt_3d()
        out = check_umbilic_preservation(HypersurfaceFrame(sphere_embedding(s.chart), s), ambient_transform(s.chart), config)
        assert all(v.passed for v in out)
        assert {"cp_beta_law", "umbilic_preservation"} <= {v.name for v in out}


class TestCurvatureRelations:
    def test_gauss_equation_torsion_ambient(self, config):
        s = ambient_swmt_3d()
        out = check_gauss_equation(sphere_embedding(s.chart), s, config)
        assert all(v.passed for v in out)

    def test_gauss_recovers_sphere_curvature(self):
        # flat ambient: the tangential ambient curvature vanishes, so the
        # alpha-quadratic terms alone produce the round curvature
        s = flat_euclidean_3d()
        emb = sphere_embedding(s.chart)
        ind = induced_structure(emb, s)
        for p in halton_points(emb.domain, 5):
            R = curvature_values(ind.conn, p)
            gp = ind.g.value(p)
            val = sum(gp[0, l] * R[l, 1, 0, 1] for l in range(2))
            expected = gp[0, 0] * gp[1, 1] - gp[0, 1] ** 2
            assert val == pytest.approx(expected, rel=1e-9)

    def test_flat_dual_hypersurface(self, config):
        s = flat_euclidean_3d()
        out = check_flat_dual_hypersurface(sphere_embedding(s.chart), s, config)
        assert all(v.passed for v in out)

    def test_flat_dual_over_torsion_ambient(self, config):
        # ambient with one-form x identity shift: the semi-dual connection
        # is still flat, so the closed forms must hold with the induced
        # torsion pairing included in the first-order law
        s = ambient_swmt_3d()
        out = check_flat_dual_hypersurface(sphere_embedding(s.chart), s, config)
        assert all(v.passed for v in out)

    def test_flat_dual_gate_skips_on_curved_dual(self, config):
        # genuinely curved metric: the semi-dual (= Levi-Civita) connection
        # has curvature, so the hypothesis gate must skip the check
        chart = euclidean3_chart()
        g = MetricField.from_expressions(
            chart, [["1", "0", "0"], ["0", "1 + x*x", "0"], ["0", "0", "1"]]
        )
        eta = OneFormField.from_expressions(chart, ["0", "0", "0"])
        from semiweyl.tensor import levi_civita

        s = Structure(chart, g, eta, levi_civita(g))
        out = check_flat_dual_hypersurface(sphere_embedding(chart), s, config)
        assert all(v.skipped for v in out)


class TestTimelikeNormal:
    """``eps = g(N, N) = -1``: every other hypersurface in the suite has a
    spacelike normal, so only this case sees the sign in the laws."""

    def test_normal_of_the_hyperboloid_is_timelike(self):
        s = minkowski_structure(3)
        frame = HypersurfaceFrame(spacelike_hyperboloid(s.chart), s)
        for p in halton_points(frame.emb.domain, 10):
            N, eps = frame.normal(p, 0)
            assert eps == -1.0
            assert N.value @ s.g.value(frame.emb.value(p)) @ N.value == pytest.approx(-1.0, abs=1e-12)

    def test_fundamental_form_checks_hold(self):
        s = minkowski_structure(3)
        frame = HypersurfaceFrame(spacelike_hyperboloid(s.chart), s)
        t = TransformData(s.chart, "0.2*t + 0.1*y", "0.1*x + 0.05*y")
        cfg = RunConfig(samples=60, seed=0, tol=1e-10, min_valid_points=30)
        out = (
            check_beta_symmetry(frame, cfg)
            + check_duality_pairing(frame, cfg)
            + check_umbilic_preservation(frame, t, cfg)
        )
        assert [v.name for v in out] == ["beta_symmetry", "duality_pairing", "cp_beta_law", "umbilic_preservation"]
        for v in out:
            assert v.passed and not v.skipped, v
            assert (v.points_tested, v.points_skipped) == (60, 0), v  # every point is umbilic
