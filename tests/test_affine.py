from pathlib import Path

import numpy as np
import pytest

from semiweyl.affine import (
    AffineDistribution,
    check_realization,
    check_realization_curvature_law,
    check_realization_ricci_scalar,
    check_shape_proportional_scalar,
    check_xi_rescale_codazzi,
    check_xi_rescale_laws,
    check_xi_rescale_structure,
    realized_structure,
    xi_rescaled,
)
from semiweyl.fields import Chart, ScalarField, result_store
from semiweyl.report import run_spec
from semiweyl.sampling import halton_points
from semiweyl.specfile import load_spec
from semiweyl.tensor import scalar_curvature, signature
from semiweyl.verdicts import RunConfig


def graph_distribution():
    # graph immersion (u, v, f(u,v)) with constant transversal (0,0,1):
    # realizes g = Hessian of f, flat connection, B = 0, eta = 0
    chart = Chart(("u", "v"), (0.2, 0.2), (1.0, 1.0))
    return AffineDistribution.from_immersion(
        chart, ("u", "v", "u*u + v*v + 0.3*u*v + 0.1*u*u*v"), ("0", "0", "1")
    )


def neutral_graph_distribution():
    # f = u*v gives the neutral (split-signature) Hessian metric
    chart = Chart(("u", "v"), (0.2, 0.2), (1.0, 1.0))
    return AffineDistribution.from_immersion(chart, ("u", "v", "u*v"), ("0", "0", "1"))


def centroaffine_sphere():
    chart = Chart(("u", "v"), (0.4, 0.4), (1.1, 1.1))
    F = ("cos(u)*sin(v)", "sin(u)*sin(v)", "cos(v)")
    xi = tuple(f"0 - ({c})" for c in F)
    return AffineDistribution.from_immersion(chart, F, xi)


def scaled_sphere_distribution():
    # transversal e^h * F: negative-definite realized metric with
    # shape operator -e^h times the identity
    chart = Chart(("u", "v"), (0.3, 0.3), (1.2, 1.2))
    F = ("cos(u)*sin(v)", "sin(u)*sin(v)", "cos(v)")
    h = "0.2*sin(u) + 0.1*cos(v)"
    xi = tuple(f"exp({h})*({c})" for c in F)
    return AffineDistribution.from_immersion(chart, F, xi)


@pytest.fixture
def aconfig():
    return RunConfig(samples=60, seed=3, tol=1e-9, min_valid_points=30)


def psi_field(chart):
    return ScalarField.from_expression(chart, "0.3*sin(u) + 0.2*u*v")


class TestDecomposition:
    def test_graph_goldens(self):
        dist = graph_distribution()
        for p in halton_points(dist.chart, 10):
            gamma, g, B, eta = (x.value for x in dist.decompose(p, 0))
            u, v = p
            hess = np.array([[2 + 0.2 * v, 0.3 + 0.2 * u], [0.3 + 0.2 * u, 2.0]])
            assert np.allclose(g, hess, atol=1e-12)
            assert np.max(np.abs(gamma)) < 1e-12
            assert np.max(np.abs(B)) < 1e-12
            assert np.max(np.abs(eta)) < 1e-12

    def test_centroaffine_sphere_goldens(self):
        dist = centroaffine_sphere()
        for p in halton_points(dist.chart, 10):
            _gamma, g, B, eta = (x.value for x in dist.decompose(p, 0))
            v = p[1]
            round_g = np.array([[np.sin(v) ** 2, 0.0], [0.0, 1.0]])
            assert np.allclose(g, round_g, atol=1e-12)
            assert np.allclose(B, np.eye(2), atol=1e-12)
            assert np.max(np.abs(eta)) < 1e-12

    def test_solves_are_shared_per_point_and_read_only(self):
        dist = centroaffine_sphere()
        p, q = halton_points(dist.chart, 2)
        with result_store():
            first = dist.decompose(p, 1)
            assert dist.decompose(p.copy(), 1) is first
            assert dist.decompose(p, 0) is not first
            for layer in first[1].layers:
                with pytest.raises(ValueError):
                    layer[0, 0] = layer[1, 1]
            fresh = centroaffine_sphere().decompose(q, 1)
            for got, want in zip(dist.decompose(q, 1), fresh):
                assert np.array_equal(got.value, want.value)
            assert dist.decompose(p, 1) is first  # every point is kept
        assert dist.decompose(p, 1) is not first  # until the run ends

    def test_realization_is_swmt(self, aconfig):
        for dist in (graph_distribution(), centroaffine_sphere(), scaled_sphere_distribution()):
            out = check_realization(dist, aconfig)
            assert all(v.passed for v in out)


class TestCurvature:
    def test_curvature_law(self, aconfig):
        for dist in (graph_distribution(), scaled_sphere_distribution()):
            out = check_realization_curvature_law(dist, aconfig)
            assert all(v.passed for v in out)

    def test_ricci_scalar_frame_formulas(self, aconfig):
        for dist in (centroaffine_sphere(), scaled_sphere_distribution()):
            out = check_realization_ricci_scalar(dist, aconfig)
            assert all(v.passed for v in out)

    def test_sphere_scalar_curvature_is_two(self):
        dist = centroaffine_sphere()
        s, _B = realized_structure(dist)
        for p in halton_points(dist.chart, 10):
            assert scalar_curvature(s.conn, s.g, p) == pytest.approx(2.0, abs=1e-10)

    def test_negative_definite_sphere_scalar(self):
        # shape operator -e^h I on a negative-definite metric: the scalar
        # curvature is c n (n-1) = -2 e^h, independent of the signature
        dist = scaled_sphere_distribution()
        s, B_fn = realized_structure(dist)
        for p in halton_points(dist.chart, 10):
            assert signature(s.g.value(p)) == (0, 2)
            c = float(np.trace(B_fn(p, 0).value)) / 2
            assert scalar_curvature(s.conn, s.g, p) == pytest.approx(2 * c, rel=1e-9)

    def test_neutral_realization_flat(self, aconfig):
        # split-signature Hessian metric with zero shape operator:
        # scalar curvature vanishes
        dist = neutral_graph_distribution()
        s, _B = realized_structure(dist)
        for p in halton_points(dist.chart, 10):
            assert signature(s.g.value(p)) == (1, 1)
            assert scalar_curvature(s.conn, s.g, p) == pytest.approx(0.0, abs=1e-11)

    def test_shape_proportional_scalar(self, aconfig):
        for dist in (centroaffine_sphere(), scaled_sphere_distribution()):
            out = check_shape_proportional_scalar(dist, aconfig)
            assert all(v.passed for v in out)

    def test_shape_proportional_skips_generic(self, aconfig):
        out = check_shape_proportional_scalar(graph_distribution(), aconfig)
        # B = 0 is proportional to the identity with c = 0, so this one runs
        assert all(v.passed for v in out)

    def test_shape_proportional_skips_where_the_shape_operator_is_not(self, aconfig):
        # transversal (u/2, 0, 1) along the graph: B = diag(b, 0) with b < 0
        dist = AffineDistribution.from_immersion(
            graph_distribution().chart, ("u", "v", "u*u + v*v + 0.3*u*v + 0.1*u*u*v"), ("0.5*u", "0", "1")
        )
        (v,) = check_shape_proportional_scalar(dist, aconfig)
        assert v.skipped and (v.points_tested, v.points_skipped) == (0, aconfig.samples)
        assert v.detail.endswith("shape operator is not proportional to the identity here")


class TestRescaling:
    @pytest.mark.parametrize("variant", ["inner", "outer"])
    def test_rescale_laws(self, aconfig, variant):
        for dist in (graph_distribution(), scaled_sphere_distribution()):
            out = check_xi_rescale_laws(dist, psi_field(dist.chart), aconfig, variant)
            assert all(v.passed for v in out)

    @pytest.mark.parametrize("variant", ["inner", "outer"])
    def test_rescaled_structure_still_swmt(self, aconfig, variant):
        for dist in (graph_distribution(), scaled_sphere_distribution()):
            out = check_xi_rescale_structure(dist, psi_field(dist.chart), aconfig, variant)
            assert all(v.passed for v in out)

    def test_outer_codazzi_law(self, aconfig):
        for dist in (graph_distribution(), scaled_sphere_distribution()):
            out = check_xi_rescale_codazzi(dist, psi_field(dist.chart), aconfig)
            assert all(v.passed for v in out)

    def test_inner_rescale_metric_conformal(self, aconfig):
        dist = graph_distribution()
        psi = psi_field(dist.chart)
        t = xi_rescaled(dist, psi, "inner")
        for p in halton_points(dist.chart, 10):
            _g0, g0, _B0, _e0 = (x.value for x in dist.decompose(p, 0))
            _g1, g1, _B1, _e1 = (x.value for x in t.decompose(p, 0))
            assert np.allclose(g1, np.exp(psi.value(p)) * g0, rtol=1e-10)


class TestOmegaRows:
    def test_omega_rows_give_the_immersion_outcomes(self, tmp_path):
        # the rows of the differential of the centroaffine sphere, given as
        # [affine] omega_row_i entries instead of an immersion
        fixture = Path(__file__).resolve().parents[1] / "fixtures" / "centroaffine_sphere.spec"
        text = fixture.read_text()
        immersion = "immersion = cos(u)*sin(v), sin(u)*sin(v), cos(v)\n"
        assert immersion in text
        rows = (
            "omega_row_1 = 0 - sin(u)*sin(v), cos(u)*cos(v)\n"
            "omega_row_2 = cos(u)*sin(v), sin(u)*cos(v)\n"
            "omega_row_3 = 0, 0 - sin(v)\n"
        )
        rewritten = tmp_path / "omega_rows.spec"
        rewritten.write_text(text.replace(immersion, rows))

        def outcomes(path):
            report = run_spec(load_spec(path))
            assert report.all_expectations_met
            return [
                (r.name, r.outcome, v.name, v.passed, v.skipped, v.points_tested, v.points_skipped)
                for r in report.results
                for v in r.verdicts
            ]

        via_rows = outcomes(rewritten)
        assert len({r[0] for r in via_rows}) == 9
        assert via_rows == outcomes(fixture)
