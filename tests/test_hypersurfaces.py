import re
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    ambient_swmt_3d,
    euclidean3_chart,
    half_null_plane,
    minkowski_structure,
    potentials,
    rows_alone,
    sphere_embedding,
)
from semiweyl import hypersurfaces, verdicts
from semiweyl.cli import taylor_oracle
from semiweyl.fields import (
    Chart,
    ConnectionField,
    DegeneratePointError,
    MetricField,
    OneFormField,
    ScalarField,
    result_store,
    sample_set,
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
from semiweyl.report import run_spec
from semiweyl.sampling import halton_points
from semiweyl.specfile import load_spec
from semiweyl.structures import Structure
from semiweyl.tensor import curvature_values, scalar_curvature
from semiweyl.verdicts import RunConfig

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


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
    return potentials(chart, "0.2*x + 0.1*y", "0.1*z + 0.05*x*y")


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
        # one pullback and one induced metric per run (a new one per call
        # outside a run)
        assert emb.compose(phi) is not pb
        with result_store():
            pb = emb.compose(phi)
            assert emb.compose(phi) is pb and emb.induced_metric(s.g) is emb.induced_metric(s.g)
        for p in halton_points(emb.domain, 5):
            x, y, z = emb.coords.value(p)
            assert pb.value(p) == pytest.approx(x * y + np.exp(z), abs=1e-14)

    def test_a_duality_point_composes_each_ambient_field_once(self, monkeypatch):
        s = ambient_swmt_3d()
        frame = HypersurfaceFrame(sphere_embedding(s.chart), s)
        real = hypersurfaces.jet_compose
        calls = []
        with result_store():
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
            beta, tau, B, eps = (a.value if hasattr(a, "value") else a for a in frame.weingarten(p, 0))
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
            f, dev, beta, gp = umbilic_deviation(frame, p, 0)
            assert dev < 1e-10
            assert abs(abs(f.value) - 1.0) < 1e-10

    def test_cylinder_is_not_umbilic(self):
        s = flat_euclidean_3d()
        emb = cylinder_embedding(s.chart)
        frame = HypersurfaceFrame(emb, s)
        for p in halton_points(emb.domain, 10):
            _f, dev, _beta, _gp = umbilic_deviation(frame, p, 0)
            assert dev >= 0.4  # principal curvatures 1 and 0

    def test_a_set_with_no_umbilic_point_gives_each_point_its_reason(self, tmp_path, monkeypatch):
        # umbilic nowhere, the cylinder skips each point of the umbilic law
        # with the reason, from the law's one call on the set: the sphere
        # fixture with the cylinder's map in flat Euclidean 3-space
        text = (Path(__file__).resolve().parents[1] / "fixtures" / "sphere_hypersurface.spec").read_text()
        text = text.replace("cos(u)*sin(v), sin(u)*sin(v), cos(v)", "cos(u), sin(u), v").replace("add = eta_tensor_I\n", "")
        path = tmp_path / "cylinder.spec"
        path.write_text(text[: text.index("[checks]")] + "[checks]\numbilic_preservation = pass\n")

        def alone(residual_fn, p):
            raise AssertionError("a law was evaluated at a point alone")

        monkeypatch.setattr(verdicts, "_evaluate", alone)
        law, umbilic = run_spec(load_spec(path)).results[0].verdicts
        assert (law.name, law.points_tested, law.passed) == ("cp_beta_law", 150, True)
        assert (umbilic.name, umbilic.points_tested, umbilic.points_skipped, umbilic.skipped) == (
            "umbilic_preservation", 0, 150, True
        )
        assert umbilic.detail.endswith("; too few valid points (0 < 50): point is not umbilic before the transformation")

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


# the sphere_hypersurface fixture in a curved ambient: every fixture's
# ambient is flat, where a composition's terms with outer derivatives vanish
CURVED_AMBIENT = """
[manifold]
coords = x, y, z
domain = -1.5 .. 1.5, -1.5 .. 1.5, -1.5 .. 1.5

[metric]
diag = 1 + 0.1*x*y, 1 + 0.2*z*z, 1 + 0.1*x*x

[eta]
components = 0.2*y, 0.1*z, 0.15*x

[connection]
base = levi_civita
add = eta_tensor_I

[transform]
phi = 0.2*x + 0.1*y
psi = 0.1*z + 0.05*x*y

[submanifold]
coords = u, v
domain = 0.4 .. 1.2, 0.4 .. 1.2
map = cos(u)*sin(v), sin(u)*sin(v), cos(v)

[run]
samples = 150
seed = 5
tol = 1e-8

[checks]
is_swmt = pass
induced_structure = pass
induced_duality_commutes = pass
induced_cp_equivalence = pass
beta_symmetry = pass
duality_pairing = pass
gauss_equation = pass
"""


class TestCurvedAmbient:
    @pytest.fixture(scope="class")
    def spec(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("curved") / "curved_ambient.spec"
        path.write_text(CURVED_AMBIENT)
        return load_spec(path)

    def test_the_submanifold_checks_pass(self, spec):
        # a unit normal solved against the metric's value layer alone passed
        # every fixture and failed beta_symmetry, duality_pairing and
        # gauss_equation here at about 0.1
        report = run_spec(spec)
        assert [(r.name, r.outcome) for r in report.results] == [(name, "pass") for name, _ in spec.checks]
        for r in report.results:
            assert all(v.points_tested == 150 and v.max_residual <= 1e-14 for v in r.verdicts), r.name

    def test_the_taylor_oracle_agrees(self, spec):
        # the same unit normal broke the normal, second fundamental form and
        # Weingarten layers
        for label, _, defects, failing in taylor_oracle(spec, 10):
            assert not failing.any() and not np.isnan(defects).all(axis=0).any(), label


class TestTheHypothesisAlongTheHypersurface:
    """The laws hold pointwise, so their hypothesis is tested at the images
    of the sample, not on the ambient chart box."""

    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        # a metric-gradient term whose one-form 0.2*(r^2 - 1)*d(r^2) vanishes
        # on the unit sphere alone: semi-Weyl with torsion there, not on the box
        text = (FIXTURES / "sphere_hypersurface.spec").read_text()
        text = text.replace(
            "add = eta_tensor_I\n",
            "add = eta_tensor_I\nadd = g_tensor_gradient(0.1*(x*x + y*y + z*z - 1)*(x*x + y*y + z*z - 1))\n",
        ).replace("[checks]\n", "[checks]\nis_swmt = fail\n")
        assert text.count("g_tensor_gradient") == 1 and text.count("is_swmt = fail") == 1
        path = tmp_path_factory.mktemp("along") / "along_the_sphere.spec"
        path.write_text(text)
        return run_spec(load_spec(path))

    def test_the_gated_checks_run_and_pass(self, report):
        # both skipped as "hypothesis not met" when the hypothesis was
        # is_swmt on the ambient box, which fails at about 2.5
        assert report.all_expectations_met
        outcomes = {r.name: r for r in report.results}
        (box,) = outcomes["is_swmt"].verdicts
        assert outcomes["is_swmt"].outcome == "fail" and box.max_residual > 1.0
        for name in ("induced_structure", "beta_symmetry"):
            (v,) = outcomes[name].verdicts
            assert outcomes[name].outcome == "pass" and v.points_tested == 150 and v.max_residual <= 1e-15, v

    def test_a_structure_that_fails_along_it_still_gates(self, tmp_path):
        text = (FIXTURES / "sphere_hypersurface.spec").read_text()
        path = tmp_path / "broken.spec"
        path.write_text(text.replace("add = eta_tensor_I\n", "add = eta_tensor_I\nadd = g_tensor_gradient(0.5*x*y)\n"))
        results = {r.name: r for r in run_spec(load_spec(path)).results}
        for name in ("induced_structure", "beta_symmetry"):
            (v,) = results[name].verdicts
            assert v.skipped and v.detail == "hypothesis not met: ambient structure condition fails along the hypersurface"


def spec_of(text, path):
    path.write_text(text)
    return load_spec(path)


class TestTheNormalFollowsTheChart:
    @pytest.mark.parametrize("name", ["sphere_hypersurface", "flat_dual_sphere", "curved_ambient"])
    def test_the_conormal_of_the_chart_is_positive_on_it(self, tmp_path, name):
        text = CURVED_AMBIENT if name == "curved_ambient" else (FIXTURES / f"{name}.spec").read_text()
        assert "coords = u, v\ndomain = 0.4 .. 1.2, 0.4 .. 1.2\n" in text  # the swap keeps the domain
        spec = spec_of(text, tmp_path / "as_given.spec")
        swapped = spec_of(text.replace("coords = u, v\n", "coords = v, u\n"), tmp_path / "swapped.spec")
        pts = halton_points(spec.embedding.domain, spec.config.samples, spec.config.seed)
        N = hypersurfaces.unit_normal(spec.embedding, spec.structure.g).jet(pts, 0)[0].value
        dF = spec.embedding.coords.jet(pts, 1).grad  # [p, i, a]
        assert len(N) == 150 and (np.vecdot(np.cross(dF[..., 0], dF[..., 1]), N) > 0).all()
        # swapping the domain coordinates reverses the chart's orientation
        N_swapped = hypersurfaces.unit_normal(swapped.embedding, swapped.structure.g).jet(pts[:, ::-1].copy(), 0)[0]
        np.testing.assert_allclose(N_swapped.value, -N, rtol=0, atol=1e-15)


class TestTimelikeNormal:
    """``eps = g(N, N) = -1``: every other hypersurface in the suite has a
    spacelike normal, so only this case sees the sign in the laws."""

    def test_normal_of_the_hyperboloid_is_timelike(self):
        s = minkowski_structure(3)
        frame = HypersurfaceFrame(spacelike_hyperboloid(s.chart), s)
        for p in halton_points(frame.emb.domain, 10):
            N, eps = frame.normal(p, 0)
            assert eps == -1.0
            assert N.value @ s.g.value(frame.emb.coords.value(p)) @ N.value == pytest.approx(-1.0, abs=1e-12)

    def test_fundamental_form_checks_hold(self):
        s = minkowski_structure(3)
        frame = HypersurfaceFrame(spacelike_hyperboloid(s.chart), s)
        t = potentials(s.chart, "0.2*t + 0.1*y", "0.1*x + 0.05*y")
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


def test_a_null_normal_names_its_rows():
    s, emb = half_null_plane()
    normal = hypersurfaces.unit_normal(emb, s.g)
    pts = halton_points(emb.domain, 12)
    with pytest.raises(DegeneratePointError, match="^normal direction is null at this point$") as raised:
        normal._fn(pts, 0)
    rows = rows_alone(lambda p: normal._fn(p, 0), pts)
    assert raised.value.rows == rows and any(rows) and not all(rows)


def test_a_degenerate_ambient_metric_skips_its_rows_as_alone():
    # g_zz = sqrt(x*x) - x is exactly 0 where x > 0; the unit normal raises
    # the ambient metric with its kept inverse at the image points, so those
    # rows fail its non-degeneracy test ("singular frame in jet solve" when
    # the normal inverted the metric's jet itself)
    chart = Chart(("x", "y", "z"), (-2.0,) * 3, (2.0,) * 3)
    g = MetricField.from_diagonal(chart, ["1", "1", "sqrt(x*x) - x"])
    emb = EmbeddingMap(Chart(("u", "v"), (-1.0, -1.0), (0.5, 1.0)), chart, ["u", "v", "0.5*u + 0.3*v"])
    normal = hypersurfaces.unit_normal(emb, g)
    pts = halton_points(emb.domain, 12)
    message = "metric degenerate (|det g| = 0.000e+00)"
    with pytest.raises(DegeneratePointError, match=f"^{re.escape(message)}$") as raised:
        normal._fn(pts, 0)
    rows = rows_alone(lambda p: normal._fn(p, 0), pts)
    assert raised.value.rows == rows and any(rows) and not all(rows)
    assert {row for row in rows if row} == {(DegeneratePointError, (message,))}
    with sample_set(pts):
        for p, row in zip(pts, rows):
            if row:
                with pytest.raises(DegeneratePointError, match=f"^{re.escape(message)}$"):
                    normal.jet(p, 0)
            else:
                assert np.isfinite(normal.jet(p, 0)[0].value).all()
