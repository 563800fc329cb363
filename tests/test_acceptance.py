"""End-to-end acceptance gate for the package.

Each test pins one headline guarantee: derivative-oracle agreement,
classical curvature goldens, residual bounds for every structure family
and transformation law, report determinism, and a negative-control sweep
that proves the checks can actually fail.
"""

import json
import os
import time

import numpy as np
import pytest

from conftest import (
    ambient_swmt_3d,
    central_difference,
    minkowski_structure,
    plane_chart,
    potentials,
    smt_structure,
    sphere_embedding,
    swmt_structure,
)
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
)
from semiweyl.conformal import (
    check_conformal_corollaries,
    check_ricci_antisymmetry,
    check_semi_dual_transform_law,
    check_structure_invariance,
    check_torsion_invariance,
)
from semiweyl.expressions import eval_jet, parse_expression
from semiweyl.fields import (
    Chart,
    MetricField,
    OneFormField,
    ScalarField,
    VectorField,
    eta_tensor_id,
    g_tensor_vector,
)
from semiweyl.hypersurfaces import (
    EmbeddingMap,
    HypersurfaceFrame,
    check_beta_symmetry,
    check_duality_pairing,
    check_gauss_equation,
    check_induced_duality_commutes,
    check_umbilic_preservation,
    umbilic_deviation,
)
from semiweyl.lightlike import (
    LightlikeFrame,
    check_screen_integrability,
    check_screen_structure,
    check_transversal_conditions,
)
from semiweyl.report import emit_report, run_spec
from semiweyl.sampling import halton_points
from semiweyl.specfile import load_spec
from semiweyl.structures import (
    Structure,
    dual_connection,
    is_smt,
    is_statistical,
    is_swmt,
    semi_dual_connection,
)
from semiweyl.tensor import gradient, levi_civita, scalar_curvature, signature
from semiweyl.verdicts import RunConfig

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture_paths():
    return sorted(
        os.path.join(FIXTURES, name)
        for name in os.listdir(FIXTURES)
        if name.endswith(".spec")
    )


def assert_all_pass(verdicts, label=""):
    for v in verdicts:
        assert v.passed and not v.skipped, (
            f"{label}: {v.name} residual={v.max_residual} detail={v.detail}"
        )


class TestDerivativeOracle:
    """Jet derivatives agree with central finite differences to O(h^2)."""

    def _seeded_expressions(self, count=120):
        rng = np.random.default_rng(2024)
        names = ("x", "y")
        atoms = ["x", "y", "x*y", "x*x", "y*y", "sin(x)", "cos(y)",
                 "exp(0.3*x)", "log(1 + x*y)", "sqrt(1 + x*x)", "cos(x*y)"]
        exprs = []
        for _ in range(count):
            k = int(rng.integers(2, 5))
            picks = rng.choice(len(atoms), size=k)
            coefs = np.round(rng.uniform(-1.5, 1.5, size=k), 3)
            text = " + ".join(f"({c})*({atoms[i]})" for c, i in zip(coefs, picks))
            exprs.append(parse_expression(text, names))
        return exprs

    def test_oracle_agreement_order_two(self):
        start = time.monotonic()
        exprs = self._seeded_expressions()
        assert len(exprs) >= 100
        rng = np.random.default_rng(7)
        points = rng.uniform(0.3, 1.1, size=(3, 2))
        for e in exprs:
            for p in points:
                jet = eval_jet(e, p, 3)
                for i in range(2):
                    exact = jet.grad[i]
                    # central-difference truncation error is |f'''| h^2 / 6;
                    # allow a generous prefactor plus a rounding floor
                    bound_scale = abs(jet.third[i, i, i]) / 6.0 * 4.0 + 1.0
                    for h in (1e-3, 1e-4):
                        dev = abs(central_difference(e, p, i, h) - exact)
                        assert dev <= bound_scale * h * h + 2e-9, (
                            f"h={h} dev={dev} bound_scale={bound_scale}"
                        )
        assert time.monotonic() - start < 5.0

    def test_error_shrinks_quadratically(self):
        # aggregate error constant dev/h^2 is stable across the two step sizes
        exprs = self._seeded_expressions(40)
        p = np.array([0.7, 0.9])
        consts = {}
        for h in (1e-3, 1e-4):
            worst = 0.0
            for e in exprs:
                grad = eval_jet(e, p, 1).grad
                for i in range(2):
                    worst = max(worst, abs(central_difference(e, p, i, h) - grad[i]))
            consts[h] = worst / (h * h)
        ratio = consts[1e-4] / max(consts[1e-3], 1e-30)
        assert 0.05 < ratio < 20.0


class TestClassicalGoldens:
    def test_round_sphere_scalar_curvature_and_signatures(self):
        start = time.monotonic()
        chart = Chart(("u", "v"), (0.1, 0.3), (2.0, 2.6))
        g = MetricField.from_expressions(chart, [["sin(v)*sin(v)", "0"], ["0", "1"]])
        conn = levi_civita(g)
        for p in halton_points(chart, 15):
            assert scalar_curvature(conn, g, p) == pytest.approx(2.0, abs=1e-8)
        assert signature(np.diag([-1.0, 1.0, 1.0])) == (2, 1)
        assert time.monotonic() - start < 1.0


class TestStructureFamilies:
    def test_conformal_gradient_family_residual(self):
        # metric e^{f} delta with the flat connection shifted by df (x) id
        cfg = RunConfig(samples=200, seed=0, tol=1e-10, min_valid_points=150)
        v = is_smt(smt_structure(), cfg)
        assert v.passed and v.points_tested >= 150
        assert v.max_residual <= 1e-10

    def test_one_form_shift_family_and_semi_duality(self):
        s = swmt_structure()
        cfg = RunConfig(samples=200, seed=0, tol=1e-10, min_valid_points=150)
        v = is_swmt(s, cfg)
        assert v.passed and v.max_residual <= 1e-10

        # the semi-dual of the semi-dual recovers the original coefficients
        star = semi_dual_connection(s.g, s.eta, s.conn)
        star2 = semi_dual_connection(s.g, s.eta, star)
        for p in halton_points(s.chart, 25):
            assert np.max(np.abs(star2.value(p) - s.conn.value(p))) <= 1e-11

        # metric-dual equals semi-dual minus the one-form-times-identity shift
        dual = dual_connection(s.g, s.conn)
        shifted = star.add_tensor(
            lambda p, order, _k=eta_tensor_id(s.chart, s.eta): -_k(p, order)
        )
        for p in halton_points(s.chart, 25):
            assert np.max(np.abs(dual.value(p) - shifted.value(p))) <= 1e-10


def _potential_pairs(chart):
    a, b = chart.coord_names[:2]
    return [
        (f"0.2*{a} + 0.1*{b}", f"0.1*{a}*{b}"),
        (f"0.15*sin({a})", f"0.2*{b} + 0.05*{a}*{a}"),
        ("0", f"0.3*{a}"),
    ]


class TestRescalingTransformSuite:
    """Simultaneous metric rescaling and connection reshaping across five
    structure families and three potential pairs each."""

    def _families(self):
        chart = plane_chart()
        curved = swmt_structure(
            g=MetricField.from_expressions(
                chart, [["exp(x)", "0.1"], ["0.1", "1 + y*y"]]
            )
        )
        return [
            swmt_structure(),
            curved,
            smt_structure(),
            ambient_swmt_3d(),
            minkowski_structure(3),
        ]

    def test_transform_laws_across_families(self):
        start = time.monotonic()
        cfg = RunConfig(samples=30, seed=0, tol=1e-8, min_valid_points=15)
        for s in self._families():
            for idx, (phi, psi) in enumerate(_potential_pairs(s.chart)):
                t = potentials(s.chart, phi, psi)
                # torsion is unchanged at machine precision
                assert_all_pass(
                    check_torsion_invariance(s, t, cfg.with_(tol=1e-12)), "torsion"
                )
                # structure verdict is preserved in both directions
                assert_all_pass(check_structure_invariance(s, t, cfg), "invariance")
                # the semi-dual connection transforms with swapped potentials
                assert_all_pass(
                    check_semi_dual_transform_law(s, t, cfg, swap_roles=True), "semi-dual law"
                )
                assert_all_pass(
                    check_ricci_antisymmetry(s, t, cfg.with_(tol=1e-9)), "ricci"
                )
                if idx == 0:
                    out = check_conformal_corollaries(
                        s,
                        ScalarField.from_expression(s.chart, psi),
                        cfg.with_(tol=1e-10),
                    )
                    assert_all_pass(out, "purely conformal corollaries")
                    assert any(v.name == "cyclic_torsion_identity" for v in out)
        # the structure-invariance verdict also agrees on a broken instance:
        # both the original and its transform fail the structure test
        broken = swmt_structure(eta_comps=("y + 0.5", "sin(x) - 0.3*x"))
        broken = Structure(
            broken.chart,
            broken.g,
            OneFormField.from_expressions(broken.chart, ["y", "sin(x) + 0.4"]),
            broken.conn,
        )
        assert not is_swmt(broken, cfg).passed
        t = potentials(broken.chart, *_potential_pairs(broken.chart)[0])
        assert_all_pass(check_structure_invariance(broken, t, cfg), "broken agreement")
        assert time.monotonic() - start < 30.0


class TestHypersurfaceSuite:
    def test_umbilic_detection_and_induced_laws(self):
        s = ambient_swmt_3d()
        cfg = RunConfig(samples=60, seed=0, tol=1e-8, min_valid_points=30)
        emb = sphere_embedding(s.chart)

        # the unit sphere is umbilic with a proportionality factor that is
        # constant across the patch
        frame = HypersurfaceFrame(emb, s)
        factors = []
        for p in halton_points(emb.domain, 25):
            f, dev, _beta, _gp = umbilic_deviation(frame, p, 0)
            assert dev < 1e-10
            factors.append(f.value)
        assert max(factors) - min(factors) <= 1e-8

        # a cylinder is nowhere umbilic (principal curvatures 1 and 0)
        cyl = EmbeddingMap(
            Chart(("u", "v"), (0.2, -0.8), (1.4, 0.8)),
            s.chart,
            ["cos(u)", "sin(u)", "v"],
        )
        cyl_frame = HypersurfaceFrame(cyl, s)
        for p in halton_points(cyl.domain, 15):
            _f, dev, _beta, _gp = umbilic_deviation(cyl_frame, p, 0)
            assert dev >= 0.1

        # transformed second-fundamental form law and umbilicity preservation
        t = potentials(s.chart, "0.2*x + 0.1*z", "0.1*y + 0.05*z")
        assert_all_pass(
            check_umbilic_preservation(frame, t, cfg.with_(tol=1e-9)), "umbilic"
        )
        # tangential curvature decomposition on a torsion-carrying ambient
        assert_all_pass(check_gauss_equation(emb, s, cfg.with_(tol=1e-8)), "gauss")
        # inducing then semi-dualizing commutes with semi-dualizing then inducing
        assert_all_pass(
            check_induced_duality_commutes(emb, s, cfg.with_(tol=1e-10)), "duality"
        )


class TestDegenerateHypersurfaceSuite:
    def test_null_hyperplane_checks(self):
        s = minkowski_structure(3)
        cfg = RunConfig(samples=60, seed=0, tol=1e-8, min_valid_points=30)
        dom = Chart(("u", "v"), (0.3, 0.3), (1.4, 1.4))
        emb = EmbeddingMap(dom, s.chart, ["u", "u", "v"])
        frame = LightlikeFrame(emb, s)
        # the transversal field satisfies its three normalization conditions
        assert_all_pass(
            check_transversal_conditions(frame, cfg.with_(tol=1e-10)), "transversal"
        )
        # the structure induced on the screen passes the full structure test
        assert_all_pass(
            check_screen_structure(frame, cfg.with_(tol=1e-9)), "screen structure"
        )
        # differentiating then projecting agrees with projecting then
        # differentiating (two-path coefficient comparison)
        assert_all_pass(
            check_duality_pairing(frame, cfg.with_(tol=1e-9)), "two-path"
        )
        assert_all_pass(
            check_beta_symmetry(frame, cfg.with_(tol=1e-10)), "symmetry"
        )


class TestAffineRealizationSuite:
    def test_centroaffine_sphere_realization(self):
        start = time.monotonic()
        chart = Chart(("u", "v"), (0.4, 0.4), (1.1, 1.1))
        F = ("cos(u)*sin(v)", "sin(u)*sin(v)", "cos(v)")
        dist = AffineDistribution.from_immersion(
            chart, F, tuple(f"0 - ({c})" for c in F)
        )
        cfg = RunConfig(samples=40, seed=3, tol=1e-10, min_valid_points=20)

        # structure equations realize a valid structure at tight tolerance
        assert_all_pass(check_realization(dist, cfg), "realization")
        assert_all_pass(
            check_realization_curvature_law(dist, cfg.with_(tol=1e-8)), "curvature"
        )
        assert_all_pass(
            check_realization_ricci_scalar(dist, cfg.with_(tol=1e-7)), "ricci/scalar"
        )
        # proportional shape operator forces constant scalar curvature
        assert_all_pass(
            check_shape_proportional_scalar(dist, cfg.with_(tol=1e-7)), "shape"
        )
        # golden value: the realized unit sphere has scalar curvature 2
        rs, _B = realized_structure(dist)
        for p in halton_points(chart, 15):
            assert scalar_curvature(rs.conn, rs.g, p) == pytest.approx(2.0, abs=1e-7)

        psi = ScalarField.from_expression(chart, "0.2*u + 0.1*v*v")
        for variant in ("inner", "outer"):
            assert_all_pass(
                check_xi_rescale_laws(dist, psi, cfg.with_(tol=1e-9), variant),
                f"rescale laws {variant}",
            )
            assert_all_pass(
                check_xi_rescale_structure(dist, psi, cfg.with_(tol=1e-9), variant),
                f"rescale structure {variant}",
            )
        assert_all_pass(
            check_xi_rescale_codazzi(dist, psi, cfg.with_(tol=1e-9)), "rescale codazzi"
        )
        assert time.monotonic() - start < 20.0


class TestReportDeterminism:
    def test_fixture_suite_reports_are_bit_identical(self):
        assert fixture_paths(), "fixture suite is missing"
        for path in fixture_paths():
            spec = load_spec(path)
            cfg = spec.config.with_(samples=40, min_valid_points=15)
            payloads = []
            for _ in range(2):
                report = run_spec(spec, cfg)
                assert report.all_expectations_met, path
                doc = json.loads(emit_report(report, "json"))
                doc.pop("wall_time_s", None)
                payloads.append(json.dumps(doc, sort_keys=True).encode())
            assert payloads[0] == payloads[1], path


class TestPassingResiduals:
    def test_no_passing_verdict_shows_a_residual_above_its_tolerance(self):
        # an agreement verdict showed its inputs' largest residual: 2.46 on
        # smt_conformal_gradient's dual_structure, at tol 1e-10
        for path in fixture_paths():
            report = run_spec(load_spec(path))
            for v in (v for r in report.results for v in r.verdicts if v.passed):
                assert v.max_residual <= v.tol, (path, v.name, v.max_residual)


class TestNegativeControls:
    """Every detector in the control set fails loudly (residual >= 1e-3) on
    its paired perturbed instance; no silent passes."""

    def _broken_structure(self):
        # a metric-times-gradient shift with no compensating one-form breaks
        # the compatibility condition by an O(1) amount
        s = ambient_swmt_3d()
        f = ScalarField.from_expression(s.chart, "0.5*x*y")
        return Structure(
            s.chart,
            s.g,
            s.eta,
            s.conn.add_tensor(g_tensor_vector(s.g, gradient(s.g, f))),
        )

    def test_structure_predicates_fail_on_perturbed_instance(self):
        cfg = RunConfig(samples=60, seed=0, tol=1e-8, min_valid_points=30)
        broken = self._broken_structure()
        for predicate in (is_statistical, is_smt, is_swmt):
            v = predicate(broken, cfg)
            assert not v.passed and v.max_residual >= 1e-3, predicate.__name__

    def test_semi_dual_transform_law_fails_without_potential_swap(self):
        cfg = RunConfig(samples=60, seed=0, tol=1e-8, min_valid_points=30)
        s = swmt_structure()
        t = potentials(s.chart, "0.2*x + 0.1*sin(y)", "0.15*y + 0.1*x*y")
        out = check_semi_dual_transform_law(s, t, cfg, swap_roles=False)
        assert any((not v.passed) and v.max_residual >= 1e-3 for v in out)

    def test_umbilic_detector_fails_on_cylinder(self):
        s = ambient_swmt_3d()
        cyl = EmbeddingMap(
            Chart(("u", "v"), (0.2, -0.8), (1.4, 0.8)),
            s.chart,
            ["cos(u)", "sin(u)", "v"],
        )
        frame = HypersurfaceFrame(cyl, s)
        for p in halton_points(cyl.domain, 10):
            _f, dev, _beta, _gp = umbilic_deviation(frame, p, 0)
            assert dev >= 1e-3

    def test_screen_integrability_fails_on_twisted_screen(self):
        cfg = RunConfig(samples=60, seed=0, tol=1e-8, min_valid_points=30)
        s = minkowski_structure(4)
        dom = Chart(("u", "v", "w"), (0.5, 0.3, 0.3), (1.5, 1.2, 1.2))
        emb = EmbeddingMap(
            dom, s.chart, ["u", "u*cos(v)", "u*sin(v)*cos(w)", "u*sin(v)*sin(w)"]
        )
        bad_screen = (
            VectorField.from_expressions(dom, ["0", "1", "0"]),
            VectorField.from_expressions(dom, ["v", "0", "1"]),
        )
        frame = LightlikeFrame(emb, s, screen=bad_screen)
        out = check_screen_integrability(frame, cfg)
        assert any((not v.passed) and v.max_residual >= 1e-3 for v in out)

    def test_no_false_passes_in_report_on_control_fixture(self):
        spec = load_spec(os.path.join(FIXTURES, "negative_controls.spec"))
        report = run_spec(spec, spec.config.with_(samples=60, min_valid_points=30))
        assert report.all_expectations_met
        failing = [r for r in report.results if r.expectation == "fail"]
        assert failing, "control fixture declares no failing expectations"
        for r in failing:
            assert r.outcome == "fail"
            assert r.max_residual >= 1e-3, r.name
