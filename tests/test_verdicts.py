"""``run_laws``: the laws of a check share one pass over the sample points,
each law is called once on the whole point set, and each law keeps its own
verdict."""

from pathlib import Path

import numpy as np
from conftest import count_field_calls, plane_chart
from semiweyl import conformal, lightlike, structures, verdicts
from semiweyl.registry import run_check
from semiweyl.sampling import halton_points
from semiweyl.specfile import load_spec
from semiweyl.verdicts import RunConfig, SkipPoint, run_laws, run_pointwise_check

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
CONFIG = RunConfig(samples=30, seed=3, tol=1e-8, min_valid_points=12)


def smooth_law(p):
    return abs(p[..., 0] * p[..., 1]) * 1e-10, 1.0 + abs(p[..., 0])


def skip_every_third(p):
    """A law on a point set that fails loudly and skips every third point."""
    third = np.arange(len(p)) % 3 == 2
    return 1e-3 * (1.0 + p[:, 1] * p[:, 1]), 1.0, np.where(third, "every third point", "")


class TestRunLaws:
    def test_each_law_is_called_once_on_the_whole_set(self):
        seen = []

        def law(tag):
            def fn(p):
                seen.append((tag, p))
                return np.zeros(len(p)), 1.0

            return fn

        run_laws(plane_chart(), CONFIG, [("a", law("a")), ("b", law("b"))])
        points = [p for tag, p in seen if tag == "a"]
        assert len(points) == 1 and len(points[0]) == CONFIG.samples
        assert np.array_equal(points[0], halton_points(plane_chart(), CONFIG.samples, CONFIG.seed))
        assert seen == [(tag, points[0]) for tag in ("a", "b")]

    def test_a_scalar_stands_for_every_point(self):
        (v,) = run_laws(plane_chart(), CONFIG, [("constant", lambda p: (0.0, 1.0))])
        pts = halton_points(plane_chart(), CONFIG.samples, CONFIG.seed)
        assert (v.points_tested, v.points_skipped, v.max_residual) == (30, 0, 0.0)
        assert v.passed and v.worst_point == tuple(pts[0])

    def test_a_skip_in_one_law_leaves_the_other_laws_points(self):
        smooth, skipping = run_laws(plane_chart(), CONFIG, [("smooth", smooth_law), ("skipping", skip_every_third)])
        assert (smooth.points_tested, smooth.points_skipped) == (30, 0)
        assert smooth.passed and not smooth.skipped
        assert (skipping.points_tested, skipping.points_skipped) == (20, 10)
        assert not skipping.passed and not skipping.skipped

    def test_each_verdict_is_the_verdict_of_its_law_alone(self):
        def too_few(p):
            if np.any(p[..., 0] > 0.6):
                raise SkipPoint("right two thirds")
            return 0.0, 1.0

        laws = [
            ("smooth", smooth_law),
            ("tight", smooth_law, 1e-12),
            ("skipping", skip_every_third, 1e-2, "fails at the default tolerance only"),
            ("too_few", too_few, None, "skips most points"),
        ]
        together = run_laws(plane_chart(), CONFIG, laws)
        alone = [
            run_pointwise_check("smooth", plane_chart(), smooth_law, CONFIG),
            run_laws(plane_chart(), CONFIG, [("tight", smooth_law, 1e-12)])[0],
            run_laws(plane_chart(), CONFIG, [("skipping", skip_every_third, 1e-2,
                                              "fails at the default tolerance only")])[0],
            run_pointwise_check("too_few", plane_chart(), too_few, CONFIG, detail="skips most points"),
        ]
        assert [v.as_dict() for v in together] == [v.as_dict() for v in alone]
        assert together[0].passed and not together[1].passed and together[1].detail == ""
        assert together[2].passed and together[2].tol == 1e-2
        assert together[3].skipped and 0 < together[3].points_tested < CONFIG.min_valid_points
        assert together[3].detail.startswith("skips most points; too few valid points")

    def test_a_set_that_raises_falls_back_to_its_points_in_order(self):
        pts = halton_points(plane_chart(), CONFIG.samples, CONFIG.seed)
        asked = []

        def law(p):
            asked.append(p)
            if np.any(p[..., 0] > 0.6):
                raise SkipPoint(f"x = {np.max(p[..., 0]):.4f}")
            return p[..., 1], 1.0

        res, _, reason = verdicts._outcomes(law, pts)
        assert asked[0] is pts and [tuple(p) for p in asked[1:]] == [tuple(p) for p in pts]
        assert list(reason) == [f"x = {x:.4f}" if x > 0.6 else "" for x in pts[:, 0]]
        assert np.array_equal(res[reason == ""], pts[pts[:, 0] <= 0.6, 1])
        (v,) = run_laws(plane_chart(), CONFIG.with_(min_valid_points=30), [("law", law)])
        assert v.skipped and v.detail.endswith(f"x = {pts[pts[:, 0] > 0.6, 0][-1]:.4f}")

    def test_the_first_of_equal_maxima_is_the_worst_point(self):
        pts = halton_points(plane_chart(), CONFIG.samples, CONFIG.seed)

        def law(p):
            return np.where(p[..., 0] > 0.9, 1.0, 0.5), 1.0

        (v,) = run_laws(plane_chart(), CONFIG, [("law", law)])
        first, second = np.flatnonzero(pts[:, 0] > 0.9)[:2]
        assert first < second and v.max_residual == 1.0
        assert v.worst_point == tuple(pts[first])


def count_calls(field, calls):
    """Record ``(shape of p, order)`` of each call of ``field``'s own
    function (its jet-cache misses)."""
    fn = field._fn

    def counted(p, order):
        calls.append((np.shape(p), order))
        return fn(p, order)

    field._fn = counted


class TestOnePassPerCheck:
    """Each check evaluates all its laws on one pass over its points, so a
    derived field is built once per point and order, not once per law; and
    it is built for all the points of the pass in one call."""

    def test_curvature_laws_build_the_transformed_connection_once_per_point(self, monkeypatch):
        spec = load_spec(FIXTURES / "conformal_projective_suite.spec")
        calls = []
        transform = conformal.transform
        counted = set()

        def counted_transform(s, t):
            st = transform(s, t)  # kept: the same structure for both checks
            if id(st) not in counted:
                counted.add(id(st))
                count_calls(st.conn, calls)
            return st

        monkeypatch.setattr(conformal, "transform", counted_transform)
        verdicts = run_check("cp_curvature_laws", spec, spec.config)
        assert [v.points_tested for v in verdicts] == [150] * 3
        # one call on the pass's 150 points; one per point: 150 calls, and
        # one pass per law: 450
        assert calls == [((150, 2), 1)]
        calls.clear()
        verdicts = run_check("cp_ricci_antisymmetry", spec, spec.config)
        assert [v.points_tested for v in verdicts] == [150] * 2
        assert calls == [((150, 2), 1)]  # one per point: 150; one pass per law: 300

    def test_dual_structure_builds_the_dual_connection_once_per_point(self, monkeypatch):
        spec = load_spec(FIXTURES / "swmt_eta_shift.spec")
        calls = []
        dual_connection = structures.dual_connection

        def counted_dual(g, conn):
            star = dual_connection(g, conn)
            count_calls(star, calls)
            return star

        monkeypatch.setattr(structures, "dual_connection", counted_dual)
        (v,) = run_check("dual_structure", spec, spec.config)
        assert v.passed and v.points_tested == 4 * 200
        assert calls == [((200, 2), 0)]  # one per point: 200; one pass per law: 400

    def test_umbilic_preservation_builds_the_screen_data_once_per_point(self, monkeypatch):
        spec = load_spec(FIXTURES / "null_cone.spec")
        builds = []
        count_field_calls(monkeypatch, lightlike, "_screen_data", builds)
        law, _ = run_check("lightlike_umbilic_preservation", spec, spec.config)
        assert law.points_tested + law.points_skipped == 150
        # the frames before and after the transformation, once each on the
        # pass's points; once each per point: 300; one pass per law: 600
        assert [(np.shape(p), order) for p, order in builds] == [((150, 2), 0)] * 2

