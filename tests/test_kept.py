"""Each derived object of a spec is built once per run and kept in the
run's result store (``fields.kept``), and no object keeps it: running a
spec again builds the same again, the fields a run builds do not depend on
the sample count, a predicate verdict is computed once per structure and
config in a run, a transform of the same two fields is one key, every
field evaluates once per sample set and order in a run, in one call on the
whole set, and so does every law of a check, and
the metric's non-degeneracy test, curvature and nabla g run once per
(field, points) in a run, where the kept inverse metric is the only
inversion of a metric's values, and a pass makes a pinned number of
einsums, none of them evaluating expressions."""

import inspect
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import swmt_structure
from semiweyl import fields, report, structures, tensor, verdicts
from semiweyl.conformal import TransformData, check_conformal_corollaries, check_curvature_transform, transform
from semiweyl.expressions import eval_jets, parse_expression
from semiweyl.fields import ScalarField, kept, result_store
from semiweyl.hypersurfaces import EmbeddingMap
from semiweyl.report import run_spec
from semiweyl.specfile import load_spec
from semiweyl.structures import is_swmt
from semiweyl.verdicts import RunConfig

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"


class Owner:
    pass


class TestKept:
    def test_built_once_per_arguments_in_a_run(self):
        builds = []

        @kept
        def derived(owner, tag):
            builds.append(tag)
            return object()

        a, b = Owner(), Owner()
        with result_store():
            first = derived(a, "x")
            assert derived(a, "x") is first
            assert derived(a, "y") is not first and derived(b, "x") is not first
            assert fields._store.get()[derived.__wrapped__, a, "x"] is first
        assert builds == ["x", "y", "x"]
        # the next run builds again, and so does each call outside a run
        with result_store():
            assert derived(a, "x") is not first
        assert derived(a, "x") is not derived(a, "x")
        assert builds == ["x", "y", "x", "x", "x", "x"]
        # the owner keeps nothing (kept by it: {"_kept": {...}})
        assert vars(a) == vars(b) == {}

    def test_a_build_that_raises_keeps_nothing(self):
        calls = []

        @kept
        def failing(owner):
            calls.append(1)
            raise ValueError("no")

        owner = Owner()
        with result_store():
            for _ in range(2):
                with pytest.raises(ValueError):
                    failing(owner)
            assert fields._store.get() == {}
        assert len(calls) == 2


def fields_built(monkeypatch, name, samples):
    """The number of fields one fresh ``run_spec`` of a fixture builds."""
    spec = load_spec(FIXTURES / name)
    count = [0]
    init = fields._Field.__init__

    def counting(field, *args, **kw):
        count[0] += 1
        init(field, *args, **kw)

    monkeypatch.setattr(fields._Field, "__init__", counting)
    run_spec(spec, spec.config.with_(samples=samples))
    monkeypatch.undo()
    return count[0]


class TestOneBuildPerSpec:
    @pytest.mark.parametrize("name", ["conformal_projective_suite.spec", "conformally_flat.spec"])
    def test_the_fields_a_run_builds_do_not_depend_on_the_samples(self, monkeypatch, name):
        # with a gradient field built per point: 466 and 886 on the suite
        assert fields_built(monkeypatch, name, 60) == fields_built(monkeypatch, name, 120)

    @pytest.mark.parametrize("name", ["conformal_projective_suite.spec", "swmt_eta_shift.spec"])
    def test_running_a_spec_again_builds_its_fields_once_again(self, monkeypatch, name):
        # each run derives its own fields: the same number each time (none
        # on a second run when the spec's objects kept them)
        spec = load_spec(FIXTURES / name)
        config = spec.config.with_(samples=30, min_valid_points=10)
        count = [0]
        init = fields._Field.__init__

        def counting(field, *args, **kw):
            count[0] += 1
            init(field, *args, **kw)

        monkeypatch.setattr(fields._Field, "__init__", counting)
        counts = []
        for _ in range(3):
            count[0] = 0
            run_spec(spec, config)
            counts.append(count[0])
        assert counts[0] > 0 and counts == [counts[0]] * 3

    def test_running_a_spec_again_builds_each_pullback_once_per_run(self, monkeypatch):
        spec = load_spec(FIXTURES / "sphere_hypersurface.spec")
        compose = EmbeddingMap.compose.__wrapped__
        stores = []
        run_check = report.run_check
        monkeypatch.setattr(report, "run_check", lambda *a: stores.append(fields._store.get()) or run_check(*a))
        counts = []
        for _ in range(3):
            run_spec(spec, spec.config.with_(samples=30, min_valid_points=10))
            counts.append(sum(key[0] is compose for key in stores[-1]))
        # one store per run, whose pullbacks are those of that run alone
        # (11, 17 and 23 with new derived fields on every run kept by the map)
        assert len({id(store) for store in stores}) == 3
        assert counts[0] > 0 and counts == [counts[0]] * 3

    @pytest.mark.parametrize("name,runs", [("swmt_eta_shift.spec", 6), ("conformally_flat.spec", 1)])
    def test_the_structure_residual_runs_once_per_structure(self, monkeypatch, name, runs):
        # swmt_eta_shift: is_swmt and is_smt, the semi-dual, the plain dual
        # in two checks, and the transformed structure; the base laws of the
        # equivalence checks read the predicates' verdicts.
        # conformally_flat: its gate reads is_swmt
        spec = load_spec(FIXTURES / name)
        calls = []
        residual = structures._swmt_residual_at

        def counted(s, p, use_eta=True):
            calls.append(np.ndim(p))
            return residual(s, p, use_eta)

        monkeypatch.setattr(structures, "_swmt_residual_at", counted)
        report = run_spec(spec)
        assert report.all_expectations_met
        # once on each pass's set; point by point: 1,200 and 150, and once
        # per law and check: 1,800 and 300
        assert calls == [2] * runs


class TestPredicateVerdicts:
    def test_one_verdict_per_structure_and_config_in_a_run(self):
        s = swmt_structure()
        config = RunConfig(samples=60, seed=1, tol=1e-8, min_valid_points=30)
        with result_store():
            v = is_swmt(s, config)
            assert is_swmt(s, config) is v and is_swmt(s, config.with_()) is v
            other = is_swmt(s, config.with_(samples=70))
            assert other is not v and (v.points_tested, other.points_tested) == (60, 70)
            assert is_swmt(swmt_structure(), config) is not v
        with result_store():
            assert is_swmt(s, config) is not v and is_swmt(s, config) == v


class TestTransformKeys:
    def test_a_transform_is_the_value_of_its_two_fields(self):
        s = swmt_structure()
        phi = ScalarField.from_expression(s.chart, "0.2*x")
        psi = ScalarField.from_expression(s.chart, "0.1*x*y")
        t = TransformData(phi, psi)
        assert TransformData(phi, psi) == t and hash(TransformData(phi, psi)) == hash(t)
        assert TransformData(psi, phi) != t
        with result_store():
            assert transform(s, TransformData(phi, psi)) is transform(s, t)

    def test_repeated_checks_keep_nothing_new(self):
        # with text operands and identity keys, kept by the structure: 3, 5,
        # 7 and 2, 4, 6 entries
        config = RunConfig(samples=20, seed=0, tol=1e-8, min_valid_points=10)
        s = swmt_structure()
        psi = ScalarField.from_expression(s.chart, "0.1*x*y")
        phi = ScalarField.from_expression(s.chart, "0.2*x")
        for check in (lambda: check_conformal_corollaries(s, psi, config),
                      lambda: check_curvature_transform(s, TransformData(phi, psi), config)):
            counts = []
            with result_store():
                for _ in range(3):
                    check()
                    counts.append(len(fields._store.get()))
            assert counts == [counts[0]] * 3


def expression_evaluations(monkeypatch, name, samples):
    """``(per point, per sample set)`` expression evaluations of one fresh
    ``run_spec`` of a fixture."""
    spec = load_spec(FIXTURES / name)
    counts = Counter()
    evaluate = fields.eval_jets

    def counting(exprs, points, order):
        counts[np.ndim(points)] += 1
        return evaluate(exprs, points, order)

    monkeypatch.setattr(fields, "eval_jets", counting)
    run_spec(spec, spec.config.with_(samples=samples))
    monkeypatch.undo()
    return counts[1], counts[2]


def field_calls(monkeypatch, path, samples=None):
    """``(at a point, on a set)`` calls of the ``fn`` of every field of one
    fresh ``run_spec`` of the spec at ``path``, at its own samples unless
    ``samples`` is given."""
    counts = Counter()
    init = fields._Field.__init__

    def counting(field, chart, fn, expressions=None):
        def counted(p, order):
            counts[np.ndim(p)] += 1
            return fn(p, order)

        init(field, chart, counted, expressions)

    monkeypatch.setattr(fields._Field, "__init__", counting)
    spec = load_spec(path)
    run_spec(spec, spec.config if samples is None else spec.config.with_(samples=samples))
    monkeypatch.undo()
    return counts[1], counts[2]


EMBEDDED = ["sphere_hypersurface", "flat_dual_sphere", "minkowski_null_hyperplane"]
INTRINSIC = ["swmt_eta_shift", "smt_conformal_gradient", "conformally_flat", "conformal_projective_suite",
             "negative_controls"]


class TestOneBatchPerSampleSet:
    @pytest.mark.parametrize(
        "names,per_point,batches",
        [
            # evaluated point by point: 21,900 and 8,250 at the specs' own
            # samples; with one batch per field and pass: 120 and 48; 42 and
            # 9 when a lower order read after a higher one was evaluated
            # again, not truncated from the kept higher order
            (INTRINSIC, 0, 35),
            (["centroaffine_sphere"], 0, 8),
            # the ambient fields evaluate on the image set F(pts); the 4
            # points left are the chart centres of the lightlike frame's pins
            # (10,227 per point and 38 batches with the images evaluated point
            # by point; 42 batches when screen_structure read the screen data
            # at order 1; 13 and 39 before the truncation of kept higher
            # orders; 10 and 33 when the unit normal fixed its sign at the
            # domain centre and the hypotheses were tested on the ambient box)
            (EMBEDDED, 4, 26),
        ],
        ids=["intrinsic", "affine", "embedded"],
    )
    def test_expressions_evaluate_once_per_field_and_pass(self, monkeypatch, names, per_point, batches):
        total = [0, 0]
        for name in names:
            at_60 = expression_evaluations(monkeypatch, f"{name}.spec", 60)
            assert at_60 == expression_evaluations(monkeypatch, f"{name}.spec", 120)
            total = [a + b for a, b in zip(total, at_60)]
        assert total == [per_point, batches]

    @pytest.mark.parametrize(
        "names,per_point,sets",
        [
            # with only expression fields filling a set in one call: 10,600
            # calls at a point and 42 on a set at the specs' own samples;
            # 108 before torsion, curvature, Ricci, scalar curvature, nabla g
            # and the inverse metric were fields (44 of these calls); 152
            # before a lower order was truncated from a kept higher one
            (INTRINSIC, 0, 140),
            # 3,600 and 9; 33 before those fields (12 of these); 45 before
            # the truncation
            (["centroaffine_sphere"], 0, 44),
            # 15,024 and 42; the 10 points left are the chart centres of the
            # lightlike frame's pins; the lightlike checks read the screen data, so no
            # order-0 pullback, induced metric or screen field is asked on
            # minkowski_null_hyperplane's set (153 when they did); 150 before
            # those fields (26 of these); 176 when screen_structure read the
            # screen data at order 1, and with the transversal a field of each
            # (map, metric, screen), which the semi-dual frame reads, not built
            # by each frame; the unit normal's kept ambient inverse adds 3
            # calls at a centre and 1 on a set, and truncating lower orders
            # from kept higher ones takes out 3 and 10 (24 and 168 before both);
            # 24 and 159 when the unit normal fixed its sign at the domain
            # centre and the hypotheses were tested on the ambient box, not at
            # the images, and before one field kept the ambient derivative of
            # the frame for the induced connection and the second fundamental
            # form
            (EMBEDDED, 10, 151),
        ],
        ids=["intrinsic", "affine", "embedded"],
    )
    def test_every_field_fills_a_set_in_one_call(self, monkeypatch, names, per_point, sets):
        total = [0, 0]
        for name in names:
            at_60 = field_calls(monkeypatch, FIXTURES / f"{name}.spec", 60)
            assert at_60 == field_calls(monkeypatch, FIXTURES / f"{name}.spec", 120)
            total = [a + b for a, b in zip(total, at_60)]
        assert total == [per_point, sets]

    def test_a_set_that_fails_fills_its_other_rows_as_one_set(self, monkeypatch):
        # domain_edge at its own 150 samples, 50 of them outside the domain
        # of sqrt: the 19 sets that fail name those 50 rows, 29 calls fill
        # the other 100 rows as one set (a field that reads a failed operand
        # reuses its entry there), 1 set does not fail, and no point is
        # evaluated alone; (2150, 29) when each point of a failed set was
        # evaluated alone, and (1100, 19) before the tensor values were fields
        assert field_calls(monkeypatch, ROOT / "perfbench" / "specs" / "domain_edge.spec") == (0, 49)


def law_calls(monkeypatch, path):
    """For each law evaluation of one fresh ``run_spec`` of ``path``, the
    ``ndim`` of the point or point set of each call of its residual
    function."""
    calls = []
    outcomes = verdicts._outcomes

    def counting(residual_fn, pts):
        asked = []
        calls.append(asked)

        def counted(p):
            asked.append(np.ndim(p))
            return residual_fn(p)

        return outcomes(counted, pts)

    monkeypatch.setattr(verdicts, "_outcomes", counting)
    spec = load_spec(path)
    run_spec(spec)
    monkeypatch.undo()
    return calls


class TestOneCallPerLaw:
    def test_every_law_is_called_once_on_its_set(self, monkeypatch):
        # one call per law and point before: 13,750 calls on the fixtures;
        # 86 when screen_structure tested screen integrability again
        calls = [c for path in sorted(FIXTURES.glob("*.spec")) for c in law_calls(monkeypatch, path)]
        assert len(calls) == 84 and calls == [[2]] * 84

    def test_only_a_set_that_raises_runs_point_by_point(self, monkeypatch):
        # domain_edge: 50 of 150 points outside the domain of sqrt, so every
        # law's set call raises and it runs again at each of its points
        calls = law_calls(monkeypatch, ROOT / "perfbench" / "specs" / "domain_edge.spec")
        assert calls == [[2] + [1] * 150] * 7


# the tensor values whose raw computation a run should make once per
# (field, points): the metric's non-degeneracy test, curvature and nabla g
RAW = ("inverse_metric_values", "curvature_values", "nabla_g_values")


def raw_computations(monkeypatch, path):
    """``(computations, dets)`` of one fresh ``run_spec`` of ``path``: how
    often each tensor value of :data:`RAW` was computed, per (value, owner,
    arguments, points), and the number of ``np.linalg.det`` calls."""
    computes = {getattr(tensor, name).__wrapped__: name for name in RAW}
    counts = Counter()
    dets = [0]
    init = fields._Field.__init__
    det = np.linalg.det

    def counting(field, chart, fn, expressions=None):
        closure = inspect.getclosurevars(fn).nonlocals
        name = computes.get(closure.get("compute"))
        if name is None:
            init(field, chart, fn, expressions)
            return

        def counted(p, order):
            counts[name, closure["owner"], closure["args"], np.shape(p), np.asarray(p).tobytes()] += 1
            return fn(p, order)

        init(field, chart, counted, expressions)

    def counting_det(a):
        dets[0] += 1
        return det(a)

    monkeypatch.setattr(fields._Field, "__init__", counting)
    monkeypatch.setattr(np.linalg, "det", counting_det)
    spec = load_spec(path)
    run_spec(spec)
    monkeypatch.undo()
    return counts, dets[0]


def inversions(monkeypatch, paths):
    """``(function, bytes)`` of each ``np.linalg.inv`` call of one fresh
    ``run_spec`` of each spec of ``paths`` (one benchmark pass): the
    function that called it and the stack it inverted."""
    made = []
    inv = np.linalg.inv

    def counting(a):
        made.append((sys._getframe(1).f_code.co_name, np.asarray(a).tobytes()))
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting)
    for path in paths:
        run_spec(load_spec(path))
    monkeypatch.undo()
    return made


def einsums(monkeypatch, paths):
    """The number of ``np.einsum`` calls of one fresh ``run_spec`` of each
    spec of ``paths`` (one benchmark pass)."""
    made = [0]
    einsum = np.einsum

    def counting(*args, **kw):
        made[0] += 1
        return einsum(*args, **kw)

    monkeypatch.setattr(np, "einsum", counting)
    for path in paths:
        run_spec(load_spec(path))
    monkeypatch.undo()
    return made[0]


class TestTensorValuesOncePerPoints:
    @pytest.mark.parametrize("name", INTRINSIC + ["sphere_hypersurface", "centroaffine_sphere"])
    def test_the_raw_tensor_values_run_once_per_field_and_points(self, monkeypatch, name):
        counts, dets = raw_computations(monkeypatch, FIXTURES / f"{name}.spec")
        assert {"inverse_metric_values", "nabla_g_values"} <= {key[0] for key in counts}
        assert max(counts.values()) == 1
        # every det is the test of the kept inverse metric (on
        # centroaffine_sphere 3 of 4 when the orthonormal frame of the
        # realized metric tested it again)
        assert dets == sum(n for key, n in counts.items() if key[0] == "inverse_metric_values")

    def test_an_intrinsic_pass_makes_nine_determinant_tests(self, monkeypatch):
        # 73 when each law tested the metric at its points itself: one per
        # metric and sample set now, on the 5 specs' 9 such pairs
        runs = [raw_computations(monkeypatch, FIXTURES / f"{name}.spec") for name in INTRINSIC]
        assert {key[0] for counts, _ in runs for key in counts} == set(RAW)
        assert sum(dets for _, dets in runs) == 9

    @pytest.mark.parametrize(
        "paths,calls",
        [
            # 31, 50, 13 and 6 when each solve against a metric's jet
            # inverted its value layer again; embedded 23 when the unit normal
            # fixed its sign at the domain centre and the hypotheses were
            # tested on the ambient box, not at the images; 17 when the null
            # transversal pinned a component by a solve at the centre
            ([FIXTURES / f"{name}.spec" for name in INTRINSIC], 9),
            ([FIXTURES / f"{name}.spec" for name in EMBEDDED], 15),
            ([FIXTURES / "centroaffine_sphere.spec"], 10),
            ([ROOT / "perfbench" / "specs" / "domain_edge.spec"], 2),
        ],
        ids=["intrinsic", "embedded", "affine", "domain_edge"],
    )
    def test_a_pass_inverts_each_metric_once_per_points(self, monkeypatch, paths, calls):
        made = inversions(monkeypatch, paths)
        by_function = Counter(name for name, _ in made)
        assert len(made) == calls, by_function
        # the other inversions are of frames that are no metric's values
        # (lightlike and affine), and their singular-member tests
        assert set(by_function) <= {"inverse_metric_values", "jet_solve", "_singular_alone"}
        metrics = {a for name, a in made if name == "inverse_metric_values"}
        assert metrics and not [name for name, a in made if name != "inverse_metric_values" and a in metrics]

    @pytest.mark.parametrize(
        "paths,calls",
        [
            # 213, 205, 69 and 1,016 when contract took its long sums by
            # batched @ and the laws multiplied matrices by @: every
            # contraction is an np.einsum now
            ([FIXTURES / f"{name}.spec" for name in INTRINSIC], 273),
            # 429 and 84 when compositions summed every set partition and a
            # four-operand law was one einsum: chains of einsums now; 405
            # when the induced connection and the second fundamental form
            # each built the ambient derivative of the frame, and the unit
            # normal fixed its sign at the domain centre; 390 when the null
            # transversal pinned a component by a solve at the centre
            ([FIXTURES / f"{name}.spec" for name in EMBEDDED], 388),
            # 176 when products and elementwise functions above order 3
            # summed every slot placement and set partition by einsum
            ([FIXTURES / "centroaffine_sphere.spec"], 85),
            ([ROOT / "perfbench" / "specs" / "domain_edge.spec"], 1020),
        ],
        ids=["intrinsic", "embedded", "affine", "domain_edge"],
    )
    def test_a_pass_makes_its_einsums(self, monkeypatch, paths, calls):
        assert einsums(monkeypatch, paths) == calls

    @pytest.mark.parametrize("order", range(7))
    def test_expressions_evaluate_without_einsum(self, monkeypatch, order):
        # the centroaffine immersion and transversal, and every elementary
        # function and power: 447 einsums at order 4 and 5,934 at order 6
        # when the generic sums took the layers above order 3
        texts = ["cos(u)*sin(v)", "sin(u)*sin(v)", "cos(v)", "0 - cos(u)*sin(v)", "0 - sin(u)*sin(v)", "0 - cos(v)",
                 "exp(u*v) * log(1 + u*v) / (2 + cos(u))", "sqrt(1 + u*u*v) * (u - v)^3 + (1 + u*v)^(-2)"]
        exprs = [parse_expression(t, ("u", "v")) for t in texts]
        monkeypatch.setattr(np, "einsum", None)
        J = eval_jets(exprs, np.array([[0.5, 0.6], [0.7, 0.9], [1.0, 0.4]]), order)
        assert J.shape == (3, len(texts)) and J.order == order
