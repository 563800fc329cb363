"""One result store per spec run: a field asked at a point of a running
pass's sample set keeps its result per (field, order, points), from one
call on the whole set, so a later pass of any check over the same points
reads rows instead of rebuilding the chain; a pullback evaluates its ambient
field on the whole image set; a set whose call raises a point error that
names its rows keeps each named row's reason and fills the other rows as
one sub-set, which a derived field reuses; a call that raises anything
else keeps nothing; and the store, with all that the run derived, dies
with its run."""

import contextlib
import gc
import json
import weakref
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest

from conftest import count_field_calls, field_entries, plane_chart, swmt_structure
from semiweyl import fields, hypersurfaces, lightlike, report, verdicts
from semiweyl.fields import _Field, result_store, sample_set
from semiweyl.jets import EvaluationDomainError, Jet
from semiweyl.report import run_spec
from semiweyl.sampling import halton_points
from semiweyl.specfile import load_spec
from semiweyl.structures import semi_dual_connection
from semiweyl.tensor import levi_civita

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"


def counted_fn(field):
    """Wrap ``field``'s own function; returns the list of its calls."""
    calls = []
    fn = field._fn

    def counted(p, order):
        calls.append(order)
        return fn(p, order)

    field._fn = counted
    return calls


class TestRows:
    def test_a_held_row_is_read_only_and_read_again_without_fn(self, monkeypatch):
        s = swmt_structure()
        field = semi_dual_connection(s.g, s.eta, s.conn)
        calls = counted_fn(field)
        pts = halton_points(s.chart, 8)
        with result_store():
            with sample_set(pts):
                held = field.jet(pts[3], 2)
            assert calls == [2]
            walks = []
            leaves = fields._leaves
            monkeypatch.setattr(fields, "_leaves", lambda out: walks.append(1) or leaves(out))
            with sample_set(pts.copy()):  # another pass over the same points
                again = field.jet(pts[3], 2)
            # no fn call, no freeze walk and no kept lone point for a stored row
            assert calls == [2] and walks == []
            assert all(shape == pts.shape for _, _, (shape, _) in field_entries(fields._store.get()))
        for J in (held, again):
            assert not any(L.flags.writeable for L in J.layers)
        assert [L.tobytes() for L in again.layers] == [L.tobytes() for L in held.layers]
        alone = semi_dual_connection(s.g, s.eta, s.conn).jet(pts[3], 2)
        assert [L.tobytes() for L in held.layers] == [np.asarray(L).tobytes() for L in alone.layers]

    def test_without_a_store_a_set_lasts_one_pass(self):
        s = swmt_structure()
        field = semi_dual_connection(s.g, s.eta, s.conn)
        calls = counted_fn(field)
        pts = halton_points(s.chart, 6)
        for _ in range(2):
            with sample_set(pts):
                for p in pts:
                    field.jet(p, 1)
        # one call on the whole set per pass (one per point: 12)
        assert calls == [1, 1]
        assert fields._store.get() is None

    def test_every_kind_of_leaf_reads_back(self):
        def fn(p, order):
            j = Jet.constant(p[..., :, None] * p[..., None, :], 2, order)
            return {"jet": j, "float": p[..., 0] * 1.0, "array": p * 2.0, "pair": (j, p[..., 1] + order)}

        field = _Field(plane_chart(), fn)
        pts = halton_points(plane_chart(), 5)
        with result_store():
            with sample_set(pts):
                first = [field.jet(p, 1) for p in pts]
            with sample_set(pts):
                second = [field.jet(p, 1) for p in pts]
        for p, a, b in zip(pts, first, second):
            want = fn(p, 1)
            for got in (a, b):
                assert got["float"] == want["float"] and isinstance(got["float"], float)
                arrays = [got["array"], got["pair"][1], *got["jet"].layers, *got["pair"][0].layers]
                wanted = [want["array"], want["pair"][1], *want["jet"].layers, *want["pair"][0].layers]
                assert [np.asarray(x).tobytes() for x in arrays] == [np.asarray(x).tobytes() for x in wanted]
                assert not any(x.flags.writeable for x in arrays if isinstance(x, np.ndarray))

    def raising(self):
        """A field on a chart across ``x = 0`` whose rows with ``x <= 0``
        raise, with its counted calls, its points and those rows."""
        chart = plane_chart(-1.0, 1.0)
        f = fields.ScalarField.from_expression(chart, "1 + sqrt(x)")
        g = _Field(chart, lambda p, order: f.jet(p, order) * 2.0)
        calls = []
        fn = g._fn

        def counted(p, order):
            calls.append(np.shape(p))
            return fn(p, order)

        g._fn = counted
        pts = halton_points(chart, 12)
        bad = [row for row, p in enumerate(pts) if p[0] <= 0]  # order 1 fails at x = 0 too
        assert bad and len(bad) < len(pts)
        return g, calls, pts, bad

    def test_a_point_that_raises_keeps_its_reason(self):
        g, _, pts, bad = self.raising()
        with result_store():
            for _ in range(2):
                with sample_set(pts):
                    for row, p in enumerate(pts):
                        if row in bad:
                            with pytest.raises(EvaluationDomainError, match="^sqrt of a negative value$"):
                                g.jet(p, 1)
                        else:
                            g.jet(p, 1)
            store = fields._store.get()
            reason = (EvaluationDomainError, ("sqrt of a negative value",))
            # the set failed and named its failing rows, each with its reason
            split = store[g, 1, (pts.shape, pts.tobytes())]
            assert split.raised == reason
            assert [k == reason for k in split.named] == [row in bad for row in range(len(pts))]
            # no point was evaluated alone
            assert all(len(shape) == 2 for _, _, (shape, _) in field_entries(store))

    def test_a_point_that_raised_is_not_evaluated_again(self):
        g, calls, pts, bad = self.raising()
        with result_store():
            for _ in range(2):
                with sample_set(pts):
                    for p in pts:
                        with contextlib.suppress(EvaluationDomainError):
                            g.jet(p, 1)
                    # a kept reason makes a read of the whole set raise at once
                    with pytest.raises(EvaluationDomainError):
                        g.jet(pts, 1)
        # the set once, which raised, then its other points once as one set
        # (each point alone once, 12 calls, when a set that raised named no rows)
        assert calls == [pts.shape, (len(pts) - len(bad), 2)]

    def test_a_chain_across_its_domain_fills_its_other_rows_as_one_set(self):
        g, calls, pts, bad = self.raising()
        f_calls = []  # the operand's, 1 + sqrt(x), through the expression engine
        eval_jets = fields.eval_jets
        with result_store():
            with sample_set(pts):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(fields, "eval_jets", lambda e, p, order: f_calls.append(p.shape) or eval_jets(e, p, order))
                    # a read of the whole set raises, as when the set named no rows
                    with pytest.raises(EvaluationDomainError, match="^sqrt of a negative value$") as raised:
                        g.jet(pts, 1)
                    held = [g.jet(p, 1) for row, p in enumerate(pts) if row not in bad]
            store = fields._store.get()
        good = np.delete(pts, bad, axis=0)
        # one raising set call and one sub-set call each; the chain reuses
        # its operand's sub-set entry, and no point is evaluated alone
        assert calls == [pts.shape, good.shape] and f_calls == [pts.shape, good.shape]
        assert [r is not None for r in raised.value.rows] == [row in bad for row in range(len(pts))]
        sub = store[g, 1, (good.shape, good.tobytes())]
        assert store[g, 1, (pts.shape, pts.tobytes())].rest is sub
        # a good held row is bitwise its row of the sub-set
        for row, J in enumerate(held):
            assert [L.tobytes() for L in J.layers] == [L[row].tobytes() for L in sub.layers]

    def test_each_failed_row_keeps_what_it_raises_alone(self):
        # 1 + sqrt(x + 0.5) is outside its domain where x < -0.5, and |det g|
        # falls under the degeneracy threshold where x > 0.77: the set's call
        # names the first rows, and its sub-set's call the others
        chart = plane_chart(-1.0, 1.0)
        g = fields.MetricField.from_diagonal(chart, ["1 + sqrt(x + 0.5)", "exp(-30*x)"])
        conn = levi_civita(g)
        pts = halton_points(chart, 40)
        with result_store():
            with sample_set(pts):
                with pytest.raises(EvaluationDomainError):
                    conn.jet(pts, 1)
                split = fields._store.get()[conn, 1, (pts.shape, pts.tobytes())]
        alone = [computed_alone(levi_civita(g), p, 1) for p in pts]
        failed = [a for a in alone if is_failure(a)]
        kinds = Counter(kind for kind, _ in failed)
        assert kinds[EvaluationDomainError] and kinds[fields.DegeneratePointError]
        # each degenerate row carries its own |det g|, not the set's minimum
        degenerate = {args for kind, args in failed if kind is fields.DegeneratePointError}
        assert len(degenerate) == kinds[fields.DegeneratePointError] > 1
        kept = [named or leaf_bytes(fields._row(split.rest, split.at[row])) for row, named in enumerate(split.named)]
        assert kept == [a if is_failure(a) else leaf_bytes(a) for a in alone]

    def test_a_set_call_that_raises_another_error_keeps_nothing(self):
        calls = []

        def fn(p, order):
            calls.append(np.shape(p))
            raise ValueError("not a point error")

        f = _Field(plane_chart(), fn)
        pts = halton_points(plane_chart(), 4)
        with result_store():
            with sample_set(pts):
                for _ in range(2):
                    with pytest.raises(ValueError, match="^not a point error$"):
                        f.jet(pts, 0)
            assert not any(field is f for field, _, _ in field_entries(fields._store.get()))
        assert calls == [pts.shape] * 2


def count_per_point(monkeypatch, path, samples=None, runs=1):
    """``(on the whole set, at sample points, elsewhere)`` for the screen
    data's ``fn`` and for ``jet_compose`` in ``EmbeddingMap.compose``, one
    entry per ``run_spec`` of one loaded spec."""
    spec = load_spec(path)
    config = spec.config if samples is None else spec.config.with_(samples=samples)
    emb = spec.embedding or spec.lightlike_embedding
    seen = {"compose": []}
    screen_calls = []  # (p, order) of each call
    compose = hypersurfaces.jet_compose

    def counted_compose(f, F):
        seen["compose"].append(F.value)
        return compose(f, F)

    count_field_calls(monkeypatch, lightlike, "_screen_data", screen_calls)
    monkeypatch.setattr(hypersurfaces, "jet_compose", counted_compose)
    counts = []
    for _ in range(runs):
        screen_calls.clear()
        seen["compose"].clear()
        run_spec(spec, config)
        seen["screen"] = [p for p, _ in screen_calls]
        pts = halton_points(emb.domain, config.samples, config.seed)
        images = np.array([emb.coords.value(p) for p in pts])
        whole = {"screen": pts.tobytes(), "compose": images.tobytes()}
        at = {"screen": {p.tobytes() for p in pts}, "compose": {q.tobytes() for q in images}}
        counts.append({
            k: (
                sum(x.tobytes() == whole[k] for x in calls),
                sum(x.tobytes() in at[k] for x in calls),
                sum(x.tobytes() != whole[k] and x.tobytes() not in at[k] for x in calls),
            )
            for k, calls in seen.items()
        })
    monkeypatch.undo()
    return counts


class TestOneBuildPerPoint:
    """With the store, each derived field is built once per sample set and
    order in a run, in one call on all its points, however many checks
    read it."""

    @pytest.mark.parametrize(
        "name,screen,compose,alone",
        [
            # one per point: 600 screen-data builds and 1,202 compositions;
            # one per point and check: 1,500 and 3,155; the lightlike checks
            # read the screen data, so the metric is not pulled back at
            # order 0 (8 when it was); every check reads it at order 0, so
            # neither the metric at order 2 nor the connection at order 1 is
            # pulled back (4 and 7 when screen_structure read it at order 1)
            ("minkowski_null_hyperplane", 3, 5, 2),
            # one per point: 1,952 compositions; per check: 5,102
            ("sphere_hypersurface", 0, 13, 0),
        ],
        ids=["minkowski_null_hyperplane", "sphere_hypersurface"],
    )
    def test_a_fresh_run(self, monkeypatch, name, screen, compose, alone):
        (counts,) = count_per_point(monkeypatch, FIXTURES / f"{name}.spec")
        # the points elsewhere are the pins of the lightlike frame at the
        # chart centre; the unit normal takes the chart's orientation, so it
        # has none (13, 0, 2 on sphere_hypersurface when it fixed its sign at
        # the centre)
        assert counts == {"screen": (screen, 0, 0), "compose": (compose, 0, alone)}

    @pytest.mark.parametrize(
        "name,screen,compose,alone",
        [("minkowski_null_hyperplane", 3, 5, 2), ("sphere_hypersurface", 0, 13, 0)],
        ids=["minkowski_null_hyperplane", "sphere_hypersurface"],
    )
    def test_the_same_at_60_and_120_samples(self, monkeypatch, name, screen, compose, alone):
        for samples in (60, 120):
            (counts,) = count_per_point(monkeypatch, FIXTURES / f"{name}.spec", samples)
            assert counts == {"screen": (screen, 0, 0), "compose": (compose, 0, alone)}

    def test_a_second_run_rebuilds_every_set(self, monkeypatch):
        # the store does not outlive a run, nor do the frames' pins at the
        # chart centre, which a run keeps per (map, metric): (5, 0, 0) on
        # the second run when the map kept them
        first, second = count_per_point(monkeypatch, FIXTURES / "minkowski_null_hyperplane.spec", 60, runs=2)
        assert first["screen"] == second["screen"] == (3, 0, 0)
        assert first["compose"] == second["compose"] == (5, 0, 2)


class TestRelease:
    @pytest.mark.parametrize("name", ["minkowski_null_hyperplane", "conformal_projective_suite"])
    def test_the_store_dies_when_its_run_returns(self, monkeypatch, name):
        spec = load_spec(FIXTURES / f"{name}.spec")
        # a dict cannot be weakly referenced, so the store's leaves are
        # followed, on point sets and at points evaluated alone
        refs = {"set": [], "point": []}
        run_check = report.run_check

        def recording(*args):
            out = run_check(*args)
            for (_, _, (shape, _)), kept in field_entries(fields._store.get()).items():
                refs["set" if len(shape) > 1 else "point"] += [
                    weakref.ref(L) for L in fields._leaves(kept) if isinstance(L, np.ndarray)
                ]
            return out

        monkeypatch.setattr(report, "run_check", recording)
        gc.disable()  # only reference counting may free the store
        try:
            run_spec(spec, spec.config.with_(samples=30, min_valid_points=10))
            # the frames' pins at the chart centre are points evaluated alone
            assert refs["set"] and bool(refs["point"]) == (name == "minkowski_null_hyperplane")
            assert all(ref() is None for kind in refs.values() for ref in kind)
        finally:
            gc.enable()
        assert fields._store.get() is None and fields._samples.get() is None


def ours(o):
    """Whether ``o`` is an instance of a class of this package."""
    module = type(o).__module__  # a descriptor on some extension types
    return isinstance(module, str) and module.startswith("semiweyl.")


@pytest.mark.parametrize(
    "path", [*sorted(FIXTURES.glob("*.spec")), ROOT / "perfbench" / "specs" / "domain_edge.spec"], ids=lambda p: p.stem
)
def test_a_run_and_its_spec_are_freed_without_the_cyclic_collector(path):
    # what a run derives refers to what it was derived from, so an owner
    # that kept it made a reference cycle: 73 of 75 objects of a
    # centroaffine_sphere run outlived the spec until a collection
    gc.collect()
    gc.disable()  # only reference counting may free them
    try:
        # held, so that no object of the run takes the id of one freed meanwhile
        before = {id(o): o for o in gc.get_objects() if ours(o)}
        spec = load_spec(path)
        result = run_spec(spec)
        assert result.all_expectations_met
        alive = sum(1 for o in gc.get_objects() if ours(o) and id(o) not in before)
        del spec, result
        # a chart the sample sets' cache holds as a key is freed with it
        halton_points.cache_clear()
        left = [type(o).__name__ for o in gc.get_objects() if ours(o) and id(o) not in before]
    finally:
        gc.enable()
    # the loaded spec's objects were alive until then
    assert alive and left == []


def computed_alone(field, p, order):
    """``field``'s ``fn`` at the point ``p`` in a store of its own, or the
    ``(type, args)`` of the point error it raised there."""
    with result_store():
        try:
            return field._fn(p, order)
        except (EvaluationDomainError, fields.DegeneratePointError) as exc:
            return type(exc), exc.args


def leaf_bytes(out):
    return [np.asarray(L).tobytes() for L in fields._leaves(out)]


def is_failure(kept):
    """Whether an entry, or a named row of one, is a kept ``(type, args)``."""
    return isinstance(kept, tuple) and isinstance(kept[0], type)


class TestSkipPath:
    def test_each_point_outside_the_domain_raises_alike_in_every_check(self, monkeypatch):
        # domain_edge.spec: g_2_2 = 1 + sqrt(x) on a box that crosses x = 0
        spec = load_spec(ROOT / "perfbench" / "specs" / "domain_edge.spec")
        raised = defaultdict(set)  # point -> {(type, message)}
        checks = defaultdict(set)  # point -> checks in which it raised
        current = []
        evaluate = verdicts._evaluate

        def recording(residual_fn, p):
            def fn(q):
                try:
                    return residual_fn(q)
                except Exception as exc:
                    raised[q.tobytes()].add((type(exc), str(exc)))
                    checks[q.tobytes()].add(current[-1])
                    raise

            return evaluate(fn, p)

        run_check = report.run_check
        kept_outside = {}

        def checked(name, spec, config):
            current.append(name)
            out = run_check(name, spec, config)
            # a row of a set, the reason a set keeps for a row it named, or
            # a result or reason kept at a point evaluated alone, outside the
            # domain is what its field computes there alone
            for (field, order, (shape, key)), kept in field_entries(fields._store.get()).items():
                if len(shape) == 1:
                    if np.frombuffer(key)[0] <= 0:
                        kept_outside[field, order, key] = kept
                elif not isinstance(kept, fields._Raised):
                    for row, p in enumerate(np.frombuffer(key).reshape(shape)):
                        if p[0] > 0:
                            continue
                        if type(kept) is not fields._Split:
                            kept_outside[field, order, p.tobytes()] = fields._row(kept, row)
                        elif kept.named[row]:
                            kept_outside[field, order, p.tobytes()] = kept.named[row]
                        elif type(kept.rest) is not fields._Raised:
                            kept_outside[field, order, p.tobytes()] = fields._row(kept.rest, kept.at[row])
            return out

        monkeypatch.setattr(verdicts, "_evaluate", recording)
        monkeypatch.setattr(report, "run_check", checked)
        result = run_spec(spec)
        pts = halton_points(spec.chart, spec.config.samples, spec.config.seed)
        outside = {p.tobytes() for p in pts if p[0] <= 0}
        assert len(outside) == 50 and set(raised) == outside
        kinds = Counter(is_failure(kept) for kept in kept_outside.values())
        assert kinds[True] and kinds[False]
        for (field, order, key), kept in kept_outside.items():
            alone = computed_alone(field, np.frombuffer(key), order)
            if is_failure(kept):
                assert kept == alone, (field, order)
            else:
                assert leaf_bytes(kept) == leaf_bytes(alone), (field, order)
        for p in outside:
            ((kind, message),) = raised[p]
            assert kind is EvaluationDomainError and "sqrt" in message
            assert checks[p] == {name for name, _ in spec.checks}

        reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())["domain_edge"]["checks"]
        assert {r.name: [[v.points_tested, v.points_skipped] for v in r.verdicts] for r in result.results} == {
            name: ref["verdicts"] for name, ref in reference.items()
        }
