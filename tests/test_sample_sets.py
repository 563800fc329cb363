"""Fields evaluate once per sample set: ``eval_jets`` on a point set gives
each point the bits it gets alone, every field a spec's run builds gives
it the bits of its row in any other set and within rounding its result
alone, with the set's points innermost in memory; a field reads its rows
from the set's batch, a set with points outside the domain raises at each
point as that point alone does, batches are read-only, a pass leaves no
sample set behind, and orders 0 and 1 of every such field read after
order 2 are its fresh fills bit for bit."""

from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from conftest import plane_chart
from semiweyl import expressions, fields, verdicts
from semiweyl.expressions import eval_jets
from semiweyl.fields import Chart, MetricField, ScalarField, result_store, sample_set
from semiweyl.jets import EvaluationDomainError, Jet, at_points
from semiweyl.report import run_spec
from semiweyl.sampling import halton_points
from semiweyl.specfile import load_spec
from semiweyl.verdicts import RunConfig, SkipPoint, run_laws

FIXTURES = sorted((Path(__file__).resolve().parents[1] / "fixtures").glob("*.spec"))


def _flat(exprs):
    return [e for item in exprs for e in _flat(item)] if isinstance(exprs, list) else [exprs]


def expression_fields(monkeypatch, path):
    """The loaded spec and ``(chart, flat expression list)`` of each
    expression field its loading builds."""
    built = []
    init = fields._Field.__init__

    def recording(field, chart, fn, expressions=None):
        if expressions is not None:
            built.append((chart, _flat(expressions)))
        init(field, chart, fn, expressions)

    monkeypatch.setattr(fields._Field, "__init__", recording)
    spec = load_spec(path)
    monkeypatch.undo()
    return spec, built


def assert_rows_are_points(batch, pts, exprs, order):
    """Each row of ``batch`` is, layer by layer and bit for bit, the
    evaluation of ``exprs`` at that point alone."""
    assert batch.shape == (len(pts), len(exprs)) and batch.order == order
    for row, p in enumerate(pts):
        alone = eval_jets(exprs, p, order)
        for B, L in zip(batch.layers, alone.layers, strict=True):
            assert B[row].tobytes() == np.asarray(L).tobytes()


def outcomes(field, pts, order):
    """The layers' bytes of ``field`` at each point, or the exception it
    raised there."""
    out = []
    for p in pts:
        try:
            out.append(tuple(np.asarray(L).tobytes() for L in field.jet(p, order).layers))
        except Exception as exc:  # its type and message are compared
            out.append((type(exc), str(exc)))
    return out


class TestBatchEvaluation:
    @pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
    def test_every_fixture_expression_on_the_spec_set_is_its_points(self, monkeypatch, path):
        spec, built = expression_fields(monkeypatch, path)
        assert built
        for chart, exprs in built:
            pts = halton_points(chart, spec.config.samples, spec.config.seed)
            assert_rows_are_points(eval_jets(exprs, pts, 3), pts, exprs, 3)

    def test_powers_and_quotients_round_as_at_one_point(self):
        # numpy's vector power rounds up to a few percent of its results
        # otherwise than a float's ``**``
        chart = plane_chart()
        exprs = [chart.parse(t) for t in ("x^3/y", "sqrt(x*y) + log(y)^2", "(x + y)^(-2)", "1/(1 + x)")]
        pts = halton_points(chart, 200)
        assert_rows_are_points(eval_jets(exprs, pts, 3), pts, exprs, 3)

    def test_constants_broadcast_to_every_point(self):
        chart = plane_chart()
        exprs = [chart.parse(t) for t in ("2", "x*y", "1 + 3")]
        pts = halton_points(chart, 7)
        batch = eval_jets(exprs, pts, 2)
        assert_rows_are_points(batch, pts, exprs, 2)
        assert np.array_equal(batch.value[:, [0, 2]], [[2.0, 4.0]] * 7)
        assert not batch.grad[:, [0, 2]].any() and not batch.hess[:, [0, 2]].any()

    @pytest.mark.parametrize("text", ["0.5", "sin(x)*exp(y)"])
    def test_a_scalar_field_reads_its_rows(self, text):
        chart = plane_chart()
        pts = halton_points(chart, 9)
        alone = ScalarField.from_expression(chart, text)
        field = ScalarField.from_expression(chart, text)
        for order in (2, 0, 3, 1):
            want = outcomes(alone, pts, order)
            with sample_set(pts):
                assert outcomes(field, pts, order) == want
                assert all(isinstance(field.jet(p, order).value, float) for p in pts)


class TestDomain:
    @pytest.mark.parametrize(
        "make",
        [
            lambda chart: ScalarField.from_expression(chart, "1 + sqrt(x)"),
            lambda chart: MetricField.from_diagonal(chart, ["1", "1 + sqrt(x)"]),
            lambda chart: ScalarField.from_expression(chart, "exp(exp(exp(3*x)))"),
            lambda chart: ScalarField.from_expression(chart, "y/exp(exp(exp(3*x)))"),
            lambda chart: ScalarField.from_expression(chart, "exp(3*x)^300"),
            # a derived field whose operand's set has rows that are not
            # finite: the set fails, so the field falls back to its points
            lambda chart: MetricField.euclidean(chart).scaled(ScalarField.from_expression(chart, "exp(exp(exp(3*x)))")),
        ],
        ids=["sqrt", "sqrt_metric", "overflow", "reciprocal_of_overflow", "power_overflow", "scaled_by_overflow"],
    )
    def test_each_point_raises_as_alone(self, make):
        chart = Chart(("x", "y"), (-1.0, -1.0), (1.0, 1.0))
        pts = halton_points(chart, 60)
        field = make(chart)
        with sample_set(pts):
            together = {order: outcomes(field, pts, order) for order in (1, 3, 0, 2)}
        for order, got in together.items():
            want = outcomes(make(chart), pts, order)
            assert got == want
            assert any(isinstance(o[0], type) for o in want) and any(isinstance(o[0], bytes) for o in want)

    def test_a_power_that_overflows_at_a_point_alone_raises_the_sets_error(self):
        # a Python float's ** raises OverflowError, which no skip catches
        chart = plane_chart()
        field = ScalarField.from_expression(chart, "(1e200*x)^2")
        for p in ((0.5, 0.5), halton_points(chart, 5)):
            with pytest.raises(EvaluationDomainError, match="^overflow in a power$"):
                field.jet(p, 0)

    def test_batch_rows_are_read_only(self):
        chart = plane_chart()
        pts = halton_points(chart, 5)
        g = MetricField.from_expressions(chart, [["1 + x*y", "x"], ["x", "exp(y)"]])
        with sample_set(pts):
            for J in (g.jet(pts[2], 2), g.jet(pts[3], 1), g.jet(pts[1], 2)):
                assert not any(L.flags.writeable for L in J.layers)


class TestPasses:
    CONFIG = RunConfig(samples=12, seed=0, tol=1e-8, min_valid_points=6)

    def test_a_pass_holds_its_points(self):
        chart = plane_chart()
        seen = []

        def law(p):
            seen.append((fields._samples.get().pts, p))
            return 0.0, 1.0

        run_laws(chart, self.CONFIG, [("law", law)])
        pts = halton_points(chart, self.CONFIG.samples, self.CONFIG.seed)
        ((held, asked),) = seen  # one call, on the points the pass holds
        assert held is asked and np.array_equal(held, pts) and fields._samples.get() is None

    def test_a_halton_set_is_computed_once_and_read_only(self, monkeypatch):
        from semiweyl import sampling

        calls = []
        radical_inverse = sampling._radical_inverse

        def counted(i, base):
            calls.append(1)
            return radical_inverse(i, base)

        monkeypatch.setattr(sampling, "_radical_inverse", counted)
        chart = Chart(("x", "y"), (0.25, -1.0), (1.5, 1.0))  # a box no other test samples
        pts = halton_points(chart, 17, 5)
        assert len(calls) == 2 * 17 and not pts.flags.writeable
        # an equal chart is the same key
        assert halton_points(Chart(("x", "y"), (0.25, -1.0), (1.5, 1.0)), 17, 5) is pts and len(calls) == 34
        assert not np.array_equal(halton_points(chart, 17, 6), pts) and len(calls) == 68

    def test_a_pass_that_raises_leaves_no_sample_set(self):
        chart = plane_chart()

        def law(p):
            raise ValueError("not a skip")

        with pytest.raises(ValueError):
            run_laws(chart, self.CONFIG, [("law", law)])
        assert fields._samples.get() is None
        with sample_set(halton_points(chart, 3)):
            outer = fields._samples.get()
            with pytest.raises(ValueError):
                run_laws(chart, self.CONFIG, [("law", law)])
            assert fields._samples.get() is outer
        assert fields._samples.get() is None


# -- every field -------------------------------------------------------------------

SPECS = FIXTURES + [Path(__file__).resolve().parents[1] / "perfbench" / "specs" / "domain_edge.spec"]


def a_recorded_run(monkeypatch, path):
    """The loaded spec, ``{field: orders asked}`` of every field that
    loading it and one ``run_spec`` build, and ``(residual_fn, points)``
    of every law that run evaluates."""
    asked = {}
    laws = []
    init = fields._Field.__init__
    outcomes = verdicts._outcomes

    def recording(field, chart, fn, expressions=None):
        orders = asked.setdefault(field, set())

        def recorded(p, order):
            orders.add(order)
            return fn(p, order)

        init(field, chart, recorded, expressions)

    def recording_outcomes(residual_fn, pts):
        laws.append((residual_fn, pts))
        return outcomes(residual_fn, pts)

    monkeypatch.setattr(fields._Field, "__init__", recording)
    monkeypatch.setattr(verdicts, "_outcomes", recording_outcomes)
    spec = load_spec(path)
    run_spec(spec)
    monkeypatch.undo()
    return spec, {field: sorted(orders) for field, orders in asked.items()}, laws


class Raised(NamedTuple):
    kind: type
    message: str


def outcome(call, *args):
    """``call(*args)``, or the :class:`Raised` of a point's exception."""
    try:
        return call(*args)
    except (EvaluationDomainError, fields.DegeneratePointError, SkipPoint) as exc:
        return Raised(type(exc), str(exc))


def leaf_bytes(out):
    return [np.asarray(L).tobytes() for L in fields._leaves(out)]


# alone, a point may have a contraction's terms summed in another order than
# its row of a set: each entry of its row lies within ROUNDING times (one plus
# the largest |entry| of that leaf alone) of its entry alone
ROUNDING = 1e-14


def assert_near(got, want, context):
    for a, b in zip(fields._leaves(got), fields._leaves(want), strict=True):
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape and np.all(np.abs(a - b) <= ROUNDING * (1.0 + np.abs(b).max(initial=0.0))), context


def halves(pts):
    """Two other sets holding every point of ``pts``: each point in one of
    them, with other neighbours, at another row."""
    return [pts[0::2], pts[1::2]]


class TestEveryField:
    """Each field that a spec's run builds gives each point of a set, asked
    for all of them at once, the bits it gives that point in another set
    of two or more points, and within rounding what it gives that point
    alone; a point that raises alone raises alike in every set."""

    @pytest.mark.parametrize("path", SPECS, ids=lambda p: p.stem)
    def test_a_set_gives_each_point_its_bits_in_any_set_and_near_alone(self, monkeypatch, path):
        spec, asked, _ = a_recorded_run(monkeypatch, path)
        assert any(field.expressions is None for field in asked)
        by_chart = {}
        for field, orders in asked.items():
            by_chart.setdefault(field.chart, []).extend((field, order) for order in orders)
        for chart, items in by_chart.items():
            pts = halton_points(chart, spec.config.samples, spec.config.seed)
            # outside any pass, so each point is evaluated alone, with one
            # store per point, so each field of the chains there is evaluated once
            alone = []
            for p in pts:
                with result_store():
                    alone.append([outcome(field._fn, p, order) for field, order in items])
            # each point read from its half, a set of its own store
            other = [None] * len(pts)
            for rows, half in zip(halves(np.arange(len(pts))), halves(pts)):
                with result_store(), sample_set(half):
                    for row, p in zip(rows, half):
                        other[row] = [outcome(field.jet, p, order) for field, order in items]
            with sample_set(pts):
                for i, (field, order) in enumerate(items):
                    want = [row[i] for row in alone]
                    if any(isinstance(w, Raised) for w in want):
                        with pytest.raises((EvaluationDomainError, fields.DegeneratePointError)):
                            field.jet(pts, order)
                        got = [outcome(field.jet, p, order) for p in pts]
                    else:
                        whole = field.jet(pts, order)
                        got = [fields._row(whole, row) for row in range(len(pts))]
                    for g, w, o in zip(got, want, (row[i] for row in other)):
                        if isinstance(w, Raised):
                            assert g == w == o, (field, order)
                        else:
                            assert leaf_bytes(g) == leaf_bytes(o), (field, order)
                            assert_near(g, w, (field, order))

    @pytest.mark.parametrize("path", SPECS, ids=lambda p: p.stem)
    def test_lower_orders_after_order_two_are_their_fresh_fills(self, monkeypatch, path):
        # in one store, orders 0 and 1 read after order 2 are truncations
        # of it (see fields._truncated); each fresh fill has a store of its own
        spec, asked, _ = a_recorded_run(monkeypatch, path)
        for field in asked:
            pts = halton_points(field.chart, spec.config.samples, spec.config.seed)
            for p in (pts, pts[0]):
                with result_store():
                    outcome(field.jet, p, 2)
                    after = [outcome(field.jet, p, order) for order in (0, 1)]
                for order, got in enumerate(after):
                    with result_store():
                        want = outcome(field.jet, p, order)
                    if isinstance(want, Raised):
                        assert got == want, (field, order)
                    else:
                        assert leaf_bytes(got) == leaf_bytes(want), (field, order)


def point_outcome(out):
    """``(reason,)`` of a skipped point, or the bytes ``(residual, scale)``
    of a kept one, from a law's result at that point alone."""
    if isinstance(out, Raised):
        return (out.message,)
    res, scale, *reason = out
    reason = str(reason[0]) if reason else ""
    return (reason,) if reason else (np.float64(res).tobytes(), np.float64(scale).tobytes())


def row_outcomes(out, size):
    """:func:`point_outcome` of each row of a law's result on ``size``
    points; a scalar stands for every point."""
    res, scale, *reason = out
    columns = [np.broadcast_to(x, size) for x in (res, scale, reason[0] if reason else "")]
    return [point_outcome(row) for row in zip(*columns)]


class TestEveryLaw:
    """Each law that a spec's run evaluates gives each point of its set,
    asked for all of them at once, the residual, scale and skip reason it
    gives that point in another set of two or more points, bit for bit,
    and within rounding alone; when the set call raises, some point raises
    the same alone."""

    @pytest.mark.parametrize("path", SPECS, ids=lambda p: p.stem)
    def test_a_set_gives_each_point_its_law_in_any_set_and_near_alone(self, monkeypatch, path):
        _, _, laws = a_recorded_run(monkeypatch, path)
        assert laws
        for fn, pts in laws:
            with sample_set(pts):
                whole = outcome(fn, pts)
                alone = [outcome(fn, p) for p in pts]
            if isinstance(whole, Raised):
                assert whole in [a for a in alone if isinstance(a, Raised)], fn
                continue
            other = [None] * len(pts)
            for rows, half in zip(halves(np.arange(len(pts))), halves(pts)):
                with result_store(), sample_set(half):
                    part = outcome(fn, half)
                for row, got in zip(rows, row_outcomes(part, len(half))):
                    other[row] = got
            assert row_outcomes(whole, len(pts)) == other, fn
            for got, point in zip(other, alone):
                want = point_outcome(point)
                assert len(got) == len(want), fn
                if len(want) == 1:
                    assert got == want, fn
                else:
                    (res, scale), (res_alone, scale_alone) = ([np.frombuffer(b)[0] for b in x] for x in (got, want))
                    assert max(abs(res - res_alone), abs(scale - scale_alone)) <= ROUNDING * scale_alone, fn


def set_leaves(monkeypatch, path):
    """Each array leaf of each field result on a set of two or more points
    that loading the spec at ``path`` and one ``run_spec`` keep, with the
    field and order it belongs to."""
    leaves = []
    kept = fields._kept

    def recording(store, field, order, p, where):
        out = kept(store, field, order, p, where)
        if p.ndim > 1 and len(p) > 1 and type(out) not in (fields._Raised, fields._Split):
            leaves.extend((field, order, L) for L in fields._leaves(out) if isinstance(L, np.ndarray) and L.ndim)
        return out

    monkeypatch.setattr(fields, "_kept", recording)
    run_spec(load_spec(path))
    monkeypatch.undo()
    return leaves


class TestLayout:
    """A set's arrays keep its points innermost in memory, so numpy's inner
    loops run over the points, not over a few tensor entries."""

    @pytest.mark.parametrize("path", SPECS, ids=lambda p: p.stem)
    def test_every_set_result_has_its_points_innermost(self, monkeypatch, path):
        leaves = set_leaves(monkeypatch, path)
        assert leaves
        outer = {(field._fn.__qualname__, order, L.shape, L.strides) for field, order, L in leaves if L.strides[0] != L.itemsize}
        assert not outer

    def test_a_birth_with_the_points_outermost_fails_it(self, monkeypatch):
        # the coordinate jets of a set, laid out as numpy lays out a fresh array
        coordinate_jets = expressions._coordinate_jets

        def outermost(points, order):
            return [Jet(j.n, [np.ascontiguousarray(L) for L in j.layers]) for j in coordinate_jets(points, order)]

        monkeypatch.setattr(expressions, "_coordinate_jets", outermost)
        leaves = set_leaves(monkeypatch, SPECS[0])
        assert any(L.strides[0] != L.itemsize for _, _, L in leaves)

    @pytest.mark.parametrize("shape", [(), (3,), (3, 3)], ids=["scalar", "vector", "matrix"])
    def test_a_set_constant_has_its_points_innermost(self, shape):
        c = at_points(Jet.constant(np.full(shape, 2.0), 2, 2), np.zeros((5, 2)))
        assert c.shape == (5,) + shape and all(L.strides[0] == L.itemsize for L in c.layers)
