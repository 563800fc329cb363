import textwrap

import pytest

from semiweyl.specfile import SpecError, load_spec, parse_sections

MINIMAL = """
[manifold]
coords = x, y
domain = 0.2 .. 1.0, 0.2 .. 1.0

[metric]
type = euclidean

[checks]
is_statistical
"""


def write(tmp_path, text, name="test.spec"):
    p = tmp_path / name
    p.write_text(textwrap.dedent(text))
    return str(p)


class TestParsing:
    def test_sections_and_comments(self):
        out = parse_sections("# hi\n[a]\nk = v # trailing\nbare\n[b]\nx = 1\n")
        assert set(out) == {"a", "b"}
        assert [(e.key, e.value) for e in out["a"]] == [("k", "v"), ("bare", "")]

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(SpecError) as exc:
            parse_sections("key_before_section = 1\n[ok]\n[broken\n")
        msgs = exc.value.errors
        assert any(m.startswith("line 1:") for m in msgs)
        assert any(m.startswith("line 3:") for m in msgs)


class TestLoading:
    def test_minimal_spec(self, tmp_path):
        spec = load_spec(write(tmp_path, MINIMAL))
        assert spec.chart.dim == 2
        assert spec.checks == [("is_statistical", "pass")]
        assert spec.structure is not None

    def test_defaults(self, tmp_path):
        spec = load_spec(write(tmp_path, MINIMAL))
        assert spec.config.samples == 200
        assert spec.config.tol == 1e-8
        assert spec.config.min_valid_points == 50

    def test_jet_order_is_an_unknown_run_option(self, tmp_path):
        with pytest.raises(SpecError) as exc:
            load_spec(write(tmp_path, MINIMAL + "\n[run]\njet_order = 3\n"))
        assert any("unknown run option 'jet_order'" in m for m in exc.value.errors)

    def test_missing_block_error_names_the_block(self, tmp_path):
        with pytest.raises(SpecError) as exc:
            load_spec(write(tmp_path, """
            [manifold]
            coords = x, y
            domain = 0 .. 1, 0 .. 1

            [metric]
            type = euclidean

            [checks]
            gauss_equation
            """))
        assert any("submanifold" in m for m in exc.value.errors)

    def test_unknown_check(self, tmp_path):
        with pytest.raises(SpecError) as exc:
            load_spec(write(tmp_path, MINIMAL.replace("is_statistical", "no_such_check")))
        assert any("unknown check" in m for m in exc.value.errors)

    def test_all_errors_reported_not_just_first(self, tmp_path):
        with pytest.raises(SpecError) as exc:
            load_spec(write(tmp_path, """
            [manifold]
            coords = x, y
            domain = 0 .. 1, 0 .. 1

            [metric]
            diag = 1 + , 1       # bad expression

            [run]
            samples = many        # bad int

            [checks]
            bogus = pass
            is_swmt = maybe
            """))
        msgs = "\n".join(exc.value.errors)
        assert "diag" in msgs
        assert "samples" in msgs
        assert "bogus" in msgs
        assert "maybe" in msgs

    def test_bad_expression_reports_line(self, tmp_path):
        with pytest.raises(SpecError) as exc:
            load_spec(write(tmp_path, MINIMAL.replace("type = euclidean", "diag = sin(, x")))
        assert any(m.startswith("line ") for m in exc.value.errors)

    def test_metric_symmetry_enforced(self, tmp_path):
        with pytest.raises(SpecError) as exc:
            load_spec(write(tmp_path, """
            [manifold]
            coords = x, y
            domain = 0.2 .. 1.0, 0.2 .. 1.0

            [metric]
            g_1_2 = x
            g_2_1 = y

            [checks]
            is_statistical
            """))
        assert any("symmetric" in m for m in exc.value.errors)

    def test_expression_sources_collected(self, tmp_path):
        spec = load_spec(write(tmp_path, """
        [manifold]
        coords = x, y
        domain = 0.2 .. 1.0, 0.2 .. 1.0

        [metric]
        diag = 1 + x*x, exp(y)

        [eta]
        components = y, x

        [checks]
        is_swmt
        """))
        labels = [label for label, _c, _e in spec.expression_sources]
        assert any("diag" in l for l in labels)
        assert any("eta" in l for l in labels)
