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

    @pytest.mark.parametrize(
        "line", ["samples = 0", "samples = -3", "seed = -1", "min_valid_points = 0", "tol = nan", "tol = inf", "tol = -1e-8"]
    )
    def test_a_run_option_that_tests_nothing_is_an_error(self, tmp_path, line):
        name = line.split()[0]
        with pytest.raises(SpecError) as exc:
            load_spec(write(tmp_path, MINIMAL + f"\n[run]\n{line}\n"))
        assert any(m.startswith(f"[run] {name} must be") for m in exc.value.errors)

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

    def test_missing_blocks_are_named_in_block_order(self, tmp_path):
        # umbilic_preservation takes the hypersurface frame and the
        # transform: the frame needs [submanifold], named before [transform]
        with pytest.raises(SpecError) as exc:
            load_spec(write(tmp_path, MINIMAL.replace("is_statistical", "umbilic_preservation")))
        assert exc.value.errors == [
            "check 'umbilic_preservation' requires a [submanifold] block",
            "check 'umbilic_preservation' requires a [transform] block",
        ]

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

    @pytest.mark.parametrize("k", [12, 13])
    def test_a_chart_has_at_most_one_coordinate_per_halton_prime(self, tmp_path, k):
        names, box = ", ".join(f"x{i}" for i in range(k)), ", ".join(["0.2 .. 1.0"] * k)
        text = MINIMAL.replace("coords = x, y", f"coords = {names}").replace("domain = 0.2 .. 1.0, 0.2 .. 1.0", f"domain = {box}")
        if k == 12:
            assert load_spec(write(tmp_path, text)).chart.dim == 12
            return
        with pytest.raises(SpecError) as exc:
            load_spec(write(tmp_path, text))
        assert exc.value.errors[0] == "line 3: a chart has at most 12 coordinates to sample, got 13"

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


class TestRepeatedKeys:
    """Only ``add`` may repeat in a section: a repeated run option kept its
    last value, and a repeated check ran once per listing."""

    def load_errors(self, tmp_path, text):
        with pytest.raises(SpecError) as exc:
            load_spec(write(tmp_path, text))
        return exc.value.errors

    def test_a_repeated_run_option_names_both_lines(self, tmp_path):
        errors = self.load_errors(tmp_path, MINIMAL + "\n[run]\nsamples = 60\nsamples = 70\n")
        assert errors == ["line 14: key 'samples' appears more than once in [run], on lines 13 and 14"]

    def test_a_check_listed_twice_names_both_lines(self, tmp_path):
        # is_swmt then is_swmt = fail ran twice, with opposite expectations
        errors = self.load_errors(tmp_path, MINIMAL.replace("is_statistical", "is_swmt\nis_swmt = fail"))
        assert errors == ["line 11: check 'is_swmt' is listed more than once in [checks], on lines 10 and 11"]

    def test_a_key_repeated_under_a_second_header_of_its_section(self, tmp_path):
        errors = self.load_errors(tmp_path, MINIMAL + "\n[metric]\ntype = euclidean\n")
        assert errors == ["line 13: key 'type' appears more than once in [metric], on lines 7 and 13"]

    def test_every_repeat_is_reported(self, tmp_path):
        text = MINIMAL.replace("coords = x, y", "coords = x, y\ncoords = x, y") + "is_statistical = fail\n"
        assert [m.split(":")[0] for m in self.load_errors(tmp_path, text)] == ["line 4", "line 12"]

    def test_add_may_repeat(self, tmp_path):
        spec = load_spec(write(tmp_path, MINIMAL.replace("[checks]", """[eta]
components = y, x

[connection]
base = levi_civita
add = eta_tensor_I
add = I_tensor_dphi(x*y)

[checks]""")))
        assert spec.checks == [("is_statistical", "pass")]

    def test_verify_exits_2(self, tmp_path, capsys):
        from semiweyl.cli import main

        path = write(tmp_path, MINIMAL + "\n[run]\nseed = 1\nseed = 2\n")
        assert main(["verify", path]) == 2
        assert "on lines 13 and 14" in capsys.readouterr().err
