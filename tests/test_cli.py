import json
import os
import textwrap

import pytest

from semiweyl.cli import main
from semiweyl.registry import REGISTRY
from semiweyl.report import CheckReport, emit_report, run_spec
from semiweyl.specfile import load_spec

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


MINI_PASS = """
[manifold]
coords = x, y
domain = 0.3 .. 1.2, 0.3 .. 1.2

[metric]
g_1_1 = 1
g_2_2 = x*x

[eta]
components = y, sin(x)

[connection]
base = levi_civita
add = eta_tensor_I

[run]
samples = 80
seed = 0
min_valid_points = 40

[checks]
is_swmt = pass
is_smt = fail
"""


def write(tmp_path, text, name="t.spec"):
    p = tmp_path / name
    p.write_text(textwrap.dedent(text))
    return str(p)


class TestExitCodes:
    def test_all_expectations_met_exits_zero(self, tmp_path, capsys):
        assert main(["verify", write(tmp_path, MINI_PASS)]) == 0

    def test_violated_expectation_exits_one(self, tmp_path, capsys):
        bad = MINI_PASS.replace("is_smt = fail", "is_smt = pass")
        assert main(["verify", write(tmp_path, bad)]) == 1

    def test_tiny_tolerance_flips_to_one(self, tmp_path, capsys):
        assert main(["verify", write(tmp_path, MINI_PASS), "--tol", "1e-30"]) == 1

    def test_missing_file_exits_two(self, capsys):
        assert main(["verify", "does-not-exist.spec"]) == 2

    def test_invalid_spec_exits_two(self, tmp_path, capsys):
        assert main(["verify", write(tmp_path, "[checks]\nnope\n")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err


class TestReports:
    def test_json_schema(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main(["verify", write(tmp_path, MINI_PASS), "--report", "json", "--out", str(out_path)]) == 0
        d = json.loads(out_path.read_text())
        assert d["schema_version"] == 1
        assert [c["name"] for c in d["checks"]] == ["is_swmt", "is_smt"]
        for c in d["checks"]:
            assert set(c) >= {"name", "anchor", "expectation", "outcome", "matched", "max_residual", "verdicts"}
        assert d["summary"]["expectations_met"] is True

    def test_determinism_modulo_wall_time(self, tmp_path):
        spec = load_spec(write(tmp_path, MINI_PASS))
        a, b = (run_spec(spec) for _ in range(2))
        da, db = a.as_dict(), b.as_dict()
        da.pop("wall_time_s"), db.pop("wall_time_s")
        assert json.dumps(da) == json.dumps(db)

    def test_empty_report(self):
        r = CheckReport(spec_path="none", samples=0, seed=0, tol=1e-8, results=[])
        d = json.loads(emit_report(r, "json"))
        assert d["checks"] == []
        assert emit_report(r, "text")  # human table renders

    def test_seed_changes_sample_points_not_verdicts(self, tmp_path, capsys):
        path = write(tmp_path, MINI_PASS)
        assert main(["verify", path, "--seed", "5"]) == 0
        assert main(["verify", path, "--seed", "6"]) == 0


class TestListChecks:
    def test_every_check_printed_with_anchor(self, capsys):
        assert main(["list-checks"]) == 0
        out = capsys.readouterr().out
        for name, entry in REGISTRY.items():
            assert name in out
            assert entry.anchor in out


class TestOracle:
    def test_oracle_agrees_on_fixture(self, capsys):
        assert main(["oracle", fixture("conformal_projective_suite.spec")]) == 0
        out = capsys.readouterr().out
        assert "agrees" in out

    def test_oracle_bad_spec_exits_two(self, capsys):
        assert main(["oracle", "missing.spec"]) == 2


class TestFixtureSuite:
    @pytest.mark.parametrize(
        "name",
        [
            "smt_conformal_gradient.spec",
            "swmt_eta_shift.spec",
            "negative_controls.spec",
        ],
    )
    def test_fixture_expectations_met(self, name, capsys):
        assert main(["verify", fixture(name), "--samples", "80"]) == 0


class TestSkipsAreNotAgreement:
    def test_skips_do_not_meet_pass_or_fail_expectations(self, capsys):
        path = fixture("negative_controls.spec")
        assert main(["verify", path, "--samples", "10", "--report", "json"]) == 1
        d = json.loads(capsys.readouterr().out)
        assert {c["name"]: c["outcome"] for c in d["checks"]} == {
            "is_swmt": "skip",
            "is_smt": "skip",
            "is_statistical": "skip",
            "cp_structure_invariance": "skip",
        }
        assert d["summary"]["expectations_met"] is False

    def test_unmet_ambient_hypothesis_exits_one(self, tmp_path, capsys):
        with open(fixture("sphere_hypersurface.spec"), encoding="utf-8") as fh:
            text = fh.read()
        broken = text.replace("add = eta_tensor_I\n", "add = eta_tensor_I\nadd = g_tensor_gradient(0.5*x*y)\n")
        assert broken != text
        path = tmp_path / "broken_ambient.spec"
        path.write_text(broken)
        assert main(["verify", str(path), "--samples", "60", "--report", "json"]) == 1
        outcomes = {c["name"]: c["outcome"] for c in json.loads(capsys.readouterr().out)["checks"]}
        assert outcomes["induced_structure"] == "skip"
        assert outcomes["beta_symmetry"] == "skip"

    def test_expected_skip_is_met(self, tmp_path, capsys):
        text = MINI_PASS.replace("is_swmt = pass", "is_swmt = skip").replace("is_smt = fail", "is_smt = skip")
        assert main(["verify", write(tmp_path, text), "--samples", "10"]) == 0
