import json
import os
import re
import subprocess
import sys
import textwrap

import pytest

from semiweyl.cli import main
from semiweyl.registry import REGISTRY
from semiweyl.report import CheckReport, emit_report, run_spec
from semiweyl.sampling import PRIMES
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

    @pytest.mark.parametrize("option,value", [("--seed", "-1"), ("--samples", "0"), ("--samples", "-1"), ("--tol", "nan")])
    def test_an_override_that_tests_nothing_exits_two(self, tmp_path, capsys, option, value):
        # seed -1 samples one corner point over again; 0 samples test none
        assert main(["verify", write(tmp_path, MINI_PASS), option, value]) == 2
        assert capsys.readouterr().err.startswith(f"error: {option[2:]} must be")

    @pytest.mark.parametrize("line", ["min_valid_points = 0", "tol = nan"])
    def test_a_run_option_that_tests_nothing_exits_two(self, tmp_path, capsys, line):
        # min_valid_points = 0 passes a law that tested no point
        assert main(["verify", write(tmp_path, MINI_PASS.replace("min_valid_points = 40", line))]) == 2
        assert f"error: [run] {line.split()[0]} must be" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "name,needs",
        [
            ("is_swmt", "structure"),
            ("gradient_codazzi_identity", "structure, transform"),
            # takes (embedding, structure, transform): blocks keep their order
            ("induced_cp_equivalence", "structure, submanifold, transform"),
            ("umbilic_preservation", "structure, submanifold, transform"),
            ("screen_cp_equivalence", "structure, lightlike, transform"),
            ("xi_rescale_laws_inner", "affine, affine_psi"),
        ],
    )
    def test_needs_follow_from_the_check_arguments(self, capsys, name, needs):
        assert main(["list-checks"]) == 0
        (line,) = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith(name + " ")]
        assert line.endswith(f"[needs: {needs}]")

    def test_output_is_unchanged(self, capsys):
        # the listing as it was while the registry imported every check
        # family up front
        assert main(["list-checks"]) == 0
        with open(os.path.join(os.path.dirname(__file__), "list_checks.txt"), encoding="utf-8") as fh:
            assert capsys.readouterr().out == fh.read()


# run in a fresh interpreter: the specs given, then the names of the
# check-family modules it imported
INTRINSIC_RUN = """
import sys
from semiweyl.report import run_spec
from semiweyl.specfile import load_spec
for name in sys.argv[1:]:
    spec = load_spec(name)
    assert run_spec(spec).all_expectations_met, name
print(sorted({"affine", "hypersurfaces", "lightlike"} & {m.rpartition(".")[2] for m in sys.modules}))
"""
INTRINSIC = ["swmt_eta_shift", "smt_conformal_gradient", "conformally_flat", "conformal_projective_suite",
             "negative_controls"]


def test_an_intrinsic_run_imports_no_other_check_family():
    # the affine and domain-edge runs never import the embedded families
    # either, so a change to those runs no code of theirs
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    runs = [
        ([fixture(f"{name}.spec") for name in INTRINSIC], "[]"),
        ([fixture("centroaffine_sphere.spec")], "['affine']"),
        ([os.path.join(FIXTURES, "..", "perfbench", "specs", "domain_edge.spec")], "[]"),
    ]
    for paths, families in runs:
        proc = subprocess.run(
            [sys.executable, "-c", INTRINSIC_RUN, *paths], capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.splitlines()[-1] == families, paths


class TestOracle:
    # output and exit codes; tests/test_taylor_oracle.py sweeps the fixtures
    @pytest.mark.parametrize("name", ["swmt_eta_shift", "conformally_flat"])
    def test_oracle_agrees_on_fixture(self, capsys, name):
        assert main(["oracle", fixture(name + ".spec"), "--points", "12"]) == 0
        *lines, last = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "structure.g", "structure.eta", "structure.conn", "semi_dual.conn",
            "transformed.g", "transformed.conn", "phi", "psi",
        ]
        pattern = r"[\w.]+: 12 points, 0 left out, worst defect \S+ at k=[0-3] \([^)]*\), 0 over the bound at H, 0 not 3x lower at H/2"
        assert all(re.fullmatch(pattern, line) for line in lines), lines
        assert last == "k = 0..3, H = 0.0001, bound 2e-06: oracle agrees"

    def test_a_field_that_compares_no_point_fails(self, tmp_path, capsys):
        # the metric overflows at every point, so the fields built on it
        # compare none, and the potentials compare all
        text = MINI_PASS.replace("g_2_2 = x*x", "g_2_2 = 1 + 1e-300*(1e200*x)^2")
        assert main(["oracle", write(tmp_path, text), "--points", "5"]) == 1
        first, second, *_, last = capsys.readouterr().out.splitlines()
        assert first.startswith("structure.g: 0 points, 5 left out, worst defect nan") and first.endswith(": FAILS")
        assert second.startswith("structure.eta: 5 points, 0 left out,") and last.endswith("oracle DISAGREES")

    def test_oracle_bad_spec_exits_two(self, capsys):
        assert main(["oracle", "missing.spec"]) == 2

    @pytest.mark.parametrize("command", ["verify", "oracle"])
    def test_a_chart_too_large_to_sample_exits_two(self, tmp_path, capsys, command):
        # it loaded, and then halton_points raised a ValueError: exit 1
        k = len(PRIMES) + 1
        text = (f"[manifold]\ncoords = {', '.join(f'x{i}' for i in range(k))}\ndomain = {', '.join(['0.2 .. 1.0'] * k)}\n"
                "[metric]\ntype = euclidean\n[checks]\nis_statistical\n")
        assert main([command, write(tmp_path, text)]) == 2
        # the chart's error alone: the [metric] block is there (the check also
        # said it required one when the chart failed to parse)
        assert capsys.readouterr().err == f"error: line 2: a chart has at most 12 coordinates to sample, got {k}\n"

    @pytest.mark.parametrize("points", [0, -1])
    def test_oracle_rejects_fewer_than_one_point(self, capsys, points):
        # 0 compared nothing and reported agreement; -1 raised in halton_points
        assert main(["oracle", fixture("swmt_eta_shift.spec"), "--points", str(points)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: --points must be at least 1, got {points}\n"


class TestFixtureSuite:
    @pytest.mark.parametrize(
        "name",
        [
            "smt_conformal_gradient.spec",
            "swmt_eta_shift.spec",
            "negative_controls.spec",
            "null_cone.spec",
        ],
    )
    def test_fixture_expectations_met(self, name, capsys):
        assert main(["verify", fixture(name), "--samples", "80"]) == 0


class TestSkipReasons:
    def test_a_check_detail_keeps_the_too_few_points_reason(self, capsys):
        path = fixture("conformal_projective_suite.spec")
        assert main(["verify", path, "--samples", "10", "--report", "json"]) == 1
        d = json.loads(capsys.readouterr().out)
        (v,) = next(c for c in d["checks"] if c["name"] == "cp_codazzi_scaling")["verdicts"]
        assert v["skipped"]
        assert v["detail"].startswith("antisymmetrized nabla g scales by the conformal factor; too few valid points (10 < 50)")

    def test_a_power_that_overflows_at_every_point_skips_each_point(self, tmp_path, capsys):
        # the domain_edge benchmark spec with a metric whose power overflows
        # at each point of a domain where x > 0: each point is skipped with
        # the reason, where a point alone raised a bare OverflowError
        with open(os.path.join(FIXTURES, "..", "perfbench", "specs", "domain_edge.spec"), encoding="utf-8") as fh:
            text = fh.read()
        variant = text.replace("\ng_2_2 = 1 + sqrt(x)\n", "\ng_2_2 = 1 + 1e-300*(1e200*x)^2\n")
        variant = variant.replace("domain = -0.6 .. 1.2,", "domain = 0.1 .. 1.2,")
        assert variant.count("1e200") == 1 and "domain = 0.1 .. 1.2," in variant
        assert main(["verify", write(tmp_path, variant), "--report", "json"]) == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert [c["outcome"] for c in checks] == ["skip"] * 4
        verdicts = [v for c in checks for v in c["verdicts"]]
        assert all(v["points_tested"] == 0 and v["points_skipped"] >= 150 for v in verdicts)
        assert [v["detail"] for v in verdicts[:2]] == ["too few valid points (0 < 50): overflow in a power"] * 2


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
