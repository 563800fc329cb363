"""Tests of the benchmark's reference checker and host-speed probe.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import pytest  # noqa: E402

import hostspeed  # noqa: E402
import layers  # noqa: E402
import worker  # noqa: E402
from check import expected_counts, load_reference, wrong_checks  # noqa: E402

REFERENCE = load_reference()


def report_from_reference(spec, valid):
    """A report that agrees with the reference, shaped like emit_report's JSON."""
    expected = expected_counts(REFERENCE[spec], valid)
    checks = []
    for name, ref in REFERENCE[spec]["checks"].items():
        verdicts = [{"points_tested": t, "points_skipped": s} for t, s in expected[name]]
        checks.append({"name": name, "outcome": ref["outcome"], "matched": True, "verdicts": verdicts})
    return {"samples": REFERENCE[spec]["samples"], "checks": checks}


def wrong_for(spec, report, valid):
    return wrong_checks({spec: report}, REFERENCE, {spec: valid})


@pytest.mark.parametrize("spec,valid", [("swmt_eta_shift", 200), ("domain_edge", 100), ("domain_edge", 102)])
def test_agreeing_report_has_no_wrong_checks(spec, valid):
    assert wrong_for(spec, report_from_reference(spec, valid), valid) == []


def test_flipped_outcome_is_wrong():
    report = report_from_reference("negative_controls", 150)
    report["checks"][0]["outcome"] = "pass"  # is_swmt is expected to fail
    assert [w[:2] for w in wrong_for("negative_controls", report, 150)] == [["negative_controls", "is_swmt"]]


def test_skip_is_wrong_even_when_matched():
    report = report_from_reference("swmt_eta_shift", 200)
    report["checks"][1]["outcome"] = "skip"
    report["checks"][1]["matched"] = True
    assert [w[:2] for w in wrong_for("swmt_eta_shift", report, 200)] == [["swmt_eta_shift", "is_smt"]]


@pytest.mark.parametrize("field", ["points_tested", "points_skipped"])
def test_changed_point_count_is_wrong(field):
    report = report_from_reference("domain_edge", 100)
    report["checks"][2]["verdicts"][0][field] += 1
    assert [w[:2] for w in wrong_for("domain_edge", report, 100)] == [["domain_edge", "semi_dual_structure"]]


def test_counts_follow_the_seed():
    # The reference holds counts at 100 valid points; at 101 they must move.
    report = report_from_reference("domain_edge", 100)
    assert len(wrong_for("domain_edge", report, 101)) == 4


def test_missing_check_and_raising_spec_are_wrong():
    report = report_from_reference("smt_conformal_gradient", 200)
    del report["checks"][2]
    assert [w[1] for w in wrong_for("smt_conformal_gradient", report, 200)] == ["dual_structure"]
    assert len(wrong_for("smt_conformal_gradient", None, 200)) == 3


@pytest.mark.parametrize("offset", [0, 5])
def test_domain_edge_run_is_correct(offset):
    specs = worker.load_specs("domain_edge")
    _, texts = worker.verify_pass(specs, offset)
    judged = worker.judge(specs, texts, offset, REFERENCE)
    assert judged["wrong"] == []
    assert judged["attempted"] == 4
    assert 0 < judged["points"] - judged["points_tested"] < judged["points_tested"]


def test_benchmark_json_lists_every_layer_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert listed == [row[:3] for row in layers.per_layer()]


def test_speed_probe_samples_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.SpeedProbe() as probe:
        start = time.perf_counter()
        end = start + 0.2
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.slices) >= 3 and 0 < sum(probe.spent) < 0.2
    whole = probe.normalize(start, end)
    halves = probe.normalize(start, start + 0.1) + probe.normalize(start + 0.1, end)
    assert 0 < whole and abs(halves - whole) < 0.5 * whole


def test_speed_probe_normalizes_an_interval_without_slices():
    with hostspeed.SpeedProbe() as probe:
        start = time.perf_counter()
    assert len(probe.slices) == 1
    assert probe.normalize(start, start + 1e-4) > 0
