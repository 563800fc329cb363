"""``tools/ab.py``: the verdict rule on recorded benchmark values, a failed
run kept with its exit code and stderr, and each command run with one tree
on both sides."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import ab  # noqa: E402

METRICS = {m["name"]: m for m in ab.benchmark()["end_to_end"]}
# embedded verify_s of ten alternating pairs before and after a -11 % change
PARENT = [0.02128, 0.02102, 0.02167, 0.02110, 0.02141, 0.02150, 0.02119, 0.02162, 0.02105, 0.02133]
FASTER = [0.01877, 0.01861, 0.01904, 0.01870, 0.01892, 0.01899, 0.01866, 0.01910, 0.01858, 0.01885]


def verdict(name, parent, change):
    return ab.compare(METRICS[name], parent, change).split()[-1]


class TestTheVerdictRule:
    def test_nine_of_ten_pairs_and_medians_beyond_the_spread_are_a_gain(self):
        line = ab.compare(METRICS["verify_s"], PARENT, FASTER)
        assert line.endswith("won 10 of 10  gain") and "-11.7%" in line
        assert verdict("points_per_s", [1 / t for t in PARENT], [1 / t for t in FASTER]) == "gain"

    def test_a_failed_run_loses_its_pair(self):
        one, two = FASTER.copy(), FASTER.copy()
        one[3] = None
        two[3] = two[6] = None
        assert verdict("verify_s", PARENT, one) == "gain"
        assert ab.compare(METRICS["verify_s"], PARENT, two).endswith("won 8 of 10  unchanged")

    def test_too_few_pairs_show_no_gain(self):
        assert verdict("verify_s", PARENT[:5], FASTER[:5]) == "unchanged"

    def test_worse_than_the_bound_is_a_regression(self):
        assert verdict("verify_s", PARENT, [1.25 * t for t in PARENT]) == "regression"
        assert verdict("verify_s", PARENT, [1.15 * t for t in PARENT]) == "unchanged"
        assert verdict("right_outcome_ratio", [1.0] * 10, [0.98] * 10) == "regression"

    def test_runs_spread_wider_than_the_bound_are_unresolved(self):
        wide = [0.015, 0.030, 0.016, 0.029, 0.021, 0.022, 0.014, 0.031, 0.020, 0.023]
        assert verdict("verify_s", wide, wide[1:] + wide[:1]) == "unresolved"
        assert verdict("verify_s", PARENT, wide) == "unresolved"
        # unless every run of the change reads better than every run of the parent
        assert verdict("verify_s", [3 * t for t in wide], wide) == "gain"
        assert verdict("verify_s", [3 * t for t in wide][:5], wide[:5]) == "unchanged"

    def test_no_successful_run_of_a_side_is_unresolved(self):
        assert verdict("verify_s", PARENT, [None] * 10) == "unresolved"


def fake_tree(path, run_py):
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(run_py)
    return path


RECORDED = {name: {"value": value, "unit": METRICS[name]["unit"]} for name, value in
            [("verify_s", 0.0188), ("points_per_s", 55000.0), ("setup_s", 0.11), ("peak_rss_mb", 38.4),
             ("right_outcome_ratio", 1.0)]}


def test_a_failed_run_is_printed_with_its_exit_code_and_stderr(tmp_path, capsys):
    parent = fake_tree(tmp_path / "parent", "raise IndexError('list index out of range')\n")
    change = fake_tree(tmp_path / "change", f"print({json.dumps({'correct': True, 'metrics': RECORDED})!r})\n")
    assert ab.pairs(parent, change, "affine", runs=1, seconds=0.1) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "  parent run of pair 0 exited with code 1:"
    assert out[2].startswith("    Traceback") and out[-7] == "    IndexError: list index out of range"
    assert out[-6].startswith("verify_s (s, lower is better): no run of a side succeeded")
    assert out[-1] == "1 of 2 runs failed"


def test_the_report_comparer_finds_one_tree_like_itself():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), "reports", str(ROOT), str(ROOT)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == ["22 reports compared, 0 differences"]


def test_a_short_pairs_run_of_one_tree(capsys):
    # intrinsic: affine's first pass may end inside the host-speed probe's
    # first period, where the benchmark's worker exits 1
    code = ab.pairs(ROOT, ROOT, "intrinsic", runs=1, seed=0, seconds=0.1)
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "intrinsic: 1 pairs of perfbench/run.py --workload intrinsic --seed 0 --seconds 0.1 --trace 0"
    assert out[-1] == "0 of 2 runs failed"
    # one pair shows no gain; one run a side may differ by more than a bound
    words = [line.split()[-1] for line in out[1:-1]]
    assert [line.split()[0] for line in out[1:-1]] == list(METRICS)
    assert set(words) <= {"unchanged", "unresolved", "regression"} and code == ("regression" in words)


def test_the_first_pass_timer_runs_one_tree_against_itself(capsys):
    assert ab.first_pass(ROOT, ROOT, "affine", runs=1) == 0
    for side, line in zip(ab.SIDES, capsys.readouterr().out.splitlines(), strict=True):
        assert line.startswith(f"{side}: fastest ") and " median " in line
        assert line.split("within 20 ms ")[1] in ("0/1", "1/1")
