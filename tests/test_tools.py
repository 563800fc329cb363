"""The tools under ``tools/`` run: the in-process A/B timer times two
passes of a workload with one tree on both sides, the first-pass timer
one fresh process per side, and the report comparer finds a tree's reports
equal to its own."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_the_ab_timer_runs_one_tree_against_itself():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_inprocess.py"), str(ROOT), str(ROOT), "--workload", "affine", "--passes", "2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    a, b, ratio = proc.stdout.splitlines()
    assert a.startswith("a: median") and b.startswith("b: median") and ratio.startswith("b/a median")
    assert sum(int(line.split("wins ")[1].split("/")[0]) for line in (a, b)) <= 2


def test_the_first_pass_timer_runs_one_tree_against_itself():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "first_pass.py"), str(ROOT), str(ROOT), "--workload", "affine",
         "--processes", "1"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    a, b = proc.stdout.splitlines()
    for key, line in (("a", a), ("b", b)):
        assert line.startswith(f"{key}: fastest ") and " median " in line
        assert line.split("within 20 ms ")[1] in ("0/1", "1/1")


def test_the_report_comparer_finds_one_tree_like_itself():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "same_reports.py"), str(ROOT), str(ROOT)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == ["22 reports compared, 0 differences"]
