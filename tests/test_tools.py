"""The tools under ``tools/`` run: the in-process A/B timer times two
passes of a workload with one tree on both sides."""

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
