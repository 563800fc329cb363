"""First-pass timing of two source trees on one workload, one fresh
process per run.

    python3 tools/first_pass.py A_ROOT B_ROOT --workload W [--processes N]

Each root is a checkout holding ``src/semiweyl`` and ``perfbench``.  A run
starts a fresh interpreter on one tree, imports the benchmark's worker and
times its first pass of the workload: ``worker.load_specs`` and
``worker.verify_pass``, which the first pass of ``worker.py run`` makes
inside its host-speed probe.  The probe takes its first sample
``hostspeed.PERIOD_S`` (20 ms) after it starts, so a first pass that ends
sooner finds none to scale by.  The runs alternate between the trees, the
side that goes first swapping every round, N runs each.  Prints each
side's fastest and median seconds, and how many of its runs ended within
that period.
"""

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from hostspeed import PERIOD_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# the child, run in the tree's root: the seconds of its first pass
CHILD = """
import sys, time
import worker
t0 = time.perf_counter()
worker.verify_pass(worker.load_specs(sys.argv[1]), 0)
print(time.perf_counter() - t0)
"""


def first_pass(root, workload):
    """Seconds of the first pass of ``workload`` in a fresh interpreter on
    the tree ``root``, set up as the benchmark sets up its workers."""
    root = Path(root).resolve()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]), PYTHONHASHSEED="0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, "-c", CHILD, workload], cwd=root, env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a_root")
    parser.add_argument("b_root")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--processes", type=int, default=20)
    args = parser.parse_args(argv)
    roots = {"a": args.a_root, "b": args.b_root}
    times = {"a": [], "b": []}
    for i in range(args.processes):
        for key in ("ab" if i % 2 == 0 else "ba"):
            times[key].append(first_pass(roots[key], args.workload))
    for key in "ab":
        within = sum(t < PERIOD_S for t in times[key])
        print(f"{key}: fastest {min(times[key]):.4f} s  median {statistics.median(times[key]):.4f} s  "
              f"within {PERIOD_S * 1000:g} ms {within}/{args.processes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
