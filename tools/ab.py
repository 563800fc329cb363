"""Paired comparison of a parent and a changed source tree.

    python3 tools/ab.py pairs PARENT CHANGE --workload W [--runs N] [--seed S]
    python3 tools/ab.py reports PARENT CHANGE
    python3 tools/ab.py first-pass PARENT CHANGE --workload W [--runs N]

Each tree is a source checkout.  Every run is a fresh interpreter in its
own tree, set up as the benchmark sets up its children (the tree's ``src``
and ``perfbench`` on the path, single-threaded, hash seed 0); the trees'
runs alternate, the side that goes first swapping every pair.

- ``pairs``: N pairs (10 by default) of each tree's own
  ``perfbench/run.py --trace 0`` at seed offset S, each run ``run_seconds``
  of ``BENCHMARK.json`` long.  For every ``end_to_end`` metric it prints
  each side's median and quartiles, the pairs the change won in the
  metric's ``better`` direction, and a verdict.  ``gain``: at least 9 pairs
  won and 9 in 10 of them, and the medians further apart than the parent's
  quartiles.  ``regression``: worse than the parent's median by more than
  the metric's ``bound``.  ``unresolved``: a side's quartiles further apart
  than that bound, unless every change run reads better than every parent
  run.  ``unchanged``: otherwise.  A run that exits non-zero loses its pair
  and is printed with its exit code and stderr tail.  Exits 1 on a failed
  run or a regression.
- ``reports``: runs every spec of ``fixtures`` and
  ``perfbench/specs/domain_edge.spec`` at its seed and at the seed plus 3,
  and prints each verdict whose report (``run_spec(...).as_dict()`` but
  the wall time and spec path) differs in any bit, floats compared by
  ``repr``.  Exits 1 on any difference.
- ``first-pass``: N runs a side (20 by default) of the first pass the
  benchmark's worker makes inside its host-speed probe.  Prints each side's
  fastest and median seconds, and how many runs ended within the probe's
  period, before its first sample.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED_OFFSETS = (0, 3)
SIDES = ("parent", "change")

# run in a tree: the reports of the specs named in argv, one JSON line each
REPORTS = f"""
import json, sys
from semiweyl.report import run_spec
from semiweyl.specfile import load_spec
for path in sys.argv[1:]:
    for offset in {SEED_OFFSETS}:
        spec = load_spec(path)
        out = run_spec(spec, spec.config.with_(seed=spec.config.seed + offset)).as_dict()
        del out["wall_time_s"], out["spec"]
        print(json.dumps(out))
"""

# run in a tree: the seconds of the worker's first pass, and the probe's period
FIRST_PASS = """
import sys, time
import hostspeed, worker
t0 = time.perf_counter()
worker.verify_pass(worker.load_specs(sys.argv[1]), 0)
print(time.perf_counter() - t0, hostspeed.PERIOD_S)
"""


def benchmark():
    """The declaration of the benchmark, ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def in_tree(root, *argv):
    """``python argv`` run to completion in a fresh interpreter in the tree
    ``root``, set up as the benchmark sets up its children."""
    root = Path(root).resolve()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run([sys.executable, *argv], cwd=root, env=env, capture_output=True, text=True, timeout=600)


def in_turn(parent, change, runs):
    """``(pair, side, tree)`` for ``runs`` pairs, the side that goes first
    swapping every pair."""
    trees = dict(zip(SIDES, (parent, change)))
    return [(i, side, trees[side]) for i in range(runs) for side in (SIDES if i % 2 == 0 else SIDES[::-1])]


def quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def compare(metric, parent, change):
    """One line on the ``end_to_end`` ``metric`` of ``BENCHMARK.json`` over
    pairs of runs, ending in its verdict: ``parent[i]`` and ``change[i]`` are
    pair ``i``'s values, None for a run that failed."""
    sign = 1 if metric["better"] == "lower" else -1
    wins = sum(p is not None and c is not None and sign * (p - c) > 0 for p, c in zip(parent, change))
    line = f"{metric['name']} ({metric['unit']}, {metric['better']} is better):"
    p, c = [v for v in parent if v is not None], [v for v in change if v is not None]
    if not p or not c:
        return f"{line} no run of a side succeeded  unresolved"
    (p1, pm, p3), (c1, cm, c3), bound = quartiles(p), quartiles(c), metric["bound"]
    if wins >= 9 and 10 * wins >= 9 * len(parent) and sign * (pm - cm) > p3 - p1:
        word = "gain"
    elif sign * (cm - pm) > bound * abs(pm):
        word = "regression"
    elif (p3 - p1 > bound * abs(pm) or c3 - c1 > bound * abs(cm)) and max(sign * v for v in c) >= min(sign * v for v in p):
        word = "unresolved"
    else:
        word = "unchanged"
    change_pct = f"{cm / pm - 1:+.1%}" if pm else "n/a"
    return (f"{line} parent {pm:.6g} ({p1:.6g} .. {p3:.6g})  change {cm:.6g} ({c1:.6g} .. {c3:.6g})  "
            f"{change_pct}  won {wins} of {len(parent)}  {word}")


def pairs(parent, change, workload, runs=10, seed=0, seconds=None):
    """Prints the comparison of ``runs`` benchmark pairs on ``workload``, each
    run ``seconds`` long (``run_seconds`` of the benchmark when None), and
    returns the exit code of ``pairs`` (see the module docstring)."""
    bench = benchmark()
    seconds = bench["run_seconds"] if seconds is None else seconds
    argv = ["perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    print(f"{workload}: {runs} pairs of {' '.join(argv)}")
    metrics = {side: [None] * runs for side in SIDES}
    failed = 0
    for i, side, tree in in_turn(parent, change, runs):
        proc = in_tree(tree, *argv)
        if proc.returncode == 0:
            metrics[side][i] = json.loads(proc.stdout.splitlines()[-1])["metrics"]
            continue
        failed += 1
        tail = "\n".join("    " + line for line in proc.stderr.strip().splitlines()[-6:])
        print(f"  {side} run of pair {i} exited with code {proc.returncode}:\n{tail}")
    lines = [compare(m, *([(r or {}).get(m["name"], {}).get("value") for r in metrics[side]] for side in SIDES))
             for m in bench["end_to_end"]]
    print("\n".join(lines))
    print(f"{failed} of {2 * runs} runs failed")
    return 1 if failed or any(line.endswith(" regression") for line in lines) else 0


def differences(a, b):
    """``(where, a's part, b's part)`` of each verdict that differs between
    the reports ``a`` and ``b`` (of the whole check when its verdicts do not
    line up), and of each other field that differs."""
    out = [(key, a[key], b.get(key)) for key in a if key != "checks" and repr(a[key]) != repr(b.get(key))]
    if [c["name"] for c in a["checks"]] != [c["name"] for c in b["checks"]]:
        return out + [("checks", a["checks"], b["checks"])]
    for x, y in zip(a["checks"], b["checks"]):
        if repr(x) != repr(y):
            rows = zip(x["verdicts"], y["verdicts"]) if len(x["verdicts"]) == len(y["verdicts"]) else ()
            out += [(x["name"], u, w) for u, w in rows if repr(u) != repr(w)] or [(x["name"], x, y)]
    return out


def reports(parent, change):
    """Prints the reports that differ between the trees; returns 1 if any does."""
    specs = [f"fixtures/{p.name}" for p in sorted((ROOT / "fixtures").glob("*.spec"))]
    specs.append("perfbench/specs/domain_edge.spec")
    sides = []
    for root in (parent, change):
        proc = in_tree(root, "-c", REPORTS, *specs)
        if proc.returncode:
            sys.exit(f"{root}: the reports' run exited with code {proc.returncode}:\n{proc.stderr}")
        sides.append([json.loads(line) for line in proc.stdout.splitlines()])
    found = 0
    runs = [(path, offset) for path in specs for offset in SEED_OFFSETS]
    for (path, offset), a, b in zip(runs, *sides, strict=True):
        for where, x, y in differences(a, b):
            found += 1
            print(f"{path} seed+{offset} {where}:\n  parent: {x}\n  change: {y}")
    print(f"{len(runs)} reports compared, {found} differences")
    return 1 if found else 0


def first_pass(parent, change, workload, runs=20):
    """Prints each side's first-pass times on ``workload``."""
    times = {side: [] for side in SIDES}
    for _, side, tree in in_turn(parent, change, runs):
        proc = in_tree(tree, "-c", FIRST_PASS, workload)
        if proc.returncode:
            sys.exit(f"{tree}: the first pass exited with code {proc.returncode}:\n{proc.stderr}")
        seconds, period = map(float, proc.stdout.split()[-2:])
        times[side].append(seconds)
    for side in SIDES:
        within = sum(t < period for t in times[side])
        print(f"{side}: fastest {min(times[side]):.4f} s  median {statistics.median(times[side]):.4f} s  "
              f"within {period * 1000:g} ms {within}/{runs}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)
    workloads = [w["name"] for w in benchmark()["workloads"]]
    for name, runs in (("pairs", 10), ("reports", None), ("first-pass", 20)):
        command = commands.add_parser(name)
        command.add_argument("parent")
        command.add_argument("change")
        if runs:
            command.add_argument("--workload", required=True, choices=workloads)
            command.add_argument("--runs", type=int, default=runs)
    commands.choices["pairs"].add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.command == "pairs":
        return pairs(args.parent, args.change, args.workload, args.runs, args.seed)
    if args.command == "reports":
        return reports(args.parent, args.change)
    return first_pass(args.parent, args.change, args.workload, args.runs)


if __name__ == "__main__":
    sys.exit(main())
