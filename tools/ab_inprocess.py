"""Interleaved in-process A/B timing of two source trees on one workload.

    python3 tools/ab_inprocess.py A_ROOT B_ROOT --workload W [--passes N] [--seed S]

Each root is a checkout holding ``src/semiweyl``; the two are imported
into one interpreter as the packages ``side_a`` and ``side_b``.  Their
passes of the workload (the specs that ``perfbench/workloads.py`` lists,
each run and emitted as ``semiweyl verify --report json`` does, the
loading untimed) alternate, the side that goes first swapping every
pass, so both meet the same drift of the host.  One warm-up pass each is not timed.  Prints each
side's median and quartiles in seconds, and how many passes each won.
"""

import argparse
import importlib
import importlib.util
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402


def load(name, root):
    """The package ``src/semiweyl`` of the tree ``root``, imported as ``name``."""
    pkg = Path(root).resolve() / "src" / "semiweyl"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    sys.modules[name] = module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.specfile"), importlib.import_module(f"{name}.report")


def one_pass(side, root, workload, seed):
    """Seconds of one pass of ``workload`` on a side: its specs, loaded
    fresh and untimed as for the benchmark's ``verify_s``, run and emitted."""
    specfile, report = side
    specs = [specfile.load_spec(Path(root) / path) for path in WORKLOADS[workload]]
    t0 = time.perf_counter()
    for spec in specs:
        report.emit_report(report.run_spec(spec, spec.config.with_(seed=spec.config.seed + seed)), "json")
    return time.perf_counter() - t0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a_root")
    parser.add_argument("b_root")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--passes", type=int, default=60)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # single-threaded as the benchmark's workers, before numpy loads
    roots = {"a": args.a_root, "b": args.b_root}
    sides = {key: load(f"side_{key}", root) for key, root in roots.items()}
    times = {"a": [], "b": []}
    for key in sides:
        one_pass(sides[key], roots[key], args.workload, args.seed)
    for i in range(args.passes):
        for key in ("ab" if i % 2 == 0 else "ba"):
            times[key].append(one_pass(sides[key], roots[key], args.workload, args.seed))
    wins = {"a": sum(a < b for a, b in zip(times["a"], times["b"])),
            "b": sum(b < a for a, b in zip(times["a"], times["b"]))}
    for key in "ab":
        q1, med, q3 = statistics.quantiles(times[key], n=4) if len(times[key]) > 1 else times[key] * 3
        print(f"{key}: median {med:.4f} s  quartiles {q1:.4f} .. {q3:.4f} s  wins {wins[key]}/{args.passes}")
    print(f"b/a median {statistics.median(times['b']) / statistics.median(times['a']) - 1:+.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
