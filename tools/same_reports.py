"""Whether two source trees report alike on the fixtures.

    python3 tools/same_reports.py A_ROOT B_ROOT

Each root is a checkout holding ``src/semiweyl``, ``fixtures`` and
``perfbench/specs``; the two are imported into one interpreter as
``tools/ab_inprocess.py`` does.  Each side runs every spec of its
``fixtures`` and ``perfbench/specs/domain_edge.spec`` at its own seed and
at the seed plus 3, and the reports (``run_spec(...).as_dict()`` without
the wall time and the spec path) must be equal to the bit: floats are
compared by their ``repr``.  Prints each verdict that differs, and the
number of reports compared; exits 1 on any difference.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ab_inprocess import load  # noqa: E402

SPECS = sorted(p.name for p in (Path(__file__).resolve().parent.parent / "fixtures").glob("*.spec"))
SEED_OFFSETS = (0, 3)


def reports(side, root, path, offset):
    """The report of the spec at ``path`` under ``root``, run on ``side``
    at the spec's seed plus ``offset``, as a dict without its wall time and
    spec path."""
    specfile, report = side
    spec = specfile.load_spec(Path(root) / path)
    out = report.run_spec(spec, spec.config.with_(seed=spec.config.seed + offset)).as_dict()
    del out["wall_time_s"], out["spec"]
    return out


def differences(a, b):
    """``(where, a's part, b's part)`` of each verdict that differs between
    the reports ``a`` and ``b`` (of the whole check when its verdicts do not
    line up), and of each other field that differs."""
    out = [(key, a[key], b.get(key)) for key in a if key != "checks" and repr(a[key]) != repr(b.get(key))]
    if [c["name"] for c in a["checks"]] != [c["name"] for c in b["checks"]]:
        return out + [("checks", a["checks"], b["checks"])]
    for x, y in zip(a["checks"], b["checks"]):
        if repr(x) != repr(y):
            pairs = zip(x["verdicts"], y["verdicts"]) if len(x["verdicts"]) == len(y["verdicts"]) else ()
            out += [(x["name"], u, w) for u, w in pairs if repr(u) != repr(w)] or [(x["name"], x, y)]
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a_root")
    parser.add_argument("b_root")
    args = parser.parse_args(argv)
    roots = {"a": args.a_root, "b": args.b_root}
    sides = {key: load(f"side_{key}", root) for key, root in roots.items()}
    paths = [Path("fixtures") / name for name in SPECS] + [Path("perfbench") / "specs" / "domain_edge.spec"]
    found = 0
    for path in paths:
        for offset in SEED_OFFSETS:
            a, b = (reports(sides[key], roots[key], path, offset) for key in "ab")
            for where, x, y in differences(a, b):
                found += 1
                print(f"{path} seed+{offset} {where}:\n  a: {x}\n  b: {y}")
    print(f"{len(paths) * len(SEED_OFFSETS)} reports compared, {found} differences")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
