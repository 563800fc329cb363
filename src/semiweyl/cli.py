"""Command-line interface.

``verify <spec-file>``   load a spec, run its checks, print/write a report
``list-checks``          print every known check with the law it tests
``oracle <spec-file>``   cross-check the jet gradients of every expression
                         in the spec against central finite differences

Exit codes: 0 all expectations met, 1 at least one violated, 2 input error.
"""

from __future__ import annotations

import argparse
import sys

from .expressions import eval_jet, finite_difference
from .registry import REGISTRY
from .report import emit_report, run_spec
from .sampling import halton_points
from .specfile import SpecError, load_spec

__all__ = ["main"]


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="semiweyl",
        description="Residual verification of semi-Weyl and statistical structures with torsion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the checks listed in a spec file")
    v.add_argument("spec", help="path to the spec file")
    v.add_argument("--samples", type=int, default=None, help="override the sample count")
    v.add_argument("--seed", type=int, default=None, help="override the sampling seed")
    v.add_argument("--tol", type=float, default=None, help="override the residual tolerance")
    v.add_argument("--report", choices=("text", "json"), default="text", help="report format")
    v.add_argument("--out", default=None, help="write the report to this path instead of stdout")

    sub.add_parser("list-checks", help="print every check name with the law it verifies")

    o = sub.add_parser("oracle", help="finite-difference cross-check of the spec's expressions")
    o.add_argument("spec", help="path to the spec file")
    o.add_argument("--points", type=int, default=20, help="sample points per expression")
    return parser


def _load(path):
    """The spec at ``path``, or ``None`` after printing why it failed."""
    try:
        return load_spec(path)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
    except SpecError as exc:
        for line in exc.errors:
            print(f"error: {line}", file=sys.stderr)
    return None


def _cmd_verify(args):
    spec = _load(args.spec)
    if spec is None:
        return 2
    overrides = {k: v for k in ("samples", "seed", "tol") if (v := vars(args)[k]) is not None}
    try:
        config = spec.config.with_(**overrides)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run_spec(spec, config)
    text = emit_report(report, args.report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report.all_expectations_met else 1


def _cmd_list_checks():
    width = max(len(name) for name in REGISTRY)
    for name in sorted(REGISTRY):
        entry = REGISTRY[name]
        needs = ", ".join(entry.requires)
        print(f"{name:<{width}s}  {entry.anchor}  [needs: {needs}]")
    return 0


def _cmd_oracle(args):
    if args.points < 1:  # with no point there is nothing to compare, and so no agreement
        print(f"error: --points must be at least 1, got {args.points}", file=sys.stderr)
        return 2
    spec = _load(args.spec)
    if spec is None:
        return 2
    if not spec.expression_sources:
        print("spec contains no symbolic expressions to cross-check")
        return 0
    worst = 0.0
    worst_label = ""
    count = 0
    for label, chart, expr in spec.expression_sources:
        pts = halton_points(chart, args.points, seed=spec.config.seed)
        for p in pts:
            try:
                jet = eval_jet(expr, p, 1)
                scale = 1.0 + abs(jet.value)
                for a in range(chart.dim):
                    exact = jet.grad[a]
                    approx = finite_difference(expr, p, a, 1e-5)
                    dev = abs(exact - approx) / scale
                    count += 1
                    if dev > worst:
                        worst = dev
                        worst_label = (
                            f"{label} d/d{chart.coord_names[a]} at "
                            f"({', '.join(f'{float(x):.6g}' for x in p)})"
                        )
            except (ArithmeticError, ValueError):
                continue
    print(f"{count} derivative comparisons, worst relative deviation {worst:.3e}")
    if worst_label:
        print(f"worst case: {worst_label}")
    ok = worst < 1e-6
    print("oracle " + ("agrees (O(h^2) regime)" if ok else "DISAGREES"))
    return 0 if ok else 1


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "list-checks":
        return _cmd_list_checks()
    return _cmd_oracle(args)


if __name__ == "__main__":
    sys.exit(main())
