"""Command-line interface.

``verify <spec-file>``   load a spec, run its checks, print/write a report
``list-checks``          print every known check with the law it tests
``oracle <spec-file>``   Taylor oracle: on ``--points`` Halton points per
                         chart, layer k + 1 of every field the spec builds
                         against central differences of layer k, k = 0..3

Exit codes: 0 all expectations met, 1 at least one violated, 2 input error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .fields import result_store
from .jets import Jet, PointError
from .registry import ARGUMENTS, REGISTRY
from .report import emit_report, run_spec
from .sampling import halton_points
from .specfile import SpecError, load_spec
from .verdicts import row_max

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

    o = sub.add_parser("oracle", help="check each jet layer of every field against differences of the layer below")
    o.add_argument("spec", help="path to the spec file")
    o.add_argument("--points", type=int, default=50, help="Halton points per chart")
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


H = 1e-4  # the central-difference step
BOUND = 2e-6  # on a point's defect, relative to 1 + max |layer k + 1| there


def _jets(out):
    """The jets of a field's result: the result, or those among its items."""
    items = out.values() if isinstance(out, dict) else out if isinstance(out, tuple) else [out]
    return [J for J in items if isinstance(J, Jet)]


def taylor_defects(fn, pts, k, h):
    """Per point of the set ``pts``, the largest gap between layer ``k + 1``
    of a jet of ``fn(pts, k + 1)`` and central differences (step ``h``) of
    layer ``k`` of the same jet of ``fn(pts +- h e_a, k)``, relative to ``1 +
    max |layer k + 1|`` there; ``nan`` at each point a point error names
    (every point, if it names none), which is left out."""
    keep, out = np.ones(len(pts), dtype=bool), np.full(len(pts), np.nan)
    while keep.any():
        try:
            q = pts[keep]
            shifted = [(_jets(fn(q + step, k)), _jets(fn(q - step, k))) for step in np.eye(q.shape[1]) * h]
            gaps = []
            for j, J in enumerate(_jets(fn(q, k + 1))):
                fd = np.stack([(plus[j].layers[k] - minus[j].layers[k]) / (2.0 * h) for plus, minus in shifted], -1)
                gaps.append(row_max(fd - J.layers[k + 1], q) / (1.0 + row_max(J.layers[k + 1], q)))
            out[keep] = np.max(gaps, axis=0)
            return out
        except PointError as exc:
            named = [row is not None for row in exc.rows or ()]
            keep[keep] = np.logical_not(named) if any(named) else False
    return out


def taylor_oracle(spec, points):
    """``(label, pts, defects, failing)`` per field of ``spec`` (see
    :data:`~semiweyl.registry.ARGUMENTS`) on ``points`` Halton points of its
    chart, in one result store: ``defects[k]`` per point for k = 0..3, and
    ``failing[k]`` where a defect over :data:`BOUND` did not fall at least
    3x at step ``H / 2`` (an O(h^2) truncation error falls 4x)."""
    out = []
    with result_store():
        for blocks, read, fields in ARGUMENTS.values():
            for label, chart, fn in fields(read(spec), spec) if spec.blocks.issuperset(blocks) else ():
                pts = halton_points(chart, points, spec.config.seed)
                defects = np.array([taylor_defects(fn, pts, k, H) for k in range(4)])
                failing = defects > BOUND
                for k, over in enumerate(failing):
                    over[over] = ~(3.0 * taylor_defects(fn, pts[over], k, H / 2) <= defects[k, over])
                out.append((label, pts, defects, failing))
    return out


def _cmd_oracle(args):
    if args.points < 1:  # with no point there is nothing to compare, and so no agreement
        print(f"error: --points must be at least 1, got {args.points}", file=sys.stderr)
        return 2
    spec = _load(args.spec)
    if spec is None:
        return 2
    ok = True
    for label, pts, defects, failing in taylor_oracle(spec, args.points):
        left = np.isnan(defects).any(axis=0)
        k, row = np.unravel_index(np.argmax(np.nan_to_num(defects, nan=-1.0)), defects.shape)
        fails = failing.any() or left.all()  # a wrong layer, or no point compared
        ok &= not fails
        print(f"{label}: {len(pts) - left.sum()} points, {left.sum()} left out, worst defect {defects[k, row]:.3e} at "
              f"k={k} ({', '.join(f'{x:.6g}' for x in pts[row])}), {np.sum(defects > BOUND)} over the bound at H, "
              f"{failing.sum()} not 3x lower at H/2" + (": FAILS" if fails else ""))
    print(f"k = 0..3, H = {H:g}, bound {BOUND:g}: oracle " + ("agrees" if ok else "DISAGREES"))
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
