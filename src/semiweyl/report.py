"""Check reports: aggregation, text tables and stable JSON."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from .fields import result_store
from .registry import REGISTRY, run_check

__all__ = ["CheckResult", "CheckReport", "run_spec", "emit_report"]

SCHEMA_VERSION = 1


@dataclass
class CheckResult:
    name: str
    anchor: str
    expectation: str
    outcome: str  # "pass" | "fail" | "skip"
    matched: bool  # outcome == expectation; a skip meets only an expected "skip"
    verdicts: list

    @property
    def max_residual(self):
        live = [v for v in self.verdicts if not v.skipped]
        pool = live or self.verdicts
        vals = [v.max_residual for v in pool if v.max_residual == v.max_residual]
        return max(vals) if vals else float("nan")

    def as_dict(self):
        return {
            "name": self.name,
            "anchor": self.anchor,
            "expectation": self.expectation,
            "outcome": self.outcome,
            "matched": bool(self.matched),
            "max_residual": None if self.max_residual != self.max_residual else float(self.max_residual),
            "verdicts": [v.as_dict() for v in self.verdicts],
        }


@dataclass
class CheckReport:
    spec_path: str
    samples: int
    seed: int
    tol: float
    results: list = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def counts(self):
        c = {"pass": 0, "fail": 0, "skip": 0}
        for r in self.results:
            c[r.outcome] += 1
        return c

    @property
    def all_expectations_met(self):
        return all(r.matched for r in self.results)

    def as_dict(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "spec": self.spec_path,
            "samples": self.samples,
            "seed": self.seed,
            "tol": self.tol,
            "checks": [r.as_dict() for r in self.results],
            "summary": dict(self.counts, expectations_met=self.all_expectations_met),
            "wall_time_s": self.wall_time_s,
        }


def _outcome(verdicts):
    live = [v for v in verdicts if not v.skipped]
    if not live:
        return "skip"
    return "pass" if all(v.passed for v in live) else "fail"


def run_spec(spec, config=None):
    """Run every check listed in the spec; failures become report entries.
    The checks share one result store (:func:`~semiweyl.fields.result_store`),
    which is freed when the run returns."""
    config = config or spec.config
    t0 = time.perf_counter()
    results = []
    with result_store():
        for name, expectation in spec.checks:
            verdicts = run_check(name, spec, config)
            outcome = _outcome(verdicts)
            anchor = REGISTRY[name].anchor
            results.append(CheckResult(name, anchor, expectation, outcome, outcome == expectation, verdicts))
    return CheckReport(
        spec_path=spec.path,
        samples=config.samples,
        seed=config.seed,
        tol=config.tol,
        results=results,
        wall_time_s=time.perf_counter() - t0,
    )


def emit_report(report: CheckReport, fmt: str) -> str:
    """Serialize a report; JSON key order is fixed, so output is
    deterministic for a fixed seed and spec except the wall-time field."""
    if fmt == "json":
        return json.dumps(report.as_dict(), indent=2, sort_keys=False) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r} (text | json)")
    lines = []
    lines.append(f"spec: {report.spec_path}")
    lines.append(f"samples={report.samples} seed={report.seed} tol={report.tol:g}")
    lines.append("")
    width = max((len(r.name) for r in report.results), default=4)
    for r in report.results:
        mark = "ok  " if r.matched else "BAD "
        res = f"{r.max_residual:.3e}" if r.max_residual == r.max_residual else "  n/a    "
        lines.append(
            f"{mark}{r.outcome.upper():5s} (expected {r.expectation:4s})  "
            f"{r.name:<{width}s}  max residual {res}"
        )
        for v in r.verdicts:
            lines.append(f"      - {v}")
    c = report.counts
    lines.append("")
    lines.append(
        f"{c['pass']} passed, {c['fail']} failed, {c['skip']} skipped; "
        f"expectations {'met' if report.all_expectations_met else 'NOT met'}; "
        f"{report.wall_time_s:.2f}s"
    )
    return "\n".join(lines) + "\n"
