"""Benchmark child process: one workload through semiweyl's public API.

``run.py`` starts this file in a fresh single-threaded interpreter with
``src`` on ``PYTHONPATH``.  It prints one JSON object as its last stdout
line.

    worker.py run    --workload W --seed N --seconds S
    worker.py trace  --workload W --seed N  traced passes and microbenchmarks
    worker.py record                        rewrite reference.json at offset 0

A pass does what ``semiweyl verify --report json`` does for each spec:
``specfile.load_spec`` -> ``report.run_spec`` -> ``report.emit_report``.
"""

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
from semiweyl import report as report_mod
from semiweyl.sampling import halton_points
from semiweyl.specfile import load_spec

from check import REFERENCE_PATH, attempted_checks, load_reference, wrong_checks
from hostspeed import SpeedProbe
from workloads import VALID_REGION, WORKLOADS, spec_name

ROOT = Path(__file__).resolve().parent.parent


class Tracer:
    """Spans kept in memory: [name, parent index, start, end].  Durations
    are read at the reference host speed of ``probe``."""

    def __init__(self, probe):
        self.probe = probe
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, parent, time.perf_counter(), None])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][3] = time.perf_counter()

    def seconds(self, span):
        return self.probe.normalize(span[2], span[3])

    def total(self, name):
        return sum(self.seconds(s) for s in self.spans if s[0] == name)


def load_specs(workload, tracer=None):
    """Fresh spec objects: the registry caches frames on a loaded spec, and
    ``semiweyl verify`` pays for building them on every run."""
    specs = {}
    for path in WORKLOADS[workload]:
        with tracer.span(f"load_spec.{workload}") if tracer else contextlib.nullcontext():
            specs[spec_name(path)] = load_spec(ROOT / path)
    return specs


def valid_points(name, spec, offset):
    """Number of the spec's sample points inside its evaluable region."""
    config = spec.config
    if name not in VALID_REGION:
        return config.samples
    coord, bound = VALID_REGION[name]
    pts = halton_points(spec.chart, config.samples, seed=config.seed + offset)
    return int(np.count_nonzero(pts[:, coord] > bound))


def verify_pass(specs, offset, tracer=None, workload=""):
    """Run and emit every spec; returns ((start, end), {name: JSON text or None})."""
    texts = {}
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    t0 = time.perf_counter()
    with span(f"verify.{workload}"):
        for name, spec in specs.items():
            config = spec.config.with_(seed=spec.config.seed + offset)
            try:
                report = report_mod.run_spec(spec, config)
                with span(f"emit_report.{workload}"):
                    texts[name] = report_mod.emit_report(report, "json")
            except Exception:  # a raising spec is a wrong outcome, not a crash
                traceback.print_exc()
                texts[name] = None
    return (t0, time.perf_counter()), texts


def judge(specs, texts, offset, reference):
    """Parse the emitted reports and compare them with the reference."""
    reports = {name: json.loads(text) if text is not None else None for name, text in texts.items()}
    valid = {name: valid_points(name, spec, offset) for name, spec in specs.items()}
    points = tested = 0
    for report in reports.values():
        for check in (report or {}).get("checks", ()):
            for v in check["verdicts"]:
                points += v["points_tested"] + v["points_skipped"]
                tested += v["points_tested"]
    return {
        "attempted": attempted_checks(reports, reference),
        "wrong": wrong_checks(reports, reference, valid),
        "points": points,
        "points_tested": tested,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB


def cmd_run(workload, offset, seconds):
    """Timed passes for ``seconds`` (at least one, and none that would
    likely end past the budget), under a host-speed probe."""
    reference = load_reference()
    passes = []
    start = time.perf_counter()
    with SpeedProbe() as probe:
        while True:
            specs = load_specs(workload)
            (t0, t1), texts = verify_pass(specs, offset)
            judged = judge(specs, texts, offset, reference)
            passes.append(dict(judged, wall_s=t1 - t0, verify_s=probe.normalize(t0, t1)))
            typical = statistics.median(p["wall_s"] for p in passes)
            if time.perf_counter() - start + typical > seconds:
                break
    return {"passes": passes, "peak_rss_mb": peak_rss_mb()}


def traced_run_check(tracer, run_check):
    def wrapped(name, spec, config):
        with tracer.span(f"check.{spec_name(spec.path)}.{name}"):
            return run_check(name, spec, config)

    return wrapped


def cmd_trace(workload, offset):
    """An untraced pass of ``workload``, then a traced pass of every
    workload, so that every check has a span, then the microbenchmarks,
    all under one host-speed probe."""
    import micro

    reference = load_reference()
    with SpeedProbe() as probe:
        untraced, _ = verify_pass(load_specs(workload), offset)

        tracer = Tracer(probe)
        plain = report_mod.run_check
        report_mod.run_check = traced_run_check(tracer, plain)
        try:
            judged = {}
            # The traced workload first, next to its untraced pass.
            for name in sorted(WORKLOADS, key=lambda w: w != workload):
                specs = load_specs(name, tracer)
                _, texts = verify_pass(specs, offset, tracer, name)
                judged[name] = judge(specs, texts, offset, reference)
        finally:
            report_mod.run_check = plain
        micro_metrics = micro.run_all(ROOT, probe)

    mine = judged[workload]
    metrics = {f"{s[0]}_s": tracer.seconds(s) for s in tracer.spans if s[0].startswith("check.")}
    metrics["specfile.load_spec_s"] = tracer.total(f"load_spec.{workload}")
    metrics["report.emit_report_s"] = tracer.total(f"emit_report.{workload}")
    metrics["verdicts.points_tested"] = mine["points_tested"]
    metrics["verdicts.points_skipped"] = mine["points"] - mine["points_tested"]
    metrics["verdicts.useful_ratio"] = mine["points_tested"] / mine["points"]
    metrics["trace.verify_overhead_s"] = tracer.total(f"verify.{workload}") - probe.normalize(*untraced)
    metrics.update(micro_metrics)
    return {
        "attempted": sum(j["attempted"] for j in judged.values()),
        "wrong": [w for j in judged.values() for w in j["wrong"]],
        "metrics": metrics,
        "peak_rss_mb": peak_rss_mb(),
    }


def cmd_record():
    """Rewrite reference.json from a pass of every workload at offset 0."""
    reference = {}
    for workload in WORKLOADS:
        specs = load_specs(workload)
        _, texts = verify_pass(specs, 0)
        for name, text in texts.items():
            if text is None:
                raise SystemExit(f"{name}: raised while recording the reference")
            report = json.loads(text)
            checks = {}
            for r in report["checks"]:
                if r["outcome"] not in ("pass", "fail"):
                    raise SystemExit(f"{name}.{r['name']}: outcome {r['outcome']} cannot be a reference")
                counts = [[v["points_tested"], v["points_skipped"]] for v in r["verdicts"]]
                checks[r["name"]] = {"outcome": r["outcome"], "verdicts": counts}
            reference[name] = {"samples": report["samples"], "checks": checks}
    specs = []
    for name, ref in reference.items():
        checks = ",\n".join(f"   {json.dumps(c)}: {json.dumps(r)}" for c, r in ref["checks"].items())
        specs.append(f' {json.dumps(name)}: {{"samples": {ref["samples"]}, "checks": {{\n{checks}\n }}}}')
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(specs) + "\n}\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("mode", choices=("run", "trace", "record"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)

    if args.mode == "record":
        cmd_record()
        return
    if args.mode == "run":
        out = cmd_run(args.workload, args.seed, args.seconds)
    else:
        out = cmd_trace(args.workload, args.seed)
    out["env"] = {"python": sys.version.split()[0], "numpy": np.__version__}
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
