"""The per-layer metrics of a traced run, each with the end-to-end metric it
should move and the workload it should move it on.

``BENCHMARK.json`` lists the same names, units and directions; the
benchmark's tests keep the two in step.
"""

from check import load_reference
from workloads import WORKLOADS, spec_names

ALL = "all workloads"

FIXED = [
    # name, unit, better, moves, on
    ("specfile.load_spec_s", "s", "lower", "setup_s", ALL),
    ("report.emit_report_s", "s", "lower", "verify_s (slightly)", ALL),
    ("verdicts.points_tested", "count", "higher", "points_per_s", "domain_edge"),
    ("verdicts.points_skipped", "count", "lower", "points_per_s", "domain_edge"),
    ("verdicts.useful_ratio", "ratio", "higher", "points_per_s", "domain_edge"),
    ("trace.verify_overhead_s", "s", "lower", "none (traced minus untraced verify_s)", "the traced workload"),
    ("sampling.halton_points.pts_per_s", "1/s", "higher", "verify_s", ALL),
    ("verdicts.run_pointwise_check.pts_per_s", "1/s", "higher", "verify_s", ALL),
    ("verdicts.run_pointwise_check_skip.pts_per_s", "1/s", "higher", "verify_s", "domain_edge"),
    ("expressions.eval_jet.pts_per_s", "1/s", "higher", "verify_s", "intrinsic"),
    ("expressions.eval_jet_o3.pts_per_s", "1/s", "higher", "verify_s", "affine"),
    ("fields.metric_jet.pts_per_s", "1/s", "higher", "verify_s", "intrinsic"),
    ("tensor.levi_civita.pts_per_s", "1/s", "higher", "verify_s", "intrinsic"),
    ("tensor.curvature_values.pts_per_s", "1/s", "higher", "verify_s", "intrinsic"),
    ("jets.jet_solve.pts_per_s", "1/s", "higher", "verify_s", "embedded, affine"),
    ("hypersurfaces.induced_conn.pts_per_s", "1/s", "higher", "verify_s", "embedded"),
    ("hypersurfaces.weingarten.pts_per_s", "1/s", "higher", "verify_s", "embedded"),
    ("lightlike.screen_data.pts_per_s", "1/s", "higher", "verify_s", "embedded"),
    ("affine.decompose.pts_per_s", "1/s", "higher", "verify_s", "affine"),
]


def per_layer():
    """``[(name, unit, better, moves, on)]`` for every per-layer metric: one
    span per check (around ``registry.run_check``), then the fixed list."""
    reference = load_reference()
    checks = [
        (f"check.{spec}.{check}_s", "s", "lower", "verify_s", workload)
        for workload in WORKLOADS
        for spec in spec_names(workload)
        for check in reference[spec]["checks"]
    ]
    return checks + FIXED
