"""Per-layer microbenchmarks: points per second at fixed Halton points.

Each layer is timed alone: its inputs are built first, then the layer runs
over ``POINTS`` fixed points, sweep after sweep, for at least
``MIN_SECONDS``; the result is ``POINTS`` over the median sweep time at
the reference host speed (see ``hostspeed``).
"""

import statistics
import time

from semiweyl.expressions import eval_jet, parse_expression
from semiweyl.fields import Chart, MetricField, OneFormField
from semiweyl.hypersurfaces import HypersurfaceFrame, induced_structure
from semiweyl.jets import jet_solve
from semiweyl.lightlike import LightlikeFrame
from semiweyl.sampling import halton_points
from semiweyl.specfile import load_spec
from semiweyl.tensor import curvature_values, levi_civita
from semiweyl.verdicts import RunConfig, SkipPoint, run_pointwise_check

POINTS = 40
MIN_SECONDS = 0.4
MIN_SWEEPS = 3

# Every 3-D metric in fixtures/ is Euclidean or Minkowski, whose Christoffel
# symbols and curvature are zero; the tensor layers are timed on this curved,
# positive-definite one instead.
CHART_3D = Chart(("x", "y", "z"), (0.3, 0.3, 0.3), (1.1, 1.1, 1.1))
CURVED_3D = [
    ["1 + 0.2*x*x", "0.1*x*y", "0.05*z"],
    ["0.1*x*y", "1 + 0.2*y*y", "0.05*y*z"],
    ["0.05*z", "0.05*y*z", "exp(0.2*x*z)"],
]
ONE_FORM_3D = ["0.2*y", "0.1*z", "0.15*x"]

# The metric and one-form components of the 2-D fixture specs.
FIXTURE_2D_EXPRESSIONS = [
    "1 + 0.2*x*x", "0.1*x*y", "1 + 0.2*y*y", "x*x", "exp(x*y)",
    "y", "sin(x)", "0.3*y", "0.2*x", "0 - (0.3 + 0.2*y)", "0 - (0.2*x + 0.1)",
]
CHART_2D = Chart(("x", "y"), (0.3, 0.3), (1.1, 1.1))
# centroaffine_sphere's immersion, at that spec's jet_order of 3.
IMMERSION = ["cos(u)*sin(v)", "sin(u)*sin(v)", "cos(v)"]
CHART_UV = Chart(("u", "v"), (0.4, 0.4), (1.1, 1.1))


def pts_per_s(probe, sweep):
    """``POINTS`` over the median time of ``sweep()`` at ``probe``'s
    reference host speed."""
    times = []
    start = time.perf_counter()
    while len(times) < MIN_SWEEPS or time.perf_counter() - start < MIN_SECONDS:
        t0 = time.perf_counter()
        sweep()
        times.append(probe.normalize(t0, time.perf_counter()))
    return POINTS / statistics.median(times)


def over(points, fn):
    return lambda: [fn(p) for p in points]


def run_all(root, probe):
    """Every microbenchmark, keyed by its per-layer metric name; ``probe``
    is an active ``hostspeed.SpeedProbe``."""
    pts3 = halton_points(CHART_3D, POINTS)
    pts2 = halton_points(CHART_2D, POINTS)
    ptsuv = halton_points(CHART_UV, POINTS)
    out = {}

    config = RunConfig(samples=POINTS, min_valid_points=1)
    out["sampling.halton_points.pts_per_s"] = pts_per_s(probe, lambda: halton_points(CHART_3D, POINTS))
    out["verdicts.run_pointwise_check.pts_per_s"] = pts_per_s(
        probe, lambda: run_pointwise_check("trivial", CHART_2D, lambda p: (0.0, 1.0), config)
    )

    def skip_every_third():
        calls = iter(range(POINTS))

        def residual(p):
            if next(calls) % 3 == 2:
                raise SkipPoint("benchmark skip")
            return 0.0, 1.0

        return run_pointwise_check("skip", CHART_2D, residual, config)

    out["verdicts.run_pointwise_check_skip.pts_per_s"] = pts_per_s(probe, skip_every_third)

    exprs = [parse_expression(e, CHART_2D.coord_names) for e in FIXTURE_2D_EXPRESSIONS]
    out["expressions.eval_jet.pts_per_s"] = pts_per_s(probe, over(pts2, lambda p: [eval_jet(e, p, 2) for e in exprs]))
    imm = [parse_expression(e, CHART_UV.coord_names) for e in IMMERSION]
    out["expressions.eval_jet_o3.pts_per_s"] = pts_per_s(probe, over(ptsuv, lambda p: [eval_jet(e, p, 3) for e in imm]))

    g = MetricField.from_expressions(CHART_3D, CURVED_3D)
    conn = levi_civita(g)
    out["fields.metric_jet.pts_per_s"] = pts_per_s(probe, over(pts3, lambda p: g.jet(p, 2)))
    out["tensor.levi_civita.pts_per_s"] = pts_per_s(probe, over(pts3, lambda p: conn.jet(p, 1)))
    out["tensor.curvature_values.pts_per_s"] = pts_per_s(probe, over(pts3, lambda p: curvature_values(conn, p)))

    eta = OneFormField.from_expressions(CHART_3D, ONE_FORM_3D)
    systems = [(g.jet(p, 2), eta.jet(p, 2)) for p in pts3]
    out["jets.jet_solve.pts_per_s"] = pts_per_s(probe, lambda: [jet_solve(A, b) for A, b in systems])

    sphere = load_spec(root / "fixtures" / "sphere_hypersurface.spec")
    emb = sphere.embedding
    pts_emb = halton_points(emb.domain, POINTS)
    induced_conn = induced_structure(emb, sphere.structure).conn
    out["hypersurfaces.induced_conn.pts_per_s"] = pts_per_s(probe, over(pts_emb, lambda p: induced_conn.jet(p, 0)))
    frame = HypersurfaceFrame(emb, sphere.structure)
    out["hypersurfaces.weingarten.pts_per_s"] = pts_per_s(probe, over(pts_emb, lambda p: frame.weingarten(p, 0)))

    null = load_spec(root / "fixtures" / "minkowski_null_hyperplane.spec")
    lk = LightlikeFrame(null.lightlike_embedding, null.structure)
    pts_lk = halton_points(null.lightlike_embedding.domain, POINTS)
    out["lightlike.screen_data.pts_per_s"] = pts_per_s(probe, over(pts_lk, lambda p: lk.screen_data(p, 0)))

    affine = load_spec(root / "fixtures" / "centroaffine_sphere.spec").affine
    pts_aff = halton_points(affine.chart, POINTS)
    out["affine.decompose.pts_per_s"] = pts_per_s(probe, over(pts_aff, lambda p: affine.decompose(p, 1)))
    return out
