"""Workload definitions shared by ``run.py`` and ``worker.py``.

Each workload is one pass of ``semiweyl verify`` over a fixed list of specs,
at each spec's own samples, with the run's seed offset added to each spec's
``[run] seed``.  The four lists stress different layers:

- ``intrinsic``: 2-D structures, Christoffel symbols, curvature and 2x2
  inverses (fields / tensor / structures / conformal), plus the
  expected-``fail`` path.
- ``embedded``: the only workload that reaches ``hypersurfaces`` and
  ``lightlike`` (embedding composition, normals, Weingarten maps, screen
  data, 3x3 jet solves); its ambients are flat.
- ``affine``: the frame decomposition of ``affine`` at jet order 3, the one
  place a per-point frame-solve cache can act.
- ``domain_edge``: the per-point skip path; a third of its points raise
  ``EvaluationDomainError``, while every fixture point is in its domain.
"""

from pathlib import Path

WORKLOADS = {
    "intrinsic": (
        "fixtures/swmt_eta_shift.spec",
        "fixtures/smt_conformal_gradient.spec",
        "fixtures/conformally_flat.spec",
        "fixtures/conformal_projective_suite.spec",
        "fixtures/negative_controls.spec",
    ),
    "embedded": (
        "fixtures/sphere_hypersurface.spec",
        "fixtures/flat_dual_sphere.spec",
        "fixtures/minkowski_null_hyperplane.spec",
    ),
    "affine": ("fixtures/centroaffine_sphere.spec",),
    "domain_edge": ("perfbench/specs/domain_edge.spec",),
}

# Where a spec's expressions are defined, as (coordinate index, lower bound):
# a sample point is evaluable when that coordinate lies strictly above the
# bound.  Specs not listed are defined on their whole chart box.
VALID_REGION = {
    "domain_edge": (0, 0.0),  # g_2_2 = 1 + sqrt(x)
}


def spec_name(path):
    """The key a spec goes by in the reference and in metric names."""
    return Path(path).stem


def spec_names(workload):
    return [spec_name(p) for p in WORKLOADS[workload]]
