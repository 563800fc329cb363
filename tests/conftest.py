"""Shared fixture builders for the test suite, and one hypothesis profile:
every run draws the same examples and saves none, so a failure found once
does not replay into later runs."""

import numpy as np
import pytest
from hypothesis import settings

from semiweyl.conformal import TransformData
from semiweyl.expressions import eval_jet
from semiweyl.fields import (
    Chart,
    ConnectionField,
    MetricField,
    OneFormField,
    ScalarField,
    _Field,
    eta_tensor_id,
    g_tensor_vector,
    kept,
)
from semiweyl.jets import PointError, partials
from semiweyl.structures import Structure
from semiweyl.tensor import gradient, levi_civita
from semiweyl.verdicts import RunConfig

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def central_difference(e, point, coord, h):
    """``(e(p + h e_i) - e(p - h e_i)) / 2h``: an oracle for the gradient of ``e`` from its values."""
    point = np.asarray(point, dtype=float)
    step = h * np.eye(len(point))[coord]
    return (eval_jet(e, point + step, 0).value - eval_jet(e, point - step, 0).value) / (2.0 * h)


def plane_chart(lo=0.3, hi=1.2):
    return Chart(("x", "y"), (lo, lo), (hi, hi))


def swmt_structure(chart=None, g=None, eta_comps=("y", "sin(x)")):
    """The canonical semi-Weyl family: Levi-Civita plus (one-form) x identity."""
    chart = chart or plane_chart()
    g = g or MetricField.from_expressions(chart, [["1", "0"], ["0", "x*x"]])
    eta = OneFormField.from_expressions(chart, list(eta_comps))
    conn = levi_civita(g).add_tensor(eta_tensor_id(chart, eta))
    return Structure(chart, g, eta, conn)


def smt_structure(chart=None):
    """Conformal metric with the gradient-shifted flat connection."""
    chart = chart or plane_chart(0.2, 1.0)
    g = MetricField.from_expressions(chart, [["exp(x*y)", "0"], ["0", "exp(x*y)"]])
    df = OneFormField.from_expressions(chart, ["y", "x"])
    conn = ConnectionField.flat(chart).add_tensor(eta_tensor_id(chart, df))
    eta = OneFormField.from_expressions(chart, ["0", "0"])
    return Structure(chart, g, eta, conn)


def conformally_flat_structure(chart=None, psi_expr="0.3*x + 0.2*x*y + 0.1*y"):
    chart = chart or plane_chart(0.2, 1.0)
    g = MetricField.euclidean(chart)
    psi = ScalarField.from_expression(chart, psi_expr)
    conn = ConnectionField.flat(chart).add_tensor(g_tensor_vector(g, gradient(g, psi)))
    minus_dpsi = OneFormField(chart, lambda p, order: -partials(psi.jet(p, order + 1)))
    return Structure(chart, g, minus_dpsi, conn), psi


def potentials(chart, phi, psi):
    """The conformal-projective transformation driven by the expressions
    ``phi`` and ``psi`` over ``chart``."""
    return TransformData(ScalarField.from_expression(chart, phi), ScalarField.from_expression(chart, psi))


def euclidean3_chart():
    return Chart(("x", "y", "z"), (-1.5, -1.5, -1.5), (1.5, 1.5, 1.5))


def ambient_swmt_3d(eta_comps=("0.2*y", "0.1*z", "0.15*x")):
    chart = euclidean3_chart()
    g = MetricField.euclidean(chart)
    eta = OneFormField.from_expressions(chart, list(eta_comps))
    conn = ConnectionField.flat(chart).add_tensor(eta_tensor_id(chart, eta))
    return Structure(chart, g, eta, conn)


def minkowski_structure(dim=3, eta_comps=None):
    names = ("t", "x", "y", "z")[:dim]
    chart = Chart(names, (-2.0,) * dim, (2.0,) * dim)
    g = MetricField.from_diagonal(chart, ["0 - 1"] + ["1"] * (dim - 1))
    eta_comps = eta_comps or (["0.2*x", "0.1*t"] + ["0.15*t"] * (dim - 2))
    eta = OneFormField.from_expressions(chart, eta_comps)
    conn = ConnectionField.flat(chart).add_tensor(eta_tensor_id(chart, eta))
    return Structure(chart, g, eta, conn)


def sphere_embedding(ambient_chart):
    from semiweyl.hypersurfaces import EmbeddingMap

    dom = Chart(("u", "v"), (0.4, 0.4), (1.2, 1.2))
    return EmbeddingMap(dom, ambient_chart, ["cos(u)*sin(v)", "sin(u)*sin(v)", "cos(v)"])


def half_null_plane():
    """The plane ``t = x`` in the metric ``diag(-1, 1 + sqrt(x*x) - x, 1)``
    with a flat connection, over a domain that crosses ``x = 0``: lightlike
    where ``x > 0``, where ``sqrt(x*x) - x`` is exactly 0, and spacelike
    where ``x < 0``.  Returns the structure and the embedding."""
    from semiweyl.hypersurfaces import EmbeddingMap

    chart = Chart(("t", "x", "y"), (-2.0,) * 3, (2.0,) * 3)
    g = MetricField.from_diagonal(chart, ["0 - 1", "1 + sqrt(x*x) - x", "1"])
    s = Structure(chart, g, OneFormField.zero(chart), ConnectionField.flat(chart))
    return s, EmbeddingMap(Chart(("u", "v"), (-1.0, -1.0), (1.0, 1.0)), chart, ["u", "u", "v"])


def rows_alone(call, pts):
    """The ``rows`` that a point error of ``call(pts)`` names: per point of
    ``pts``, the ``(type, args)`` that ``call`` raises there alone, or
    ``None``."""
    rows = []
    for p in pts:
        try:
            call(p)
            rows.append(None)
        except PointError as exc:
            rows.append((type(exc), exc.args))
    return rows


def field_entries(store):
    """The entries of a result store that are fields' results, keyed by
    ``(field, order, (shape, bytes))``; the store's other entries are what
    a run derived (``fields.kept``), keyed by ``(build, *args)``."""
    return {key: out for key, out in store.items() if isinstance(key[0], _Field)}


def count_field_calls(monkeypatch, module, name, calls):
    """Patch the kept field builder ``module.name`` so that each call of
    the ``fn`` of a field it builds appends its ``(p, order)`` to
    ``calls``."""
    build = getattr(module, name).__wrapped__

    @kept
    def counted_build(*args):
        field = build(*args)
        fn = field._fn
        field._fn = lambda p, order: calls.append((p, order)) or fn(p, order)
        return field

    monkeypatch.setattr(module, name, counted_build)


def null_cone_embedding(ambient_chart):
    from semiweyl.hypersurfaces import EmbeddingMap

    dom = Chart(("u", "v"), (0.5, 0.3), (1.5, 1.2))
    return EmbeddingMap(dom, ambient_chart, ["u", "u*cos(v)", "u*sin(v)"])


@pytest.fixture
def config():
    return RunConfig(samples=80, seed=0, tol=1e-8, min_valid_points=40)


@pytest.fixture
def tight_config():
    return RunConfig(samples=80, seed=0, tol=1e-10, min_valid_points=40)
