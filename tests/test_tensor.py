import numpy as np
import pytest

from semiweyl.fields import Chart, ConnectionField, MetricField, OneFormField, ScalarField, eta_tensor_id
from semiweyl.jets import values_of
from semiweyl.sampling import halton_points
from semiweyl.tensor import (
    curvature_values,
    frame_ricci_values,
    gradient_values,
    inverse_metric_values,
    laplacian,
    levi_civita,
    orthonormal_frame,
    require_nondegenerate,
    ricci_values,
    scalar_curvature,
    signature,
    torsion_values,
)
from semiweyl.fields import DegeneratePointError


def half_plane():
    return Chart(("x", "y"), (0.3, 0.3), (1.4, 1.4))


def sphere_chart():
    return Chart(("theta", "phi"), (0.4, 0.4), (1.2, 1.2))


def round_metric(chart):
    return MetricField.from_expressions(chart, [["1", "0"], ["0", "sin(theta)^2"]])


class TestChristoffel:
    def test_diag_one_x_squared_golden(self):
        chart = half_plane()
        g = MetricField.from_expressions(chart, [["1", "0"], ["0", "x*x"]])
        conn = levi_civita(g)
        for p in halton_points(chart, 10):
            x = p[0]
            gam = conn.value(p)
            expected = np.zeros((2, 2, 2))
            expected[1, 0, 1] = expected[1, 1, 0] = 1.0 / x
            expected[0, 1, 1] = -x
            assert np.allclose(gam, expected, atol=1e-12)

    def test_round_sphere_golden(self):
        chart = sphere_chart()
        conn = levi_civita(round_metric(chart))
        for p in halton_points(chart, 10):
            th = p[0]
            gam = conn.value(p)
            expected = np.zeros((2, 2, 2))
            expected[0, 1, 1] = -np.sin(th) * np.cos(th)
            expected[1, 0, 1] = expected[1, 1, 0] = np.cos(th) / np.sin(th)
            assert np.allclose(gam, expected, atol=1e-12)

    def test_levi_civita_torsion_free(self):
        chart = half_plane()
        g = MetricField.from_expressions(chart, [["1 + x*y", "0.2*y"], ["0.2*y", "2 + x*x"]])
        conn = levi_civita(g)
        for p in halton_points(chart, 10):
            assert np.max(np.abs(torsion_values(conn, p))) < 1e-12


class TestCurvature:
    def test_sphere_sectional_curvature(self):
        chart = sphere_chart()
        g = round_metric(chart)
        conn = levi_civita(g)
        for p in halton_points(chart, 10):
            R = curvature_values(conn, p)
            gv = g.value(p)
            # g(R(d_theta, d_phi) d_phi, d_theta) = sin^2(theta)
            val = sum(gv[0, l] * R[l, 1, 0, 1] for l in range(2))
            assert val == pytest.approx(np.sin(p[0]) ** 2, rel=1e-10)

    def test_sphere_ricci_and_scalar(self):
        chart = sphere_chart()
        g = round_metric(chart)
        conn = levi_civita(g)
        for p in halton_points(chart, 10):
            assert np.allclose(ricci_values(conn, g, p), g.value(p), atol=1e-10)
            assert scalar_curvature(conn, g, p) == pytest.approx(2.0, abs=1e-10)

    def test_flat_curvature_vanishes(self):
        chart = half_plane()
        conn = ConnectionField.flat(chart)
        for p in halton_points(chart, 5):
            assert np.max(np.abs(curvature_values(conn, p))) == 0.0


class TestScalars:
    def test_flat_laplacian(self):
        chart = Chart(("x", "y"), (-1.0, -1.0), (1.0, 1.0))
        g = MetricField.euclidean(chart)
        conn = levi_civita(g)
        f = ScalarField.from_expression(chart, "x^2 + y^2")
        for p in halton_points(chart, 5):
            assert laplacian(conn, g, f, p) == pytest.approx(4.0, abs=1e-12)

    def test_gradient_raises_index(self):
        chart = half_plane()
        g = MetricField.from_expressions(chart, [["1", "0"], ["0", "x*x"]])
        f = ScalarField.from_expression(chart, "y")
        for p in halton_points(chart, 5):
            v = gradient_values(g, f, p)
            assert np.allclose(v, [0.0, 1.0 / p[0] ** 2])


class TestFrames:
    def test_diagonal_rescaling(self):
        gv = np.diag([-4.0, 9.0])
        E, eps = orthonormal_frame(gv)
        assert tuple(eps) == (-1.0, 1.0)
        # columns scale the coordinate fields by 1/2 and 1/3
        assert np.allclose(np.abs(E), np.diag([0.5, 1.0 / 3.0]))
        assert np.allclose(E.T @ gv @ E, np.diag(eps), atol=1e-12)

    def test_minkowski_signature(self):
        assert signature(np.diag([-1.0, 1.0, 1.0])) == (2, 1)
        assert signature(np.diag([1.0, 1.0])) == (2, 0)

    def test_orthonormal_frame_generic(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(3, 3))
        gv = A + A.T + 0.1 * np.eye(3)
        E, eps = orthonormal_frame(gv)
        assert np.allclose(E.T @ gv @ E, np.diag(eps), atol=1e-10)

    def test_degenerate_metric_rejected(self):
        with pytest.raises(DegeneratePointError):
            require_nondegenerate(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_inverse_metric(self):
        chart = half_plane()
        g = MetricField.from_expressions(chart, [["1 + x", "0.3"], ["0.3", "2"]])
        for p in halton_points(chart, 5):
            assert np.allclose(inverse_metric_values(g, p) @ g.value(p), np.eye(2), atol=1e-12)


class TestFrameOracle:
    def test_frame_ricci_matches_contraction_when_ricci_is_not_symmetric(self):
        # curved 3-D metric; the one-form (x) I torsion shift makes Ricci non-symmetric
        chart = Chart(("x", "y", "z"), (0.3, 0.3, 0.3), (1.1, 1.1, 1.1))
        g = MetricField.from_expressions(chart, [
            ["1 + 0.2*x*x", "0.1*x*y", "0.05*z"],
            ["0.1*x*y", "1 + 0.2*y*y", "0.05*y*z"],
            ["0.05*z", "0.05*y*z", "exp(0.2*x*z)"],
        ])
        eta = OneFormField.from_expressions(chart, ["0.2*y + z", "0.1*z - x", "0.15*x + y"])
        conn = levi_civita(g).add_tensor(eta_tensor_id(chart, eta))
        for p in halton_points(chart, 10):
            ric = ricci_values(conn, g, p)
            assert np.max(np.abs(frame_ricci_values(conn, g, p) - ric)) < 1e-12
            assert np.max(np.abs(ric - ric.T)) > 0.1
