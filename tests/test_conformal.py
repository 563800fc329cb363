from pathlib import Path

import numpy as np
import pytest

from conftest import (
    ambient_swmt_3d,
    conformally_flat_structure,
    plane_chart,
    potentials,
    smt_structure,
    swmt_structure,
)
from semiweyl.conformal import (
    check_codazzi_scaling,
    check_conformal_corollaries,
    check_conformally_flat,
    check_curvature_transform,
    check_gradient_codazzi_identity,
    check_ricci_antisymmetry,
    check_semi_dual_transform_law,
    check_structure_invariance,
    check_torsion_invariance,
    transform,
)
from semiweyl.fields import (
    ConnectionField,
    MetricField,
    OneFormField,
    ScalarField,
    _values_field,
)
from semiweyl import conformal
from semiweyl.report import run_spec
from semiweyl.sampling import halton_points
from semiweyl.specfile import load_spec
from semiweyl.structures import Structure, is_swmt
from semiweyl.verdicts import RunConfig


def generic_transform(chart):
    return potentials(chart, "0.2*x + 0.1*sin(y)", "0.15*y + 0.1*x*y")


class TestTransform:
    def test_connection_golden(self):
        # Euclidean metric, flat connection, phi = 0, psi = x:
        # the only new coefficients are gamma^1_11 = gamma^1_22 = -1
        chart = plane_chart()
        g = MetricField.euclidean(chart)
        s = Structure(chart, g, OneFormField.from_expressions(chart, ["0", "0"]),
                      ConnectionField.flat(chart))
        t = potentials(chart, "0", "x")
        s_t = transform(s, t)
        expected = np.zeros((2, 2, 2))
        expected[0, 0, 0] = -1.0
        expected[0, 1, 1] = -1.0
        for p in halton_points(chart, 10):
            assert np.allclose(s_t.conn.value(p), expected, atol=1e-12)

    def test_metric_scaling(self):
        s = swmt_structure()
        t = generic_transform(s.chart)
        s_t = transform(s, t)
        for p in halton_points(s.chart, 10):
            factor = np.exp(t.phi.value(p) + t.psi.value(p))
            assert np.allclose(s_t.g.value(p), factor * s.g.value(p), rtol=1e-12)

    def test_identity_transform_is_noop(self):
        s = swmt_structure()
        t = potentials(s.chart, "0", "0")
        s_t = transform(s, t)
        for p in halton_points(s.chart, 5):
            assert np.allclose(s_t.g.value(p), s.g.value(p))
            assert np.allclose(s_t.conn.value(p), s.conn.value(p))
            assert np.allclose(s_t.eta.value(p), s.eta.value(p))


class TestInvarianceLaws:
    def test_torsion_invariance_exact(self, config):
        s = swmt_structure()
        out = check_torsion_invariance(s, generic_transform(s.chart), config)
        assert all(v.passed for v in out)

    def test_codazzi_scaling(self, config):
        s = swmt_structure()
        out = check_codazzi_scaling(s, generic_transform(s.chart), config)
        assert all(v.passed for v in out)

    def test_structure_invariance_positive_and_negative(self, config):
        ok = swmt_structure()
        assert all(v.passed for v in check_structure_invariance(ok, generic_transform(ok.chart), config))
        # broken structure: both sides must fail, which still counts as
        # verdict agreement
        broken = swmt_structure(eta_comps=("y + 0.5", "sin(x) - 0.3*x"))
        broken = Structure(broken.chart, broken.g,
                           OneFormField.from_expressions(broken.chart, ["y", "sin(x) + 0.4"]),
                           broken.conn)
        assert not is_swmt(broken, config).passed
        assert all(v.passed for v in check_structure_invariance(broken, generic_transform(broken.chart), config))

    def test_semi_dual_law_requires_swap(self, config):
        s = swmt_structure()
        t = generic_transform(s.chart)
        assert all(v.passed for v in check_semi_dual_transform_law(s, t, config, swap_roles=True))
        unswapped = check_semi_dual_transform_law(s, t, config, swap_roles=False)
        assert any(not v.passed and v.max_residual > 1e-3 for v in unswapped)


class TestCurvatureLaws:
    def test_curvature_ricci_scalar_laws(self, config):
        s = swmt_structure()
        out = check_curvature_transform(s, generic_transform(s.chart), config)
        names = {v.name for v in out}
        assert {"cp_curvature_law", "cp_ricci_law", "cp_scalar_law"} <= names
        assert all(v.passed for v in out)

    def test_ricci_antisymmetry_identity(self, config):
        s = swmt_structure()
        out = check_ricci_antisymmetry(s, generic_transform(s.chart), config)
        assert all(v.passed for v in out)

    def test_gradient_codazzi_identity(self, config):
        s = swmt_structure()
        f = ScalarField.from_expression(s.chart, "x*y + sin(x)")
        out = check_gradient_codazzi_identity(s, f, config)
        assert all(v.passed for v in out)


class TestConformalSpecialCase:
    def test_corollaries(self, config):
        s = swmt_structure()
        psi = ScalarField.from_expression(s.chart, "0.2*x + 0.1*y*y")
        out = check_conformal_corollaries(s, psi, config)
        assert out and all(v.passed for v in out)

    def test_conformally_flat_closed_forms(self, config):
        s, psi = conformally_flat_structure()
        out = check_conformally_flat(s, psi, config)
        assert out and all(v.passed for v in out)

    def test_conformally_flat_gate_rejects_mismatch(self, config):
        # handing the check a potential that does not match the connection
        # shift must bail out as skipped, not report a pass
        s, _psi = conformally_flat_structure()
        wrong = ScalarField.from_expression(s.chart, "0.9*x")
        out = check_conformally_flat(s, wrong, config)
        assert all(v.skipped for v in out)


class TestTransformComposition:
    def test_two_step_composition(self, config):
        # applying (phi1, psi1) then (phi2, psi2) equals applying the sums
        s = swmt_structure()
        chart = s.chart
        one = transform(transform(s, potentials(chart, "0.1*x", "0.05*y")),
                        potentials(chart, "0.07*y", "0.12*x"))
        both = transform(s, potentials(chart, "0.1*x + 0.07*y", "0.05*y + 0.12*x"))
        for p in halton_points(chart, 10):
            assert np.allclose(one.g.value(p), both.g.value(p), rtol=1e-12)
            assert np.allclose(one.conn.value(p), both.conn.value(p), atol=1e-10)


def _loop_rhs_curvature(d):
    """The curvature change law written out index by index."""
    n = d.n
    Rt = np.empty((n, n, n, n))
    phi2 = np.empty((n, n))
    for i in range(n):
        for k in range(n):
            gam_dphi = sum(d.gam[m, i, k] * d.dphi[m] for m in range(n))  # in index order, as einsum sums
            phi2[i, k] = d.hess_phi[i, k] - gam_dphi - d.dphi[i] * d.dphi[k] + d.g[i, k] * d.g_phi_psi
    for l in range(n):
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    val = (
                        d.R[l, k, i, j]
                        + d.dphi[k] * d.T[l, i, j]
                        + (d.dpsi[i] * d.g[j, k] - d.dpsi[j] * d.g[i, k]) * d.grad_psi[l]
                        - d.dng[i, j, k] * d.grad_psi[l]
                        + d.g[i, k] * d.dVpsi[j, l]
                        - d.g[j, k] * d.dVpsi[i, l]
                    )
                    if l == j:
                        val += phi2[i, k]
                    if l == i:
                        val -= phi2[j, k]
                    Rt[l, k, i, j] = val
    return Rt


def _loop_rhs_ricci(d):
    """The Ricci change law written out index by index."""
    n = d.n
    ric = np.empty((n, n))
    # contracted as the law contracts it, so the sums below compare bitwise
    gT_psi_Y_Z = np.einsum("maj,a,mk->jk", d.T, d.grad_psi, d.g)
    ngradphi = np.einsum("jmk,m->jk", d.ng, d.grad_phi)
    ngradpsi = np.einsum("jmk,m->jk", d.ng, d.grad_psi)
    hess_phi_g = np.einsum("jm,mk->jk", d.dVphi, d.g)
    hess_psi_g = np.einsum("jm,mk->jk", d.dVpsi, d.g)
    n_gradpsi_g = np.einsum("ajk,a->jk", d.ng, d.grad_psi)
    bracket = d.norm_psi2 - d.lap_psi - (n - 1) * d.g_phi_psi
    for j in range(n):
        for k in range(n):
            ric[j, k] = (
                d.ric[j, k]
                + d.dphi[k] * d.trT[j]
                + d.g[j, k] * bracket
                + (n - 1) * d.dphi[j] * d.dphi[k]
                - d.dpsi[j] * d.dpsi[k]
                - gT_psi_Y_Z[j, k]
                - (n - 1) * (ngradphi[j, k] + hess_phi_g[j, k])
                + ngradpsi[j, k]
                + hess_psi_g[j, k]
                - n_gradpsi_g[j, k]
            )
    return ric


class TestChangeLawArrays:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_array_laws_equal_the_index_loops(self, dim):
        if dim == 2:
            s = swmt_structure()
            t = potentials(s.chart, "0.2*x + 0.1*sin(y)", "0.15*y + 0.1*x*y")
        else:
            s = ambient_swmt_3d()
            t = potentials(s.chart, "0.2*x + 0.1*y*z", "0.1*z + 0.05*x*y")
        for p in halton_points(s.chart, 10):
            d = conformal._point_data(s, t, p)
            assert np.array_equal(conformal._rhs_curvature(d), _loop_rhs_curvature(d))
            assert np.array_equal(conformal._rhs_ricci(d), _loop_rhs_ricci(d))


def count_point_data(monkeypatch):
    """Patch :func:`conformal._point_data` so that each computation of the
    point data appends the bytes of its points to the list returned."""
    builds = []
    compute = conformal._point_data.__wrapped__

    def counted(s, t, p):
        builds.append(p.tobytes())
        d = compute(s, t, p)
        assert d.g.shape == p.shape[:-1] + (2, 2) and d.scal.shape == p.shape[:-1]
        return d

    monkeypatch.setattr(conformal, "_point_data", _values_field(counted))
    return builds


class TestPointData:
    def test_each_check_builds_the_point_data_once_per_point(self, monkeypatch):
        # cp_curvature_laws and cp_ricci_antisymmetry (two laws) read one
        # _PointData of the spec's transform, built on the whole sample set,
        # from the run's result store, conformal_corollaries (three laws and
        # the cyclic identity) one of its phi = 0 transform; cp_codazzi_scaling
        # builds none.  One per point: 2 x 150; one per check: 3 x 150
        spec = load_spec(Path(__file__).resolve().parents[1] / "fixtures" / "conformal_projective_suite.spec")
        builds = count_point_data(monkeypatch)
        run_spec(spec)
        assert spec.config.samples == 150
        pts = halton_points(spec.chart, 150, spec.config.seed)
        assert builds == [pts.tobytes()] * 2

    def test_torsion_invariance_builds_no_point_data(self, monkeypatch):
        # cp_torsion_term_symmetry reads the coefficient tensor that
        # transform adds; it needs no curvature or covariant derivatives
        spec = load_spec(Path(__file__).resolve().parents[1] / "fixtures" / "swmt_eta_shift.spec")
        builds = count_point_data(monkeypatch)
        symmetry, torsion = check_torsion_invariance(spec.structure, spec.transform, spec.config)
        assert builds == []
        assert symmetry.name == "cp_torsion_term_symmetry" and symmetry.tol == 0.0
        assert symmetry.passed and symmetry.max_residual == 0.0 and symmetry.points_tested == 200
        assert torsion.passed and torsion.points_tested == 200

    def test_codazzi_scaling_builds_no_point_data(self, monkeypatch):
        # the law reads nabla g before and after and the two potentials
        spec = load_spec(Path(__file__).resolve().parents[1] / "fixtures" / "conformal_projective_suite.spec")
        builds = count_point_data(monkeypatch)
        (v,) = check_codazzi_scaling(spec.structure, spec.transform, spec.config)
        assert builds == []
        assert v.name == "cp_codazzi_scaling" and v.passed and v.points_tested == 150
