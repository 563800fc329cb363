import numpy as np
import pytest

from conftest import plane_chart, smt_structure, swmt_structure
from semiweyl.fields import (
    ConnectionField,
    MetricField,
    OneFormField,
    eta_tensor_id,
)
from semiweyl.sampling import halton_points
from semiweyl.structures import (
    Structure,
    check_dual_structure,
    check_semi_dual_structure,
    dual_connection,
    is_smt,
    is_statistical,
    is_swmt,
    semi_dual_connection,
)
from semiweyl.tensor import levi_civita
from semiweyl.verdicts import RunConfig, Verdict, agreement, gated


def levi_civita_structure(chart=None):
    chart = chart or plane_chart()
    g = MetricField.from_expressions(chart, [["1 + x*y", "0.2*y"], ["0.2*y", "2 + x*x"]])
    eta = OneFormField.from_expressions(chart, ["0", "0"])
    return Structure(chart, g, eta, levi_civita(g))


class TestPredicates:
    def test_levi_civita_is_statistical(self, config):
        v = is_statistical(levi_civita_structure(), config)
        assert v.passed and v.max_residual < 1e-12

    def test_torsion_shift_breaks_statistical(self, config):
        chart = plane_chart()
        g = MetricField.euclidean(chart)
        dx = OneFormField.from_expressions(chart, ["1", "0"])
        s = Structure(chart, g, OneFormField.from_expressions(chart, ["0", "0"]),
                      levi_civita(g).add_tensor(eta_tensor_id(chart, dx)))
        v = is_statistical(s, config)
        assert not v.passed and v.max_residual > 1e-3

    def test_conformal_gradient_family_is_smt(self, config):
        v = is_smt(smt_structure(), config)
        assert v.passed and v.max_residual < 1e-12

    def test_eta_shift_family_is_swmt(self, config):
        v = is_swmt(swmt_structure(), config)
        assert v.passed and v.max_residual < 1e-12

    def test_eta_shift_family_is_not_smt(self, config):
        v = is_smt(swmt_structure(), config)
        assert not v.passed and v.max_residual > 1e-3


class TestDuality:
    def test_dual_defining_identity(self):
        # X g(Y,Z) = g(nabla_X Y, Z) + g(Y, nabla*_X Z), checked on
        # coordinate fields through the metric jets
        s = levi_civita_structure()
        dual = dual_connection(s.g, s.conn)
        for p in halton_points(s.chart, 20):
            gj = s.g.jet(p, 1)
            gam = s.conn.value(p)
            dam = dual.value(p)
            gv = s.g.value(p)
            n = s.chart.dim
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        lhs = gj[j, k].grad[i]
                        rhs = sum(gam[l, i, j] * gv[l, k] + dam[l, i, k] * gv[j, l] for l in range(n))
                        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_semi_dual_defining_identity(self):
        # semi-duality adds eta(X) g(Y,Z) to the metric-derivative side of
        # the duality pairing (semi-dual = dual + eta x identity)
        s = swmt_structure()
        sd = semi_dual_connection(s.g, s.eta, s.conn)
        for p in halton_points(s.chart, 20):
            gj = s.g.jet(p, 1)
            gam = s.conn.value(p)
            dam = sd.value(p)
            gv = s.g.value(p)
            ev = s.eta.value(p)
            n = s.chart.dim
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        lhs = gj[j, k].grad[i] + ev[i] * gv[j, k]
                        rhs = sum(gam[l, i, j] * gv[l, k] + dam[l, i, k] * gv[j, l] for l in range(n))
                        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_double_semi_dual_is_identity(self, config):
        s = swmt_structure()
        sd = semi_dual_connection(s.g, s.eta, s.conn)
        sdd = semi_dual_connection(s.g, s.eta, sd)
        for p in halton_points(s.chart, 30):
            assert np.max(np.abs(sdd.value(p) - s.conn.value(p))) < 1e-11

    def test_semi_dual_minus_dual_is_eta_times_identity(self):
        s = swmt_structure()
        sd = semi_dual_connection(s.g, s.eta, s.conn)
        d = dual_connection(s.g, s.conn)
        n = s.chart.dim
        for p in halton_points(s.chart, 30):
            diff = sd.value(p) - d.value(p)
            ev = s.eta.value(p)
            expected = np.zeros((n, n, n))
            for k in range(n):
                for i in range(n):
                    expected[k, i, k] += ev[i]
            assert np.allclose(diff, expected, atol=1e-10)

    def test_dual_structure_equivalences(self, config):
        for s in (levi_civita_structure(), swmt_structure(), smt_structure()):
            out = check_dual_structure(s, config)
            assert out and all(v.passed for v in out)

    def test_semi_dual_structure_equivalences(self, config):
        out = check_semi_dual_structure(swmt_structure(), config)
        assert out and all(v.passed for v in out)


class TestSelfDuality:
    def test_levi_civita_self_dual(self):
        s = levi_civita_structure()
        d = dual_connection(s.g, s.conn)
        for p in halton_points(s.chart, 20):
            assert np.max(np.abs(d.value(p) - s.conn.value(p))) < 1e-12


def verdict(name, passed=True, skipped=False, residual=1e-12, tested=10, skipped_points=0):
    return Verdict(name, residual, tested, skipped_points, 1e-8, passed, skipped=skipped)


class TestVerdictHelpers:
    def test_gated_is_a_skip_carrying_the_reason(self):
        v = gated("beta_symmetry", "ambient structure condition fails", 1e-9)
        assert v.skipped and not v.passed
        assert v.name == "beta_symmetry" and v.tol == 1e-9
        assert (v.points_tested, v.points_skipped) == (0, 0)
        assert v.max_residual != v.max_residual
        assert v.detail == "hypothesis not met: ambient structure condition fails"

    def test_agreement_passes_when_each_group_shares_an_outcome(self):
        a, b = verdict("a"), verdict("b", residual=3e-9, tested=7, skipped_points=2)
        c, d = verdict("c", passed=False, residual=0.5), verdict("d", passed=False)
        v = agreement("law", [(a, b), (c, d), (d, c)], 1e-8, detail="iff")
        assert v.passed and not v.skipped
        assert v.max_residual == 0.5
        assert (v.points_tested, v.points_skipped) == (37, 2)  # each input counted once
        assert v.detail == "iff"

    def test_agreement_fails_on_differing_outcomes(self):
        v = agreement("law", [(verdict("a"), verdict("b")), (verdict("c"), verdict("d", passed=False))], 1e-8)
        assert not v.passed and not v.skipped

    @pytest.mark.parametrize("other_skipped", [True, False])
    def test_agreement_with_a_skipped_input_skips(self, other_skipped):
        a = verdict("a", passed=False, skipped=True, residual=float("nan"), tested=0, skipped_points=5)
        b = verdict("b", passed=False, skipped=other_skipped, residual=0.25)
        v = agreement("law", [(a, b)], 1e-8, detail="iff")
        assert v.skipped and not v.passed
        assert v.max_residual == 0.25
        assert (v.points_tested, v.points_skipped) == (10, 5)
        assert v.detail.startswith("iff; undecided") and "a" in v.detail

    def test_equivalences_skip_when_their_sides_skip(self):
        cfg = RunConfig(samples=10, seed=0, tol=1e-8, min_valid_points=50)
        s = swmt_structure()
        out = check_dual_structure(s, cfg, check_flatness=True) + check_semi_dual_structure(s, cfg, check_flatness=True)
        assert [v.name for v in out] == [
            "dual_equivalences",
            "dual_flatness_covanishing",
            "semi_dual_equivalences",
            "semi_dual_flatness_covanishing",
        ]
        assert all(v.skipped and not v.passed for v in out)
