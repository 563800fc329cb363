"""The catalogue of named verification checks.

Each entry binds a user-facing check name to the geometric law it tests
(the ``anchor`` string), the spec blocks it needs, and a runner that
produces one or more residual verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["REGISTRY", "CheckEntry", "run_check"]


@dataclass(frozen=True)
class CheckEntry:
    anchor: str
    requires: tuple
    runner: object  # callable(spec, config) -> [Verdict]


def _structure_check(fn):
    return lambda spec, config: [fn(spec.structure, config)]


def _s(fn):
    return lambda spec, config: fn(spec.structure, config)


def _st(fn):
    return lambda spec, config: fn(spec.structure, spec.transform, config)


def _emb(fn):
    return lambda spec, config: fn(spec.embedding, spec.structure, config)


def _embt(fn):
    return lambda spec, config: fn(spec.embedding, spec.structure, spec.transform, config)


def _on(frame_of, fn):
    """Run ``fn(frame, config)`` on a frame built for this check."""
    return lambda spec, config: fn(frame_of(spec), config)


def _on_t(frame_of, fn):
    return lambda spec, config: fn(frame_of(spec), spec.transform, config)


def _aff(fn):
    return lambda spec, config: fn(spec.affine, config)


def _aff_psi(fn, *extra):
    return lambda spec, config: fn(spec.affine, spec.affine_psi, *extra, config)


def _build_registry():
    from . import affine, conformal, hypersurfaces, lightlike, structures

    r = {}

    def add(name, anchor, requires, runner):
        r[name] = CheckEntry(anchor, tuple(requires), runner)

    def hypersurface_frame(spec):
        return hypersurfaces.HypersurfaceFrame(spec.embedding, spec.structure)

    def lightlike_frame(spec):
        return lightlike.LightlikeFrame(spec.lightlike_embedding, spec.structure)

    # --- structure predicates and duals -----------------------------------
    add(
        "is_statistical",
        "torsion-free connection with the symmetric metric-derivative (Codazzi) property",
        ("structure",),
        _structure_check(structures.is_statistical),
    )
    add(
        "is_smt",
        "Codazzi property corrected by the torsion pairing (statistical structure admitting torsion)",
        ("structure",),
        _structure_check(structures.is_smt),
    )
    add(
        "is_swmt",
        "torsion-corrected Codazzi property weighted by a one-form (semi-Weyl structure admitting torsion)",
        ("structure",),
        _structure_check(structures.is_swmt),
    )
    add(
        "dual_structure",
        "metric duality pairing defines the dual connection; double dual returns the original",
        ("structure",),
        _s(structures.check_dual_structure),
    )
    add(
        "semi_dual_structure",
        "one-form-weighted duality pairing; semi-dual differs from the metric dual by the one-form times identity",
        ("structure",),
        _s(structures.check_semi_dual_structure),
    )

    # --- two-potential (conformal-projective) transformation --------------
    add(
        "cp_torsion_invariance",
        "transformed connection keeps the torsion coefficients exactly",
        ("structure", "transform"),
        _st(conformal.check_torsion_invariance),
    )
    add(
        "cp_codazzi_scaling",
        "the structure-defining residual scales by the conformal factor under the transformation",
        ("structure", "transform"),
        _st(conformal.check_codazzi_scaling),
    )
    add(
        "cp_structure_invariance",
        "semi-Weyl-with-torsion verdicts agree before and after the transformation",
        ("structure", "transform"),
        _st(conformal.check_structure_invariance),
    )
    add(
        "cp_semi_dual_law",
        "semi-dual of the transformed structure equals the transform (with swapped potentials) of the semi-dual",
        ("structure", "transform"),
        _st(conformal.check_semi_dual_transform_law),
    )
    add(
        "cp_semi_dual_law_unswapped",
        "negative control: the semi-dual law WITHOUT swapping the potentials (expected to fail generically)",
        ("structure", "transform"),
        lambda spec, config: conformal.check_semi_dual_transform_law(
            spec.structure, spec.transform, config, swap_roles=False
        ),
    )
    add(
        "cp_curvature_laws",
        "closed-form change of curvature, Ricci and scalar curvature under the transformation",
        ("structure", "transform"),
        _st(conformal.check_curvature_transform),
    )
    add(
        "cp_ricci_antisymmetry",
        "antisymmetric part of the transformed Ricci tensor matches its derivative/torsion expression",
        ("structure", "transform"),
        _st(conformal.check_ricci_antisymmetry),
    )
    add(
        "gradient_codazzi_identity",
        "second-derivative symmetry of a scalar against the torsion pairing on semi-Weyl structures",
        ("structure", "transform"),
        lambda spec, config: conformal.check_gradient_codazzi_identity(spec.structure, spec.transform.phi, config),
    )
    add(
        "conformal_corollaries",
        "single-potential (conformal) special case: invariance, antisymmetry preservation, cyclic torsion identity",
        ("structure", "transform"),
        lambda spec, config: conformal.check_conformal_corollaries(spec.structure, spec.transform.psi, config),
    )
    add(
        "conformally_flat",
        "gradient-shifted flat connection: closed-form curvature, Ricci and scalar curvature",
        ("structure", "transform"),
        lambda spec, config: conformal.check_conformally_flat(spec.structure, spec.transform.psi, config),
    )

    # --- non-degenerate hypersurfaces --------------------------------------
    add(
        "induced_structure",
        "pullback metric, restricted one-form and tangential connection inherit the semi-Weyl property",
        ("structure", "submanifold"),
        _emb(hypersurfaces.check_induced_structure),
    )
    add(
        "induced_duality_commutes",
        "inducing to the hypersurface commutes with taking the semi-dual structure",
        ("structure", "submanifold"),
        _emb(hypersurfaces.check_induced_duality_commutes),
    )
    add(
        "induced_cp_equivalence",
        "transforming then inducing equals inducing then transforming with the pulled-back potentials",
        ("structure", "submanifold", "transform"),
        _embt(hypersurfaces.check_induced_cp_equivalence),
    )
    add(
        "beta_symmetry",
        "the dual second-fundamental form is symmetric on semi-Weyl ambients",
        ("structure", "submanifold"),
        _on(hypersurface_frame, hypersurfaces.check_beta_symmetry),
    )
    add(
        "duality_pairing",
        "second-fundamental data of the structure and its semi-dual pair up through the normal sign",
        ("structure", "submanifold"),
        _on(hypersurface_frame, hypersurfaces.check_duality_pairing),
    )
    add(
        "umbilic_preservation",
        "transformation law of the dual second-fundamental form; umbilic points stay umbilic",
        ("structure", "submanifold", "transform"),
        _on_t(hypersurface_frame, hypersurfaces.check_umbilic_preservation),
    )
    add(
        "gauss_equation",
        "ambient curvature along the hypersurface splits into tangential curvature plus fundamental-form terms",
        ("structure", "submanifold"),
        _emb(hypersurfaces.check_gauss_equation),
    )
    add(
        "flat_dual_hypersurface",
        "flat dual ambient: induced dual curvature is the metric wedge with the shape operator; df + f(tau - eta) = 0",
        ("structure", "submanifold"),
        _emb(hypersurfaces.check_flat_dual_hypersurface),
    )

    # --- lightlike hypersurfaces -------------------------------------------
    add(
        "radical_quality",
        "the degenerate induced metric has a one-dimensional kernel spanned by the computed radical field",
        ("structure", "lightlike"),
        _on(lightlike_frame, lightlike.check_radical_quality),
    )
    add(
        "transversal_conditions",
        "the null transversal satisfies: unit pairing with the radical, self-orthogonal, orthogonal to the screen",
        ("structure", "lightlike"),
        _on(lightlike_frame, lightlike.check_transversal_conditions),
    )
    add(
        "screen_integrability",
        "Lie brackets of the screen fields stay inside the screen-plus-radical span",
        ("structure", "lightlike"),
        _on(lightlike_frame, lightlike.check_screen_integrability),
    )
    add(
        "screen_structure",
        "the screen metric, restricted one-form and screen connection inherit the semi-Weyl property",
        ("structure", "lightlike"),
        _on(lightlike_frame, lightlike.check_screen_structure),
    )
    add(
        "screen_cp_equivalence",
        "transforming then restricting to the screen equals restricting then transforming",
        ("structure", "lightlike", "transform"),
        _on_t(lightlike_frame, lightlike.check_screen_cp_equivalence),
    )
    add(
        "lightlike_beta_symmetry",
        "the screen dual second-fundamental form is symmetric on semi-Weyl ambients",
        ("structure", "lightlike"),
        _on(lightlike_frame, hypersurfaces.check_beta_symmetry),
    )
    add(
        "lightlike_duality_pairing",
        "screen fundamental data of the structure and its semi-dual pair up",
        ("structure", "lightlike"),
        _on(lightlike_frame, hypersurfaces.check_duality_pairing),
    )
    add(
        "lightlike_umbilic_preservation",
        "transformation law of the screen dual fundamental form; umbilic screens stay umbilic",
        ("structure", "lightlike", "transform"),
        _on_t(lightlike_frame, hypersurfaces.check_umbilic_preservation),
    )

    # --- affine distributions ------------------------------------------------
    add(
        "affine_realization",
        "the frame structure equations realize a symmetric metric and a semi-Weyl structure",
        ("affine",),
        _aff(affine.check_realization),
    )
    add(
        "affine_curvature_law",
        "realized curvature equals the metric wedge with the shape operator",
        ("affine",),
        _aff(affine.check_realization_curvature_law),
    )
    add(
        "affine_ricci_scalar",
        "frame Ricci formula, scalar curvature as (n-1) times the frame trace of the shape operator, antisymmetry identity",
        ("affine",),
        _aff(affine.check_realization_ricci_scalar),
    )
    add(
        "shape_proportional_scalar",
        "identity-proportional shape operator forces symmetric Ricci and scalar curvature c*n*(n-1)",
        ("affine",),
        _aff(affine.check_shape_proportional_scalar),
    )
    add(
        "xi_rescale_laws_inner",
        "closed-form transformed data for the tangential-shift-inside rescaling of the transversal",
        ("affine", "affine_psi"),
        _aff_psi(affine.check_xi_rescale_laws, "inner"),
    )
    add(
        "xi_rescale_laws_outer",
        "closed-form transformed data for the tangential-shift-outside rescaling of the transversal",
        ("affine", "affine_psi"),
        _aff_psi(affine.check_xi_rescale_laws, "outer"),
    )
    add(
        "xi_rescale_structure_inner",
        "the inner-rescaled distribution still realizes a semi-Weyl structure",
        ("affine", "affine_psi"),
        _aff_psi(affine.check_xi_rescale_structure, "inner"),
    )
    add(
        "xi_rescale_structure_outer",
        "the outer-rescaled distribution still realizes a semi-Weyl structure",
        ("affine", "affine_psi"),
        _aff_psi(affine.check_xi_rescale_structure, "outer"),
    )
    add(
        "xi_rescale_codazzi",
        "outer rescaling: torsion unchanged; metric-derivative antisymmetry scales with an extra wedge correction",
        ("affine", "affine_psi"),
        _aff_psi(affine.check_xi_rescale_codazzi),
    )

    return r


REGISTRY = _build_registry()


def run_check(name, spec, config):
    """Run one named check against a loaded spec; returns its verdicts."""
    entry = REGISTRY[name]
    return entry.runner(spec, config)
