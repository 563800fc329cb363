"""The catalogue of named verification checks.

Each entry is one declaration: the user-facing check name, the geometric
law it tests (the ``anchor`` string), the check's function, the spec
arguments it takes before ``config`` and any options after ``config``.
:data:`ARGUMENTS` says how each argument is read from a loaded spec,
which spec blocks it needs, so the blocks a check requires follow from its
arguments, and which fields it gives the Taylor oracle of ``semiweyl
oracle``.

An entry names its function by module and attribute, and
:func:`run_check` imports the module when the check first runs, so a
process imports only the check families its specs use.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass

from .verdicts import Verdict

__all__ = ["REGISTRY", "CheckEntry", "run_check"]

# the spec blocks, in the order a check lists those it requires, and what
# a spec writes to declare each
BLOCKS = {
    "structure": "[metric] (with [manifold])",
    "submanifold": "[submanifold]",
    "lightlike": "[lightlike]",
    "transform": "[transform]",
    "affine": "[affine]",
    "affine_psi": "[affine] with a 'psi' entry",
}


def _attr(path):
    """``"module.attribute"`` of this package, importing the module on first use."""
    module, attribute = path.split(".")
    return getattr(importlib.import_module(f".{module}", __package__), attribute)


def _fields(prefix, chart, owner, *keys):
    """``(label, chart, fn(p, order))`` of the fields (by their ``jet``) or
    the methods of ``owner`` named ``keys``."""
    return [(f"{prefix}.{key}", chart, getattr(getattr(owner, key), "jet", getattr(owner, key))) for key in keys]


def _embedding_fields(emb, spec):
    induced = _attr("hypersurfaces.induced_structure")(emb, spec.structure)
    return _fields("embedding", emb.domain, emb, "coords") + _fields("induced", emb.domain, induced, "g", "eta", "conn")


def _realized(prefix, dist):
    s, B = _attr("affine.realized_structure")(dist)
    return _fields(prefix, dist.chart, s, "g", "eta", "conn") + [(f"{prefix}.B", dist.chart, B)]


def _rescaled_fields(psi, spec):
    rescaled = _attr("affine.xi_rescaled")
    return [f for v in ("inner", "outer") for f in _realized(f"rescaled_{v}", rescaled(spec.affine, psi, v))]


# each spec argument of a check: the blocks it needs, how it is read from a
# VerificationSpec, and the fields it gives the Taylor oracle of ``semiweyl
# oracle``: from the argument and the spec, ``[(label, chart, fn(p, order))]``
# with ``fn`` giving a jet, or a tuple or dict of jets and arrays
ARGUMENTS = {
    "structure": (
        ("structure",),
        lambda spec: spec.structure,
        lambda s, spec: _fields("structure", s.chart, s, "g", "eta", "conn")
        + _fields("semi_dual", s.chart, _attr("structures.semi_dual")(s), "conn"),
    ),
    "transform": (
        ("transform",),
        lambda spec: spec.transform,
        lambda t, spec: _fields("transformed", spec.chart, _attr("conformal.transform")(spec.structure, t), "g", "conn"),
    ),
    "phi": (("transform",), lambda spec: spec.transform.phi, lambda phi, spec: [("phi", phi.chart, phi.jet)]),
    "psi": (("transform",), lambda spec: spec.transform.psi, lambda psi, spec: [("psi", psi.chart, psi.jet)]),
    "embedding": (("submanifold",), lambda spec: spec.embedding, _embedding_fields),
    "hypersurface_frame": (
        ("structure", "submanifold"),
        lambda spec: _attr("hypersurfaces.HypersurfaceFrame")(spec.embedding, spec.structure),
        lambda f, spec: _fields("hypersurface", f.emb.domain, f, "normal", "second_fundamental_form", "weingarten"),
    ),
    "lightlike_frame": (
        ("structure", "lightlike"),
        lambda spec: _attr("lightlike.LightlikeFrame")(spec.lightlike_embedding, spec.structure, None),
        lambda f, spec: _fields("lightlike", f.emb.domain, f, "transversal", "screen_data"),
    ),
    "affine": (("affine",), lambda spec: spec.affine, lambda dist, spec: _realized("realized", dist)),
    "affine_psi": (("affine_psi",), lambda spec: spec.affine_psi, _rescaled_fields),
}


@dataclass(frozen=True)
class CheckEntry:
    """A check, run as ``fn(*args, config, **options)`` with its spec
    arguments ``args`` (names in :data:`ARGUMENTS`) read from the spec;
    ``fn`` is ``"module.attribute"`` of a module of this package."""

    anchor: str
    fn: str
    args: tuple
    options: dict

    @property
    def requires(self):
        """The spec blocks the check's arguments need, in :data:`BLOCKS` order."""
        needs = {block for arg in self.args for block in ARGUMENTS[arg][0]}
        return tuple(block for block in BLOCKS if block in needs)


def _build_registry():
    r = {}

    def add(name, anchor, fn, *args, **options):
        r[name] = CheckEntry(anchor, fn, args, options)

    # --- structure predicates and duals -----------------------------------
    add(
        "is_statistical",
        "torsion-free connection with the symmetric metric-derivative (Codazzi) property",
        "structures.is_statistical", "structure",
    )
    add(
        "is_smt",
        "Codazzi property corrected by the torsion pairing (statistical structure admitting torsion)",
        "structures.is_smt", "structure",
    )
    add(
        "is_swmt",
        "torsion-corrected Codazzi property weighted by a one-form (semi-Weyl structure admitting torsion)",
        "structures.is_swmt", "structure",
    )
    add(
        "dual_structure",
        "metric duality pairing defines the dual connection; double dual returns the original",
        "structures.check_dual_structure", "structure",
    )
    add(
        "semi_dual_structure",
        "one-form-weighted duality pairing; semi-dual differs from the metric dual by the one-form times identity",
        "structures.check_semi_dual_structure", "structure",
    )

    # --- two-potential (conformal-projective) transformation --------------
    add(
        "cp_torsion_invariance",
        "transformed connection keeps the torsion coefficients exactly",
        "conformal.check_torsion_invariance", "structure", "transform",
    )
    add(
        "cp_codazzi_scaling",
        "the structure-defining residual scales by the conformal factor under the transformation",
        "conformal.check_codazzi_scaling", "structure", "transform",
    )
    add(
        "cp_structure_invariance",
        "semi-Weyl-with-torsion verdicts agree before and after the transformation",
        "conformal.check_structure_invariance", "structure", "transform",
    )
    add(
        "cp_semi_dual_law",
        "semi-dual of the transformed structure equals the transform (with swapped potentials) of the semi-dual",
        "conformal.check_semi_dual_transform_law", "structure", "transform", swap_roles=True,
    )
    add(
        "cp_semi_dual_law_unswapped",
        "negative control: the semi-dual law WITHOUT swapping the potentials (expected to fail generically)",
        "conformal.check_semi_dual_transform_law", "structure", "transform", swap_roles=False,
    )
    add(
        "cp_curvature_laws",
        "closed-form change of curvature, Ricci and scalar curvature under the transformation",
        "conformal.check_curvature_transform", "structure", "transform",
    )
    add(
        "cp_ricci_antisymmetry",
        "antisymmetric part of the transformed Ricci tensor matches its derivative/torsion expression",
        "conformal.check_ricci_antisymmetry", "structure", "transform",
    )
    add(
        "gradient_codazzi_identity",
        "second-derivative symmetry of a scalar against the torsion pairing on semi-Weyl structures",
        "conformal.check_gradient_codazzi_identity", "structure", "phi",
    )
    add(
        "conformal_corollaries",
        "single-potential (conformal) special case: invariance, antisymmetry preservation, cyclic torsion identity",
        "conformal.check_conformal_corollaries", "structure", "psi",
    )
    add(
        "conformally_flat",
        "gradient-shifted flat connection: closed-form curvature, Ricci and scalar curvature",
        "conformal.check_conformally_flat", "structure", "psi",
    )

    # --- non-degenerate hypersurfaces --------------------------------------
    add(
        "induced_structure",
        "pullback metric, restricted one-form and tangential connection inherit the semi-Weyl property",
        "hypersurfaces.check_induced_structure", "embedding", "structure",
    )
    add(
        "induced_duality_commutes",
        "inducing to the hypersurface commutes with taking the semi-dual structure",
        "hypersurfaces.check_induced_duality_commutes", "embedding", "structure",
    )
    add(
        "induced_cp_equivalence",
        "transforming then inducing equals inducing then transforming with the pulled-back potentials",
        "hypersurfaces.check_induced_cp_equivalence", "embedding", "structure", "transform",
    )
    add(
        "beta_symmetry",
        "the dual second-fundamental form is symmetric on semi-Weyl ambients",
        "hypersurfaces.check_beta_symmetry", "hypersurface_frame",
    )
    add(
        "duality_pairing",
        "second-fundamental data of the structure and its semi-dual pair up through the normal sign",
        "hypersurfaces.check_duality_pairing", "hypersurface_frame",
    )
    add(
        "umbilic_preservation",
        "transformation law of the dual second-fundamental form; umbilic points stay umbilic",
        "hypersurfaces.check_umbilic_preservation", "hypersurface_frame", "transform",
    )
    add(
        "gauss_equation",
        "ambient curvature along the hypersurface splits into tangential curvature plus fundamental-form terms",
        "hypersurfaces.check_gauss_equation", "embedding", "structure",
    )
    add(
        "flat_dual_hypersurface",
        "flat dual ambient: induced dual curvature is the metric wedge with the shape operator; df + f(tau - eta) = 0",
        "hypersurfaces.check_flat_dual_hypersurface", "embedding", "structure",
    )

    # --- lightlike hypersurfaces -------------------------------------------
    add(
        "radical_quality",
        "the degenerate induced metric has a one-dimensional kernel spanned by the computed radical field",
        "lightlike.check_radical_quality", "lightlike_frame",
    )
    add(
        "transversal_conditions",
        "the null transversal satisfies: unit pairing with the radical, self-orthogonal, orthogonal to the screen",
        "lightlike.check_transversal_conditions", "lightlike_frame",
    )
    add(
        "screen_integrability",
        "Lie brackets of the screen fields stay in the screen: they have no radical component",
        "lightlike.check_screen_integrability", "lightlike_frame",
    )
    add(
        "screen_structure",
        "the screen metric, restricted one-form and screen connection inherit the semi-Weyl property",
        "lightlike.check_screen_structure", "lightlike_frame",
    )
    add(
        "screen_cp_equivalence",
        "transforming then restricting to the screen equals restricting then transforming",
        "lightlike.check_screen_cp_equivalence", "lightlike_frame", "transform",
    )
    add(
        "lightlike_beta_symmetry",
        "the screen dual second-fundamental form is symmetric on semi-Weyl ambients",
        "hypersurfaces.check_beta_symmetry", "lightlike_frame",
    )
    add(
        "lightlike_duality_pairing",
        "screen fundamental data of the structure and its semi-dual pair up",
        "hypersurfaces.check_duality_pairing", "lightlike_frame",
    )
    add(
        "lightlike_umbilic_preservation",
        "transformation law of the screen dual fundamental form; umbilic screens stay umbilic",
        "hypersurfaces.check_umbilic_preservation", "lightlike_frame", "transform",
    )

    # --- affine distributions ------------------------------------------------
    add(
        "affine_realization",
        "the frame structure equations realize a symmetric metric and a semi-Weyl structure",
        "affine.check_realization", "affine",
    )
    add(
        "affine_curvature_law",
        "realized curvature equals the metric wedge with the shape operator",
        "affine.check_realization_curvature_law", "affine",
    )
    add(
        "affine_ricci_scalar",
        "frame Ricci formula, scalar curvature as (n-1) times the frame trace of the shape operator, antisymmetry identity",
        "affine.check_realization_ricci_scalar", "affine",
    )
    add(
        "shape_proportional_scalar",
        "identity-proportional shape operator forces symmetric Ricci and scalar curvature c*n*(n-1)",
        "affine.check_shape_proportional_scalar", "affine",
    )
    add(
        "xi_rescale_laws_inner",
        "closed-form transformed data for the tangential-shift-inside rescaling of the transversal",
        "affine.check_xi_rescale_laws", "affine", "affine_psi", variant="inner",
    )
    add(
        "xi_rescale_laws_outer",
        "closed-form transformed data for the tangential-shift-outside rescaling of the transversal",
        "affine.check_xi_rescale_laws", "affine", "affine_psi", variant="outer",
    )
    add(
        "xi_rescale_structure_inner",
        "the inner-rescaled distribution still realizes a semi-Weyl structure",
        "affine.check_xi_rescale_structure", "affine", "affine_psi", variant="inner",
    )
    add(
        "xi_rescale_structure_outer",
        "the outer-rescaled distribution still realizes a semi-Weyl structure",
        "affine.check_xi_rescale_structure", "affine", "affine_psi", variant="outer",
    )
    add(
        "xi_rescale_codazzi",
        "outer rescaling: torsion unchanged; metric-derivative antisymmetry scales with an extra wedge correction",
        "affine.check_xi_rescale_codazzi", "affine", "affine_psi",
    )

    return r


REGISTRY = _build_registry()


def run_check(name, spec, config):
    """Run one named check against a loaded spec; returns its verdicts."""
    entry = REGISTRY[name]
    out = _attr(entry.fn)(*(ARGUMENTS[arg][1](spec) for arg in entry.args), config, **entry.options)
    return [out] if isinstance(out, Verdict) else out
