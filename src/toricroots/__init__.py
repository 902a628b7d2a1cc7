"""Exact additive-action analysis for toric varieties.

Decides whether a toric variety, given as a fan, or a projective toric
variety, given as a lattice polytope, admits an action of the vector group
with a dense open orbit: Demazure roots, complete collections, equivalence
automorphisms, Cox presentations, explicit action formulas, and the
inscribed-in-a-rectangle polytope criterion. All arithmetic is exact.

Importing the package loads none of its modules. Each public name below is
imported from its defining module on first access (PEP 562), so a program,
or a CLI command, compiles only the modules it uses.
"""

import sys

_EXPORTS = {
    "errors": (
        "BadParams",
        "DegeneratePolytope",
        "DimensionMismatch",
        "InfiniteRoots",
        "InternalError",
        "InvalidFan",
        "InvalidPolytope",
        "NoWitness",
        "NotComplete",
        "NotSquare",
        "NotStronglyConvex",
        "NotUnimodular",
        "RaysDoNotSpan",
        "ToricError",
        "TorsionClassGroup",
        "ZeroVector",
    ),
    "lattice": (
        "UNBOUNDED",
        "Constraint",
        "Unbounded",
        "determinant",
        "dual_basis",
        "hermite_column_form",
        "kernel_basis",
        "lattice_points",
        "primitive",
        "smith_normal_form",
    ),
    "fan": (
        "Cone",
        "Fan",
        "LatticeAutomorphism",
        "apply_automorphism",
        "build_fan",
        "builtin_fan",
        "cone_dual_description",
        "fan_from_json_dict",
        "fan_to_json_dict",
        "hirzebruch",
        "is_complete",
        "is_fan_automorphism",
        "p235_model",
        "product_p1",
        "projective_space",
        "validate_fan",
        "wps_one",
    ),
    "demazure": (
        "CoxDerivation",
        "DemazureRoot",
        "RayRoots",
        "RootSet",
        "all_roots",
        "commute",
        "demazure_root",
        "derivation",
        "format_derivation",
        "he_connected_pairs",
        "is_demazure_root",
        "roots_for_ray",
    ),
    "additive": (
        "AdditiveDecision",
        "CompleteCollection",
        "EquivalenceWitness",
        "ThreeConReport",
        "admits_additive",
        "complete_collections",
        "condition4_distinguished_span",
        "find_equivalence",
        "theorem3con_report",
        "verify_witness",
    ),
    "cox": (
        "CoxPresentation",
        "GaActionFormula",
        "action_formulas",
        "canonical_degrees",
        "cox_presentation",
        "format_formula",
    ),
    "polytope": (
        "FacetInequality",
        "LatticePolytope",
        "PolytopeTheoremReport",
        "RectangleWitness",
        "builtin_polytope",
        "check_polytope_theorem",
        "edge_directions_at",
        "facets",
        "inscribed_in_rectangle",
        "normal_fan",
        "polytope_from_json_dict",
        "polytope_to_json_dict",
        "scale",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

# the exported names and, as before the imports were lazy, the module names
__all__ = [*_MODULE_OF, *_EXPORTS]

__version__ = "0.1.0"


def _submodule(name):
    # the import statement's machinery, so that -X importtime reports it
    full = f"{__name__}.{name}"
    __import__(full)
    return sys.modules[full]


def __getattr__(name):
    """Import a public name, or a module of the package, on first access and
    keep it in the package namespace; the next access does not come here."""
    if name in _EXPORTS:
        return _submodule(name)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_submodule(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
