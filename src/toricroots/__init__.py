"""Exact additive-action analysis for toric varieties.

Decides whether a toric variety, given as a fan, or a projective toric
variety, given as a lattice polytope, admits an action of the vector group
with a dense open orbit: Demazure roots, complete collections, equivalence
automorphisms, Cox presentations, explicit action formulas, and the
inscribed-in-a-rectangle polytope criterion. All arithmetic is exact.
"""

from .errors import (
    BadParams,
    DegeneratePolytope,
    DimensionMismatch,
    InfiniteRoots,
    InternalError,
    InvalidFan,
    InvalidPolytope,
    NoWitness,
    NotComplete,
    NotSquare,
    NotStronglyConvex,
    NotUnimodular,
    RaysDoNotSpan,
    ToricError,
    TorsionClassGroup,
    ZeroVector,
)
from .lattice import (
    UNBOUNDED,
    Constraint,
    Unbounded,
    determinant,
    dual_basis,
    hermite_column_form,
    kernel_basis,
    lattice_points,
    primitive,
    smith_normal_form,
)
from .fan import (
    Cone,
    Fan,
    LatticeAutomorphism,
    apply_automorphism,
    build_fan,
    builtin_fan,
    cone_dual_description,
    fan_from_json_dict,
    fan_to_json_dict,
    hirzebruch,
    is_complete,
    is_fan_automorphism,
    p235_model,
    product_p1,
    projective_space,
    validate_fan,
    wps_one,
)
from .demazure import (
    CoxDerivation,
    DemazureRoot,
    RayRoots,
    RootSet,
    all_roots,
    bracket_oracle,
    commute,
    demazure_root,
    derivation,
    format_derivation,
    he_connected_pairs,
    is_demazure_root,
    roots_for_ray,
)
from .additive import (
    AdditiveDecision,
    CompleteCollection,
    EquivalenceWitness,
    ThreeConReport,
    admits_additive,
    complete_collections,
    condition4_distinguished_span,
    find_equivalence,
    theorem3con_report,
    verify_witness,
)
from .cox import (
    CoxPresentation,
    GaActionFormula,
    action_formulas,
    canonical_degrees,
    cox_presentation,
    degree_zero_check,
    format_formula,
)
from .polytope import (
    FacetInequality,
    LatticePolytope,
    PolytopeTheoremReport,
    RectangleWitness,
    builtin_polytope,
    check_polytope_theorem,
    edge_directions_at,
    facets,
    inscribed_in_rectangle,
    normal_fan,
    polytope_from_json_dict,
    polytope_to_json_dict,
    scale,
)

__version__ = "0.1.0"
