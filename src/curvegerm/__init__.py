"""Exact metric invariants of plane curve germs and their Holder classification.

The library computes, in exact rational and cyclotomic arithmetic, the
classical invariants of germs of complex analytic plane curves given by
truncated Newton-Puiseux parametrizations: characteristic exponents and
pairs, pairwise contact exponents and intersection multiplicities.  On
top of these it decides whether two germs can be told apart up to
bi-alpha-Holder homeomorphism and, when they can, certifies a threshold
exponent alpha0 < 1 above which no such homeomorphism exists.  A
floating-point module estimates contact exponents from sampled arcs and
cross-checks the exact results.
"""

from curvegerm.contact import (
    ContactReport,
    contact,
    contact_report,
    intersection_multiplicity,
)
from curvegerm.cyclotomic import (
    CyclotomicNumber,
    cyclotomic_polynomial,
    zeta,
)
from curvegerm.holder import (
    BASELINE,
    HolderVerdict,
    Obstruction,
    STATUS_DISTINCT,
    STATUS_EQUIVALENT,
    branch_obstruction,
    classify,
    contact_obstruction,
    pair_obstruction,
)
from curvegerm.invariants import (
    CharacteristicData,
    characteristic_data,
    lipschitz_normal_form,
)
from curvegerm.metric import (
    ArcSample,
    ContactEstimate,
    DistortionReport,
    branch_gap_profile,
    check_contact_distortion,
    default_branch_grid,
    estimate_branch_contact,
    estimate_contact,
    gap_function,
    gap_profile,
    geometric_grid,
    radial_holder_map,
    sample_branch_arc,
    witness_arcs,
)
from curvegerm.puiseux import (
    CurveGerm,
    GermValidationError,
    PuiseuxBranch,
    TruncationExceeded,
    branch,
    conjugate,
    difference_order,
    germ,
    germ_from_dict,
    germ_to_dict,
    lift_branch,
    load_germ,
    parse_germ,
)

__version__ = "0.1.0"

__all__ = [
    "ArcSample",
    "BASELINE",
    "CharacteristicData",
    "ContactEstimate",
    "ContactReport",
    "CurveGerm",
    "CyclotomicNumber",
    "DistortionReport",
    "GermValidationError",
    "HolderVerdict",
    "Obstruction",
    "PuiseuxBranch",
    "STATUS_DISTINCT",
    "STATUS_EQUIVALENT",
    "TruncationExceeded",
    "branch",
    "branch_gap_profile",
    "branch_obstruction",
    "characteristic_data",
    "check_contact_distortion",
    "classify",
    "conjugate",
    "contact",
    "contact_obstruction",
    "contact_report",
    "cyclotomic_polynomial",
    "default_branch_grid",
    "difference_order",
    "estimate_branch_contact",
    "estimate_contact",
    "gap_function",
    "gap_profile",
    "geometric_grid",
    "germ",
    "germ_from_dict",
    "germ_to_dict",
    "intersection_multiplicity",
    "lift_branch",
    "lipschitz_normal_form",
    "load_germ",
    "pair_obstruction",
    "parse_germ",
    "radial_holder_map",
    "sample_branch_arc",
    "witness_arcs",
    "zeta",
]
