"""Bounded conjugate-product words reaching involutions in classical groups."""

from .gf import FieldCtx, UnsupportedField, make_field, make_extension
from .matrix import GroupSpec, Mat, classify, parse_mat
from .canonical import CanonicalForm, class_transversal, companion, factor_charpoly
from .perm import Perm, a5_witness, alt_partner
from .constructor import (
    ConstructError,
    Unreachable,
    Witness,
    WitnessStep,
    brute_force_witness,
    construct_involution,
    find_partner,
    replay,
    witness_from_json,
    witness_to_json,
)
from .oracle import (
    GroupTooLarge,
    build_group,
    class_product_count,
    conjugacy_classes,
    d_inv,
    d_proj_inv,
    dist_to_set,
    group_order,
    orbital_diameter_report,
)
from .bounds import scan, scan_matches_statement

__all__ = [
    "FieldCtx",
    "UnsupportedField",
    "make_field",
    "make_extension",
    "GroupSpec",
    "Mat",
    "classify",
    "parse_mat",
    "CanonicalForm",
    "class_transversal",
    "companion",
    "factor_charpoly",
    "Perm",
    "a5_witness",
    "alt_partner",
    "ConstructError",
    "Unreachable",
    "Witness",
    "WitnessStep",
    "brute_force_witness",
    "construct_involution",
    "find_partner",
    "replay",
    "witness_from_json",
    "witness_to_json",
    "GroupTooLarge",
    "build_group",
    "class_product_count",
    "conjugacy_classes",
    "d_inv",
    "d_proj_inv",
    "dist_to_set",
    "group_order",
    "orbital_diameter_report",
    "scan",
    "scan_matches_statement",
]
