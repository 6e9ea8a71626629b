"""Exact equivariant genus computations for torus manifolds.

The package computes equivariant (and plain) Hirzebruch-type genera of
stably complex torus manifolds from their isolated-fixed-point data by
localization over formal group laws, with exact rational arithmetic
throughout, and derives that data combinatorially for omnioriented
quasitoric manifolds.
"""

from toricgenera.algebra import (
    Generator,
    LocalizedSum,
    MultiSeries,
    NormalizeError,
    NotDivisibleError,
    Poly,
    QQ,
    canonical_linear_form,
    make_ring,
)
from toricgenera.fgl import (
    CATALOG_NAMES,
    BsfglShapeError,
    GenusSpec,
    catalog,
    conjugate_orientation,
    elliptic_fgl_check,
    fgl_from_exponential,
    genus_from_chern_numbers,
    krichever_exponential,
    logarithm_from_fgl,
    m_series,
    projective_space_value,
    verify_bsfgl_shape,
    weight_series,
)
from toricgenera.localize import (
    CfSeries,
    ConnerFloydViolation,
    FunctionalEquationError,
    cf_series,
    circle_genus_value,
    dataset,
    functional_equation_check,
    genus_value,
    localized_sum,
    p_omega,
    pairing_obstruction,
    phi,
    special_vanishing_check,
)
from toricgenera.quasitoric import (
    CharMatrix,
    FixedPoint,
    FixedPointData,
    InvalidPairError,
    Polytope,
    QuasitoricPair,
    generic_direction,
    product_pair,
    refine,
    restrict_to_subcircle,
    signs_and_weights,
    simplex_pair,
    special_check,
    square_pair,
    validate_pair,
)

__all__ = [
    "CATALOG_NAMES", "BsfglShapeError", "CfSeries", "CharMatrix",
    "ConnerFloydViolation", "FixedPoint", "FixedPointData",
    "FunctionalEquationError", "Generator", "GenusSpec", "InvalidPairError",
    "LocalizedSum", "MultiSeries", "NormalizeError", "NotDivisibleError",
    "Poly", "Polytope", "QQ", "QuasitoricPair", "canonical_linear_form",
    "catalog", "cf_series", "circle_genus_value", "conjugate_orientation",
    "dataset", "elliptic_fgl_check", "fgl_from_exponential",
    "functional_equation_check", "generic_direction",
    "genus_from_chern_numbers", "genus_value", "krichever_exponential",
    "localized_sum", "logarithm_from_fgl", "m_series", "make_ring",
    "p_omega", "pairing_obstruction", "phi", "product_pair",
    "projective_space_value", "refine", "restrict_to_subcircle",
    "signs_and_weights", "simplex_pair", "special_check",
    "special_vanishing_check", "square_pair", "validate_pair",
    "verify_bsfgl_shape", "weight_series",
]
