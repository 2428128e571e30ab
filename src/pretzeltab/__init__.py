"""Exact tabulation of alternating oriented pretzel links by crossing number.

Closed-form counters (cyclic and dihedral Burnside counts over strip-size
tuples), an exhaustive strip-code oracle that verifies them, canonical class
representatives, and an exponential growth fit.
"""
from .combinat import binom, compositions, divisors, totient
from .counts import (
    CountRow,
    Type3Params,
    columns,
    count_by_type,
    count_row,
    count_rows,
    count_type1,
    count_type1_alt,
    count_type2,
    count_type3,
    type3_params,
)
from .fit import FitResult, fit_growth, fit_points
from .necklaces import bracelet_count, necklace_count, reflection_fixed_count
from .signed_bracelets import signed_bracelet_count, signed_reflection_fixed_count
from .tcodes import (
    DEFAULT_ENUM_CEILING,
    ResourceLimitError,
    TCode,
    canonicalize,
    composition_class_count,
    crossing_number,
    enumerate_classes,
    is_valid,
    signed_class_count,
    violation,
)

__version__ = "0.1.0"

__all__ = [
    "CountRow",
    "DEFAULT_ENUM_CEILING",
    "FitResult",
    "ResourceLimitError",
    "TCode",
    "Type3Params",
    "binom",
    "bracelet_count",
    "canonicalize",
    "columns",
    "composition_class_count",
    "compositions",
    "count_by_type",
    "count_row",
    "count_rows",
    "count_type1",
    "count_type1_alt",
    "count_type2",
    "count_type3",
    "crossing_number",
    "divisors",
    "enumerate_classes",
    "fit_growth",
    "fit_points",
    "is_valid",
    "necklace_count",
    "reflection_fixed_count",
    "signed_bracelet_count",
    "signed_class_count",
    "signed_reflection_fixed_count",
    "totient",
    "type3_params",
    "violation",
]
