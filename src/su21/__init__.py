"""Exact computation of weight denominators for arithmetic subgroups of
SU(2,1) over the Eisenstein integers.

The package namespace holds the documented API; everything else is imported
from the module that defines it, e.g. ``from su21.fpgroup import Word``."""

from .matgroup import GroupMatrix, SubgroupSpec, generators_upsilon
from .cocycle import sigma
from .fpgroup import IndexOverflowError, OracleInconsistencyError
from .weightdenom import (
    DenominatorReport,
    InfiniteOrderError,
    multiplier_system_exists,
    survey_index3,
    weight_denominator_of,
)
from .gendecomp import decompose

__version__ = "0.1.0"

__all__ = [
    "DenominatorReport",
    "GroupMatrix",
    "IndexOverflowError",
    "InfiniteOrderError",
    "OracleInconsistencyError",
    "SubgroupSpec",
    "decompose",
    "generators_upsilon",
    "multiplier_system_exists",
    "sigma",
    "survey_index3",
    "weight_denominator_of",
    "__version__",
]
