"""Centrally symmetric neighborly polytopes from Hadamard matrices.

Builds, for every dimension d >= 4 admitting a Hadamard matrix, a centrally
symmetric d-polytope with 4d vertices in which every floor(sqrt(d)/2)
vertices (no two antipodal) span a face.  Everything is exact rational
arithmetic: the construction ships algebraic certificates for its defining
matrix conditions, and an independent exact-LP oracle re-verifies
neighborliness on the actual vertex coordinates.
"""

from .blocks import (
    BlockStream,
    SignedSupportRow,
    block_row_count,
    block_rows,
    orthogonality_check,
    total_row_count,
)
from .certificate import (
    CombinationCertificate,
    expand_combination,
    structural_identities,
    verify_conditions,
)
from .construction import (
    Construction,
    ConstructionParams,
    build,
    parameters,
)
from .hadamard import (
    HadamardMatrix,
    load_hadamard,
    row_profile,
    save_hadamard,
    sylvester,
    validate,
)
from .oracle import (
    ContainmentReport,
    DominanceReport,
    FaceReport,
    NeighborlinessReport,
    dominant_subset_sweep,
    is_dominant,
    is_face,
    membership_margin,
    projection_containment,
    verify_k_neighborly,
)
from .simplex import LpResult, lp_max

__version__ = "0.1.0"

__all__ = [
    "BlockStream",
    "CombinationCertificate",
    "Construction",
    "ConstructionParams",
    "ContainmentReport",
    "DominanceReport",
    "FaceReport",
    "HadamardMatrix",
    "LpResult",
    "NeighborlinessReport",
    "SignedSupportRow",
    "block_row_count",
    "block_rows",
    "build",
    "dominant_subset_sweep",
    "expand_combination",
    "is_dominant",
    "is_face",
    "load_hadamard",
    "lp_max",
    "membership_margin",
    "orthogonality_check",
    "parameters",
    "projection_containment",
    "row_profile",
    "save_hadamard",
    "structural_identities",
    "sylvester",
    "total_row_count",
    "validate",
    "verify_conditions",
    "verify_k_neighborly",
]
