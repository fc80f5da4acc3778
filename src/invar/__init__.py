"""Exact invariant tables for subspace arrangements and projective toric 3-folds.

The package computes two families of integer tables attached to an affine
variety: Lyubeznik tables (socle dimensions of iterated local cohomology) and
Cech-de Rham tables (de Rham cohomology of local cohomology), for the classes
where they are effectively computable, and mechanizes the spectral-sequence
bookkeeping that constrains such tables in general.
"""

from .arrangements import (
    AffineSubspace,
    Flat,
    IntersectionLattice,
    build_lattice,
    cdr_table,
    complement_betti,
    lyubeznik_dim2,
    moebius_betti_oracle,
)
from .errors import InputError, InputWarning, InvarError, SearchLimitError
from .fans import (
    Fan3,
    FanReport,
    PicardData,
    Wall,
    class_rank,
    is_projective,
    picard_data,
    picard_rank,
    toric_lyubeznik,
    validate_fan,
)
from .posets import (
    BettiVector,
    FinitePoset,
    SimplicialComplex,
    boundary_matrix,
    order_complex,
    reduced_betti,
)
from .qlinalg import QMatrix, format_rational, parse_rational
from .tables import (
    KIND_CDR,
    KIND_LYUBEZNIK,
    DeductionResult,
    InvariantTable,
    LinearRelation,
    OgusBounds,
    SpectralState,
    canonical_small_tables,
    check_cdr,
    check_convergence_lambda,
    deduce_lambda,
    differential_target,
    euler_sum,
    validate_cdr,
    validate_lambda,
)

__version__ = "0.1.0"
