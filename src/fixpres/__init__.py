"""Exact fixed-point subspaces and linear preserver verdicts.

Everything is computed over Gaussian rationals (complex numbers with
rational real and imaginary parts), held by a Matrix as canonical
Gaussian-integer rows over one scale, so ranks, kernels, and verdicts are
exact — no tolerances anywhere.

The package namespace holds the documented surface only (``__all__``);
everything else is imported from its own module, for instance
``fixpres.linalg.rank`` or ``fixpres.superop.vec``.
"""

from .scalars import GaussianRational, ParseError, format_scalar, parse_scalar
from .linalg import Matrix, NotSquare, SingularMatrix, SizeMismatch, Subspace
from .linalg import DependentPair, ZeroFactor, completion_idempotent, rank_one
from .fixed_points import dim_fixed, fixed_space
from .superop import (
    SuperOp,
    identity_superop,
    is_bijective,
    realign,
    similarity_superop,
    transpose_similarity_superop,
    transpose_superop,
)
from .sampling import derive_rng, random_invertible, random_matrix, random_rank_one_idempotent
from .preserver import (
    Classification,
    PreserverReport,
    Verdict,
    check_dim_preserving,
    check_set_preserving,
    classify,
    dim_preserver_verdict,
    set_preserver_verdict,
)

__version__ = "0.1.0"

__all__ = [
    # scalars and matrices
    "GaussianRational",
    "ParseError",
    "parse_scalar",
    "format_scalar",
    "Matrix",
    "Subspace",
    "NotSquare",
    "SingularMatrix",
    "SizeMismatch",
    # fixed points and the rank-one calculus
    "fixed_space",
    "dim_fixed",
    "rank_one",
    "completion_idempotent",
    "ZeroFactor",
    "DependentPair",
    # superoperators
    "SuperOp",
    "identity_superop",
    "similarity_superop",
    "transpose_similarity_superop",
    "transpose_superop",
    "realign",
    "is_bijective",
    # checks and verdicts
    "classify",
    "check_dim_preserving",
    "check_set_preserving",
    "set_preserver_verdict",
    "dim_preserver_verdict",
    "Classification",
    "Verdict",
    "PreserverReport",
    # seeded sampling
    "derive_rng",
    "random_matrix",
    "random_invertible",
    "random_rank_one_idempotent",
]
