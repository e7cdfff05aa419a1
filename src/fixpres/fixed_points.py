"""Fixed-point subspaces of square matrices.

The fixed-point space of A is the kernel of A - I. Its dimension is the
geometric multiplicity of eigenvalue 1 and is computed exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Matrix, NotSquare, Subspace, kernel_basis, rank
from .scalars import ONE


def _minus_identity(a: Matrix) -> Matrix:
    """A - I for square A; only the n diagonal entries change."""
    if not a.is_square:
        raise NotSquare(f"{a.rows}x{a.cols}")
    entries = list(a.entries)
    for k in range(0, len(entries), a.rows + 1):
        entries[k] = entries[k] - ONE
    return Matrix(a.rows, a.cols, tuple(entries))


@dataclass(frozen=True, slots=True)
class FixedReport:
    """Fixed-space dimension, canonical basis, and the rank of A itself."""

    dim: int
    space: Subspace
    rank_of_a: int


def fixed_space(a: Matrix) -> Subspace:
    """All vectors v with a @ v = v, as a canonical subspace."""
    return kernel_basis(_minus_identity(a))


def dim_fixed(a: Matrix) -> int:
    """Dimension of the fixed-point space: n - rank(A - I)."""
    return a.rows - rank(_minus_identity(a))


def fixed_report(a: Matrix) -> FixedReport:
    """Fixed-space summary from a single elimination of A - I."""
    space = fixed_space(a)
    return FixedReport(dim=space.dim, space=space, rank_of_a=rank(a))
