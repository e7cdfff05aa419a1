"""Fixed-point subspaces of square matrices.

The fixed-point space of A is the kernel of A - I. Its dimension is the
geometric multiplicity of eigenvalue 1 and is computed exactly.
"""

from __future__ import annotations

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


def fixed_space(a: Matrix) -> Subspace:
    """All vectors v with a @ v = v, as a canonical subspace."""
    return kernel_basis(_minus_identity(a))


def dim_fixed(a: Matrix) -> int:
    """Dimension of the fixed-point space: n - rank(A - I)."""
    return a.rows - rank(_minus_identity(a))
