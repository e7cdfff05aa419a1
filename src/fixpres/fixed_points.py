"""Fixed-point subspaces of square matrices.

The fixed-point space of A is the kernel of A - I. Its dimension is the
geometric multiplicity of eigenvalue 1 and is computed exactly. A - I
is A's rows with the diagonal shifted (_shifted): dim_fixed takes one
forward pass of them (linalg._echelon), and fixed_space one Gauss-Jordan
pass (linalg._kernel). The probe checks of the preserver module call
these two functions.
"""

from __future__ import annotations

from .linalg import Matrix, NotSquare, Subspace, _echelon, _kernel


def _shifted(a: Matrix) -> list[list[int]]:
    """The real parts of the rows of A - I scaled by a.d, for the square
    A = (re + i*im) / d: only the diagonal entries move. Raises NotSquare."""
    if not a.is_square:
        raise NotSquare(f"{a.rows}x{a.cols}")
    shifted = [list(row) for row in a.re]
    for k, row in enumerate(shifted):
        row[k] -= a.d
    return shifted


def fixed_space(a: Matrix) -> Subspace:
    """All vectors v with a @ v = v, as a canonical subspace."""
    return _kernel(_shifted(a), a.im, a.rows)


def dim_fixed(a: Matrix) -> int:
    """Dimension of the fixed-point space: n - rank(A - I)."""
    return a.rows - len(_echelon(_shifted(a), a.im, a.rows)[2])
