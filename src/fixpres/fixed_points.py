"""Fixed-point subspaces of square matrices.

The fixed-point space of A is the kernel of A - I. Its dimension is the
geometric multiplicity of eigenvalue 1 and is computed exactly. Both
functions take the rows of A - I, A's rows with the diagonal shifted
(_shifted), once: dim_fixed is n less their rank by linalg's one rule
(_rank), and fixed_space is {0} when that rule's test mod a prime
(_regular_rows_mod_p) proves them invertible, and otherwise their kernel
from one Gauss-Jordan pass (linalg._kernel). The probe checks of the
preserver module call these two functions.
"""

from __future__ import annotations

from .linalg import Matrix, NotSquare, Subspace, _kernel, _rank, _regular_rows_mod_p


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
    shifted = _shifted(a)
    if _regular_rows_mod_p(shifted, a.im):
        return Subspace.zero(a.rows)
    return _kernel(shifted, a.im, a.rows)


def dim_fixed(a: Matrix) -> int:
    """Dimension of the fixed-point space: n - rank(A - I)."""
    return a.rows - _rank(_shifted(a), a.im, a.rows)
