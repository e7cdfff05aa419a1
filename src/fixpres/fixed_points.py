"""Fixed-point subspaces of square matrices.

The fixed-point space of A is the kernel of A - I. Its dimension is the
geometric multiplicity of eigenvalue 1 and is computed exactly. Both
functions first try to prove A - I invertible mod a prime
(linalg._regular_rows_mod_p, the rule stated in linalg), which settles
F(A) = {0}; every A it cannot prove takes the exact pass of A - I, A's
rows with the diagonal shifted (_shifted): dim_fixed one forward pass
(linalg._echelon), and fixed_space one Gauss-Jordan pass
(linalg._kernel). The probe checks of the preserver module call these
two functions.
"""

from __future__ import annotations

from .linalg import Matrix, NotSquare, Subspace, _echelon, _kernel, _regular_rows_mod_p


def _regular(a: Matrix) -> bool:
    """True when A - I is proved invertible mod a prime. Raises NotSquare."""
    if not a.is_square:
        raise NotSquare(f"{a.rows}x{a.cols}")
    return _regular_rows_mod_p(a.re, a.im, a.d)


def _shifted(a: Matrix) -> list[list[int]]:
    """The real parts of the rows of A - I scaled by a.d, for the square
    A = (re + i*im) / d: only the diagonal entries move."""
    shifted = [list(row) for row in a.re]
    for k, row in enumerate(shifted):
        row[k] -= a.d
    return shifted


def fixed_space(a: Matrix) -> Subspace:
    """All vectors v with a @ v = v, as a canonical subspace."""
    if _regular(a):
        return Subspace.zero(a.rows)
    return _kernel(_shifted(a), a.im, a.rows)


def dim_fixed(a: Matrix) -> int:
    """Dimension of the fixed-point space: n - rank(A - I)."""
    if _regular(a):
        return 0
    return a.rows - len(_echelon(_shifted(a), a.im, a.rows)[2])
