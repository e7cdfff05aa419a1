"""Fixed-point subspaces of square matrices.

The fixed-point space of A is the kernel of A - I. Its dimension is the
geometric multiplicity of eigenvalue 1 and is computed exactly. A - I
is A's rows with the diagonal shifted (_shifted): fixed_space takes one
Gauss-Jordan pass of them (linalg._kernel), and dim_fixed and the probe
checks of the preserver module read the echelon rows that _fixed_rows
gives by one forward pass of linalg._echelon.
"""

from __future__ import annotations

from typing import Sequence

from .linalg import Matrix, NotSquare, Subspace, _Rows, _echelon, _kernel


def _shifted(re: Sequence[Sequence[int]], e: int) -> list[list[int]]:
    """The real parts of the rows of M - I scaled by e, for the square
    M = (re + i*im) / e: only the diagonal entries move."""
    shifted = [list(row) for row in re]
    for k, row in enumerate(shifted):
        row[k] -= e
    return shifted


def _fixed_rows(re: Sequence[Sequence[int]], im: Sequence[Sequence[int]], e: int) -> _Rows:
    """Nonzero echelon rows of M - I, for the square M = (re + i*im) / e
    given by Gaussian-integer rows over any scale e; their kernel is F(M)."""
    x_re, x_im, pivots = _echelon(_shifted(re, e), im, len(re))
    r = len(pivots)
    return x_re[:r], x_im[:r]


def _require_square(a: Matrix) -> None:
    if not a.is_square:
        raise NotSquare(f"{a.rows}x{a.cols}")


def fixed_space(a: Matrix) -> Subspace:
    """All vectors v with a @ v = v, as a canonical subspace."""
    _require_square(a)
    return _kernel(_shifted(a.re, a.d), a.im, a.rows)


def dim_fixed(a: Matrix) -> int:
    """Dimension of the fixed-point space: n - rank(A - I)."""
    _require_square(a)
    return a.rows - len(_fixed_rows(a.re, a.im, a.d)[0])
