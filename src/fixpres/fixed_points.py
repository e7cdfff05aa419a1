"""Fixed-point subspaces of square matrices.

The fixed-point space of A is the kernel of A - I. Its dimension is the
geometric multiplicity of eigenvalue 1 and is computed exactly, from the
echelon rows of A - I that _fixed_rows gives by one forward pass of
linalg._echelon: dim_fixed, fixed_space and the probe checks of the
preserver module all read them.
"""

from __future__ import annotations

from typing import Sequence

from .linalg import Matrix, NotSquare, Subspace, _Rows, _echelon, _kernel


def _fixed_rows(re: Sequence[Sequence[int]], im: Sequence[Sequence[int]], e: int) -> _Rows:
    """Nonzero echelon rows of M - I, for the square M = (re + i*im) / e
    given by Gaussian-integer rows over any scale e; their kernel is F(M).

    M - I is scaled by e, so only its diagonal entries move; one forward
    pass of _echelon gives the rows.
    """
    shifted = [list(row) for row in re]
    for k, row in enumerate(shifted):
        row[k] -= e
    x_re, x_im, pivots = _echelon(shifted, im, len(re))
    r = len(pivots)
    return x_re[:r], x_im[:r]


def _square_rows(a: Matrix) -> _Rows:
    """_fixed_rows of the rows of a, which must be square."""
    if not a.is_square:
        raise NotSquare(f"{a.rows}x{a.cols}")
    return _fixed_rows(a.re, a.im, a.d)


def fixed_space(a: Matrix) -> Subspace:
    """All vectors v with a @ v = v, as a canonical subspace."""
    return _kernel(*_square_rows(a), a.rows)


def dim_fixed(a: Matrix) -> int:
    """Dimension of the fixed-point space: n - rank(A - I)."""
    return a.rows - len(_square_rows(a)[0])
