"""Linear maps on n x n matrices, represented as n^2 x n^2 matrices.

The vectorization convention is fixed package-wide to column stacking:
entry (i, j) of an n x n matrix lands at vec index j*n + i. Under that
convention a map A -> S @ A @ T has matrix T.T kron S, and the realign
permutation below sends exactly those maps to rank-one matrices, which
is what drives structure recovery. This module is the only home of that
layout; each reshuffle below is a gather over the flat row-major entries.

Supported sizes are 1 <= n <= 16. Exact elimination of the n^2 x n^2
matrix sets the cost at the large end. On a 2-vCPU Intel Xeon under
CPython 3.11, best of 3, is_bijective on a random map (Gaussian-rational
entries with numerators up to 9 and denominators up to 3) took 0.30 s at
n = 8 (N = 64), 1.4 s at n = 10, 7.9 s at n = 12 and 95 s at n = 16
(N = 256); classify took 1.7 s at n = 12 and 6.5 s at n = 16 on a
similarity, and under 0.04 s on a random map. A similarity's matrix is a
Kronecker product whose elimination minors grow fast: is_bijective on
one took 0.57 s at n = 6, 6.7 s at n = 8 and 102 s at n = 10 (single
runs) and did not finish in 6 minutes at n = 12. A claim-2 verdict
starts with is_bijective, so at n = 16 it takes minutes on a random map
and did not finish in 25 minutes on a similarity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .linalg import (
    Matrix,
    SingularMatrix,
    SizeMismatch,
    _integer_rows,
    _product,
    inverse,
    kron,
    rank,
)

MAX_SIDE = 16


class NotRankOne(ValueError):
    """rank_one_factor was given a matrix whose rank is not 1."""


def vec(a: Matrix) -> Matrix:
    """Column-stacking vectorization: entry (i, j) goes to index j*rows + i."""
    return Matrix(a.rows * a.cols, 1, a.transpose().entries)


def unvec(v: Matrix, rows: int, cols: int | None = None) -> Matrix:
    if cols is None:
        cols = rows
    if v.cols != 1 or v.rows != rows * cols:
        raise SizeMismatch(f"cannot unvec {v.rows}x{v.cols} into {rows}x{cols}")
    return Matrix(cols, rows, v.entries).transpose()


def _check_side(n: int) -> None:
    if not 1 <= n <= MAX_SIDE:
        raise ValueError(f"n must be in 1..{MAX_SIDE}, got {n}")


@dataclass(frozen=True, slots=True)
class SuperOp:
    """A linear map on n x n matrices, stored as its n^2 x n^2 matrix."""

    n: int
    matrix: Matrix

    def __post_init__(self):
        _check_side(self.n)
        side = self.n * self.n
        if self.matrix.rows != side or self.matrix.cols != side:
            raise SizeMismatch(
                f"superoperator for n={self.n} needs a {side}x{side} matrix, "
                f"got {self.matrix.rows}x{self.matrix.cols}"
            )

    def apply(self, a: Matrix) -> Matrix:
        return next(self.apply_each((a,)))

    def apply_each(self, mats: Iterable[Matrix]) -> Iterator[Matrix]:
        """Images of mats in order, computed lazily.

        The matrix is scaled to Gaussian integers once, on the first
        request, and reused for every input; an image is computed only
        when it is asked for, so a consumer that stops early pays for no
        later input.
        """
        scaled = _integer_rows(self.matrix)
        for a in mats:
            if a.rows != self.n or a.cols != self.n:
                raise SizeMismatch(f"expected {self.n}x{self.n} input, got {a.rows}x{a.cols}")
            yield unvec(_product(scaled, vec(a)), self.n)

    def apply_to_unit(self, i: int, j: int) -> Matrix:
        """Image of the matrix unit E_ij; just a column of the matrix."""
        return unvec(self.matrix.column_at(j * self.n + i), self.n)


def identity_superop(n: int) -> SuperOp:
    _check_side(n)
    return SuperOp(n, Matrix.identity(n * n))


def transpose_superop(n: int) -> SuperOp:
    """The map A -> A.T, whose matrix is the commutation matrix."""
    _check_side(n)
    return SuperOp(n, precompose_transpose(Matrix.identity(n * n), n))


def similarity_superop(s: Matrix, scale) -> SuperOp:
    """The map A -> scale * S @ A @ inv(S); raises SingularMatrix otherwise.

    scale is an int, Fraction or GaussianRational; other types raise TypeError.
    """
    if not s.is_square:
        raise SingularMatrix(f"S must be square, got {s.rows}x{s.cols}")
    _check_side(s.rows)
    return SuperOp(s.rows, scale * kron(inverse(s).transpose(), s))


def transpose_similarity_superop(s: Matrix, scale) -> SuperOp:
    """The map A -> scale * S @ A.T @ inv(S)."""
    return SuperOp(s.rows, precompose_transpose(similarity_superop(s, scale).matrix, s.rows))


def precompose_transpose(l: Matrix, n: int) -> Matrix:
    """l @ K for the permutation K with K @ vec(A) = vec(A.T), as a column gather."""
    side = n * n
    if l.rows != side or l.cols != side:
        raise SizeMismatch(f"expected {side}x{side}, got {l.rows}x{l.cols}")
    partner = [(j % n) * n + j // n for j in range(side)]
    starts = range(0, side * side, side)
    return Matrix(side, side, tuple(l.entries[r + p] for r in starts for p in partner))


def realign(phi: SuperOp) -> Matrix:
    """Index shuffle under which maps A -> S @ A @ T become rank one.

    With L the superoperator matrix, the result M satisfies
    M[g*n + a, b*n + d] = L[b*n + a, d*n + g] for all 0-based digits
    a, b, g, d < n. When L = T.T kron S this gives exactly
    M = vec(S) @ vec(T).T.
    """
    n = phi.n
    side = n * n
    l = phi.matrix.entries
    digits = range(n)
    return Matrix(side, side, tuple(
        l[(b * n + a) * side + d * n + g]
        for g in digits for a in digits for b in digits for d in digits
    ))


def rank_one_factor(m: Matrix) -> tuple[Matrix, Matrix]:
    """Columns (u, v) with m = u @ v.T, for rank-one m.

    Normalized so the first nonzero entry of u is 1, which pins the
    scalar gauge and makes recovery deterministic.

    No elimination: with the first nonzero entry m[i0, j0] as anchor, m
    has rank one exactly when every 2x2 minor through the anchor
    vanishes, m[i, j] * m[i0, j0] == m[i, j0] * m[i0, j]. Rows above i0
    are zero and row i0 satisfies this trivially, so only the rows below
    are checked, stopping at the first nonzero minor.
    """
    entries, cols = m.entries, m.cols
    lead = next((idx for idx, val in enumerate(entries) if val), None)
    if lead is None:
        raise NotRankOne("the zero matrix has rank 0")
    i0, j0 = divmod(lead, cols)
    anchor = entries[lead]
    anchor_row = entries[i0 * cols : (i0 + 1) * cols]
    for i in range(i0 + 1, m.rows):
        row = entries[i * cols : (i + 1) * cols]
        left = row[j0]
        for j, (x, y) in enumerate(zip(row, anchor_row)):
            if x * anchor != left * y:
                raise NotRankOne(
                    f"the minor at rows {i0}, {i} and columns {j0}, {j} is nonzero"
                )
    u = Matrix(m.rows, 1, tuple(entries[i * cols + j0] / anchor for i in range(m.rows)))
    v = Matrix(cols, 1, anchor_row)
    return u, v


def is_bijective(phi: SuperOp) -> bool:
    """True exactly when the n^2 x n^2 matrix has full rank."""
    return rank(phi.matrix) == phi.n * phi.n
