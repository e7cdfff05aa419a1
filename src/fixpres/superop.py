"""Linear maps on n x n matrices, represented as n^2 x n^2 matrices.

The vectorization convention is fixed package-wide to column stacking:
entry (i, j) of an n x n matrix lands at vec index j*n + i. Under that
convention a map A -> S @ A @ T has matrix T.T kron S, and the realign
permutation below sends exactly those maps to rank-one matrices, which
is what drives structure recovery. This module is the only home of that
layout; each reshuffle below is a gather over the flat row-major entries.

Supported sizes are 1 <= n <= 16. is_bijective decides full rank by an
elimination modulo a prime on packed rows; the exact rank over Q(i),
which the minors of a similarity's Kronecker product make slow, runs
only when that elimination finds the matrix singular. The README gives
timings.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from operator import mul
from typing import Callable

from .linalg import (
    Matrix,
    SingularMatrix,
    SizeMismatch,
    _P,
    _Scaled,
    _full_rank_mod_p,
    _integer_rows,
    _integer_rows_matrix,
    _products,
    _residues,
    _sparse,
    inverse,
    kron,
    rank,
)
from .scalars import GaussianRational

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
        """The image of a: the exact image of _image_kernel(self) on a scaled
        to Gaussian integers."""
        if a.rows != self.n or a.cols != self.n:
            raise SizeMismatch(f"expected {self.n}x{self.n} input, got {a.rows}x{a.cols}")
        re, im, e = _common_integer_rows(a)
        image, _ = _image_kernel(self)
        return _integer_rows_matrix(*image(re, im, e))


# The residues mod _P of the rows of a matrix of Gaussian integers, and
# one scale per row.
_ScaledMod = tuple[list[list[int]], list[int]]


def _image_kernel(
    phi: SuperOp,
) -> tuple[
    Callable[[list[list[int]], list[list[int]], int], _Scaled],
    Callable[[list[list[int]], int], _ScaledMod],
]:
    """The maps that send an n x n matrix to its image, exactly and mod _P.

    L is scaled here, once: the n rows of L that feed row i of an image
    (vec indices j*n + i) are scaled to Gaussian integers with one common
    scale D_i. The first returned function takes an n x n matrix as
    Gaussian-integer rows re + i*im over a common scale e and returns the
    image as Gaussian-integer rows, row i over the scale D_i * e: each
    entry is a plain int dot product over the nonzero entries of a row of
    L. The second takes the residues of those rows (linalg._residues) and
    the same e, and returns the residues of the same integer image with
    the same scales: each entry is one dot product of residues, reduced
    once.
    """
    n = phi.n
    re, im, scales = _integer_rows(phi.matrix)
    block_scales = [lcm(*scales[i::n]) for i in range(n)]
    for r, s in enumerate(scales):
        f = block_scales[r % n] // s
        if f > 1:
            re[r] = [x * f for x in re[r]]
            im[r] = [x * f for x in im[r]]
    rows = _sparse(re, im)
    residues = _residues(re, im)
    digits = range(n)

    def image(a_re: list[list[int]], a_im: list[list[int]], e: int) -> _Scaled:
        # vec(A)[j*n + i] = A[i][j]
        u = [a_re[i][j] for j in digits for i in digits]
        v = [a_im[i][j] for j in digits for i in digits]
        b_re, b_im = _products(rows, u, v)
        return (
            [b_re[i::n] for i in digits],
            [b_im[i::n] for i in digits],
            [d * e for d in block_scales],
        )

    def image_mod_p(a: list[list[int]], e: int) -> _ScaledMod:
        u = [a[i][j] for j in digits for i in digits]
        b = [sum(map(mul, row, u)) % _P for row in residues]
        return [b[i::n] for i in digits], [d * e for d in block_scales]

    return image, image_mod_p


def _common_integer_rows(a: Matrix) -> tuple[list[list[int]], list[list[int]], int]:
    """a as Gaussian-integer rows (re, im) over one common scale e."""
    re, im, scales = _integer_rows(a)
    e = lcm(*scales)
    return (
        [[x * (e // s) for x in row] for row, s in zip(re, scales)],
        [[x * (e // s) for x in row] for row, s in zip(im, scales)],
        e,
    )


def _integer_row(row: tuple[GaussianRational, ...]) -> tuple[list[int], list[int]]:
    """row scaled by one constant to Gaussian integers, as (re, im)."""
    re, im, _ = _integer_rows(Matrix(1, len(row), row))
    return re[0], im[0]


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
    are checked, stopping at the first nonzero minor. Scaling a row by a
    nonzero constant does not change whether such a minor vanishes, so
    each row is scaled to Gaussian integers only when the scan reaches
    it, and the minors are integer cross-multiplications.
    """
    entries, cols = m.entries, m.cols
    lead = next((idx for idx, val in enumerate(entries) if val), None)
    if lead is None:
        raise NotRankOne("the zero matrix has rank 0")
    i0, j0 = divmod(lead, cols)
    anchor_row = entries[i0 * cols : (i0 + 1) * cols]
    a_re, a_im = _integer_row(anchor_row)
    p, q = a_re[j0], a_im[j0]
    for i in range(i0 + 1, m.rows):
        x_re, x_im = _integer_row(entries[i * cols : (i + 1) * cols])
        l_re, l_im = x_re[j0], x_im[j0]
        for j, (xr, xi, yr, yi) in enumerate(zip(x_re, x_im, a_re, a_im)):
            # x * anchor == left * y, as (re, im) pairs
            if (xr * p - xi * q != l_re * yr - l_im * yi
                    or xr * q + xi * p != l_re * yi + l_im * yr):
                raise NotRankOne(
                    f"the minor at rows {i0}, {i} and columns {j0}, {j} is nonzero"
                )
    anchor = entries[lead]
    u = Matrix(m.rows, 1, tuple(entries[i * cols + j0] / anchor for i in range(m.rows)))
    v = Matrix(cols, 1, anchor_row)
    return u, v


def is_bijective(phi: SuperOp) -> bool:
    """True exactly when the n^2 x n^2 matrix has full rank.

    Full rank modulo a prime proves full rank, so a bijective map is
    nearly always decided by the modular elimination alone. When that
    finds the matrix singular, the exact rank over Q(i) decides.
    """
    re, im, _ = _integer_rows(phi.matrix)
    return _full_rank_mod_p(_residues(re, im)) or rank(phi.matrix) == phi.n * phi.n
