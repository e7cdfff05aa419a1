"""Linear maps on n x n matrices, represented as n^2 x n^2 matrices.

The vectorization convention is fixed package-wide to column stacking:
entry (i, j) of an n x n matrix lands at vec index j*n + i. Under that
convention a map A -> S @ A @ T has matrix T.T kron S, and the realign
permutation below sends exactly those maps to rank-one matrices, which
is what drives structure recovery. This module is the only home of that
layout; each reshuffle below is a gather over rows or flat entries.

A public call that reads L (is_bijective, the checks, classify, the
verdicts) scales it once, over one common scale, to an IntegerL.

Supported sizes are 1 <= n <= 16. is_bijective decides full rank by an
elimination modulo a prime on packed rows; the exact rank over Q(i),
which the minors of a similarity's Kronecker product make slow, runs
only when that elimination finds the matrix singular. The README gives
timings.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import mul
from typing import Iterable, Iterator, Sequence

from .linalg import (
    Matrix,
    SingularMatrix,
    SizeMismatch,
    _P,
    _Scaled,
    _bareiss,
    _common_integer_rows,
    _divided_row,
    _fields,
    _full_rank_mod_p,
    _integer_rows_matrix,
    _packed,
    _primitive,
    _residues,
    inverse,
    kron,
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
        """The image of a, by IntegerL.image."""
        if a.rows != self.n or a.cols != self.n:
            raise SizeMismatch(f"expected {self.n}x{self.n} input, got {a.rows}x{a.cols}")
        return _integer_rows_matrix(*IntegerL.of(self).image(*_common_integer_rows(a)))


@dataclass(slots=True)
class IntegerL:
    """The matrix L of a map as Gaussian integers over one common scale d,
    L = (re + i*im) / d. Its residues mod _P, and its columns packed from
    them (see linalg._packed), are made when first asked for. It lives
    for one public call and is never stored on the SuperOp."""

    n: int
    re: list[list[int]]
    im: list[list[int]]
    d: int
    mod_p: list[list[int]] | None = None
    mod_p_columns: list[int] | None = None

    @classmethod
    def of(cls, phi: SuperOp) -> IntegerL:
        return cls(phi.n, *_common_integer_rows(phi.matrix))

    def residues(self) -> list[list[int]]:
        if self.mod_p is None:
            self.mod_p = _residues(self.re, self.im)
        return self.mod_p

    def image(self, a_re: list[list[int]], a_im: list[list[int]], e: int) -> _Scaled:
        """The image of the n x n matrix (a_re + i*a_im) / e, as
        Gaussian-integer rows over the scale d * e.

        It gathers the columns of L where vec(A) is nonzero, so each entry
        is an int dot product over the nonzero entries of A alone.
        """
        n = self.n
        digits = range(n)
        # vec(A)[j*n + i] = A[i][j]
        nonzero = [(j * n + i, x, y) for i, (x_row, y_row) in enumerate(zip(a_re, a_im))
                   for j, (x, y) in enumerate(zip(x_row, y_row)) if x or y]
        b_re, b_im = [], []
        for l_re, l_im in zip(self.re, self.im):
            acc_r = acc_i = 0
            for t, x, y in nonzero:
                p, q = l_re[t], l_im[t]
                acc_r += p * x - q * y
                acc_i += p * y + q * x
            b_re.append(acc_r)
            b_im.append(acc_i)
        return [b_re[i::n] for i in digits], [b_im[i::n] for i in digits], self.d * e

    def image_mod_p(self, a: list[list[int]], e: int) -> tuple[list[list[int]], int]:
        """image(a_re, a_im, e) mod _P, from the residues a of (a_re, a_im):
        the residues of the image rows and their scale d * e. vec(image) is
        the sum of L's packed columns times the nonzero entries of vec(a),
        so each of its N fields is below N * _P**2 < 2**64."""
        n = self.n
        digits = range(n)
        if self.mod_p_columns is None:
            self.mod_p_columns = [_packed(column) for column in zip(*self.residues())]
        u = [a[i][j] for j in digits for i in digits]
        image = sum(map(mul, compress(u, u), compress(self.mod_p_columns, u)))
        b = [x % _P for x in _fields(image, n * n)]
        return [b[i::n] for i in digits], self.d * e


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


def _realigned(rows: Sequence[Sequence], n: int, transpose_first: bool = False) -> Iterator[list]:
    """The rows of realign(L), or of realign(precompose_transpose(L, n))
    with transpose_first, one at a time, for L given by its rows: row
    g*n + a is L[b*n + a][d*n + g] (L[b*n + a][g*n + d]) over b, then d."""
    digits = range(n)
    for g in digits:
        cols = [g * n + d if transpose_first else d * n + g for d in digits]
        for a in digits:
            yield [rows[r][c] for r in range(a, n * n, n) for c in cols]


def realign(phi: SuperOp) -> Matrix:
    """Index shuffle under which maps A -> S @ A @ T become rank one.

    With L the superoperator matrix, the result M satisfies
    M[g*n + a, b*n + d] = L[b*n + a, d*n + g] for all 0-based digits
    a, b, g, d < n. When L = T.T kron S this gives exactly
    M = vec(S) @ vec(T).T.
    """
    side = phi.n * phi.n
    rows = _realigned(phi.matrix.to_rows(), phi.n)
    return Matrix(side, side, tuple(x for row in rows for x in row))


def rank_one_factor(rows: Iterable[tuple[list[int], list[int]]], d: int) -> tuple[Matrix, Matrix]:
    """Columns (u, v) with m = u @ v.T, for rank-one m.

    m = (re + i*im) / d comes as rows (re, im) of Gaussian integers read
    one at a time: classify gathers them from its IntegerL, L scaled once
    per call over one common scale d. u is normalized so its first
    nonzero entry is 1, which pins the gauge and makes recovery deterministic.

    No elimination: with the first nonzero entry m[i0, j0] as anchor, m
    has rank one exactly when every 2x2 minor through the anchor
    vanishes, m[i, j] * m[i0, j0] == m[i, j0] * m[i0, j]. Rows above i0
    are zero and row i0 satisfies this trivially, so only the rows below
    are checked, stopping at the first nonzero minor; no row after it is
    read. The minors are integer cross-multiplications.
    """
    rows = iter(rows)
    for i0, (a_re, a_im) in enumerate(rows):
        j0 = next((j for j, (x, y) in enumerate(zip(a_re, a_im)) if x or y), None)
        if j0 is not None:
            break
    else:
        raise NotRankOne("the zero matrix has rank 0")
    p, q = a_re[j0], a_im[j0]
    left_re, left_im = [0] * i0 + [p], [0] * i0 + [q]
    for i, (x_re, x_im) in enumerate(rows, start=i0 + 1):
        l_re, l_im = x_re[j0], x_im[j0]
        for j, (xr, xi, yr, yi) in enumerate(zip(x_re, x_im, a_re, a_im)):
            # x * anchor == left * y, as (re, im) pairs
            if (xr * p - xi * q != l_re * yr - l_im * yi
                    or xr * q + xi * p != l_re * yi + l_im * yr):
                raise NotRankOne(
                    f"the minor at rows {i0}, {i} and columns {j0}, {j} is nonzero"
                )
        left_re.append(l_re)
        left_im.append(l_im)
    u = Matrix(len(left_re), 1, tuple(_divided_row(left_re, left_im, p, q)))
    v = Matrix(len(a_re), 1, tuple(_divided_row(a_re, a_im, d, 0)))
    return u, v


def is_bijective(phi: SuperOp, *, scaled: IntegerL | None = None) -> bool:
    """True exactly when the n^2 x n^2 matrix has full rank.

    Both tests read L scaled once per call over one common scale (its
    IntegerL, built here unless passed in as scaled). Full rank modulo a
    prime proves full rank, so the elimination of the residues nearly
    always decides; when it finds the matrix singular, a Bareiss forward
    pass over a copy of the rows, each divided by its content, decides.
    """
    l = scaled or IntegerL.of(phi)
    side = l.n * l.n
    return _full_rank_mod_p(l.residues()) or len(
        _bareiss(*_primitive(l.re, l.im), side, reduce=False)
    ) == side
