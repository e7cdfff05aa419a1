"""Linear maps on n x n matrices, represented as n^2 x n^2 matrices.

The vectorization convention is fixed package-wide to column stacking:
entry (i, j) of an n x n matrix lands at vec index j*n + i. Under that
convention a map A -> S @ A @ T has matrix T.T kron S, and the realign
permutation below sends exactly those maps to rank-one matrices, which
is what drives structure recovery. This module is the only home of that
layout; each reshuffle below is a gather over rows or flat entries.

A SuperOp holds L as canonical Gaussian-integer rows: every builder
makes them directly, and SuperOp(n, matrix) scales its matrix once. No
public call scales L again; the residues mod p that is_bijective and the
probe checks read are made once per call.

Supported sizes are 1 <= n <= 16. is_bijective decides full rank by an
elimination modulo a prime on packed rows; the exact rank over Q(i),
which the minors of a similarity's Kronecker product make slow, runs
only when that elimination finds the matrix singular. The README gives
timings.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress
from math import gcd
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
    _kron_rows,
    _packed,
    _primitive,
    _residues,
    inverse,
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


@dataclass(frozen=True, slots=True, init=False)
class SuperOp:
    """A linear map on n x n matrices, stored as its n^2 x n^2 matrix L.

    L = (re + i*im) / d in canonical Gaussian-integer rows: d is the lcm
    of the reduced denominators of L's entries, so gcd(d, every entry) = 1
    and equal maps have equal fields (and equal hashes).
    """

    n: int
    re: tuple[tuple[int, ...], ...]
    im: tuple[tuple[int, ...], ...]
    d: int

    def __init__(self, n: int, matrix: Matrix):
        """The map whose n^2 x n^2 matrix is matrix, scaled once."""
        _check_side(n)
        side = n * n
        if matrix.rows != side or matrix.cols != side:
            raise SizeMismatch(
                f"superoperator for n={n} needs a {side}x{side} matrix, "
                f"got {matrix.rows}x{matrix.cols}"
            )
        _set_rows(self, n, *_common_integer_rows(matrix))

    @classmethod
    def _of_rows(
        cls, n: int, re: Sequence[Sequence[int]], im: Sequence[Sequence[int]], d: int
    ) -> SuperOp:
        """The map with L = (re + i*im) / d, for n^2 rows of n^2 Gaussian
        integers over any scale d > 0: one gcd over d and every entry brings
        them to canonical form."""
        g = gcd(d, *chain.from_iterable(re), *chain.from_iterable(im))
        if g > 1:
            re = [[x // g for x in row] for row in re]
            im = [[y // g for y in row] for row in im]
        phi = object.__new__(cls)
        _set_rows(phi, n, re, im, d // g)
        return phi

    @property
    def matrix(self) -> Matrix:
        """L as a Matrix, built on each request and not kept."""
        return _integer_rows_matrix(self.re, self.im, self.d)

    def apply(self, a: Matrix) -> Matrix:
        """The image of a, by _image on a scaled once."""
        if a.rows != self.n or a.cols != self.n:
            raise SizeMismatch(f"expected {self.n}x{self.n} input, got {a.rows}x{a.cols}")
        return _integer_rows_matrix(*_image(self, *_common_integer_rows(a)))


def _set_rows(
    phi: SuperOp, n: int, re: Sequence[Sequence[int]], im: Sequence[Sequence[int]], d: int
) -> None:
    """Store n and the canonical rows on the frozen phi, as tuples."""
    object.__setattr__(phi, "n", n)
    object.__setattr__(phi, "re", tuple(map(tuple, re)))
    object.__setattr__(phi, "im", tuple(map(tuple, im)))
    object.__setattr__(phi, "d", d)


def _image(
    phi: SuperOp, a_re: Sequence[Sequence[int]], a_im: Sequence[Sequence[int]], e: int
) -> _Scaled:
    """The image under phi of the n x n matrix (a_re + i*a_im) / e, as
    Gaussian-integer rows over the scale d * e.

    It gathers the columns of L where vec(A) is nonzero, so each entry
    is an int dot product over the nonzero entries of A alone.
    """
    n = phi.n
    digits = range(n)
    # vec(A)[j*n + i] = A[i][j]
    nonzero = [(j * n + i, x, y) for i, (x_row, y_row) in enumerate(zip(a_re, a_im))
               for j, (x, y) in enumerate(zip(x_row, y_row)) if x or y]
    b_re, b_im = [], []
    for l_re, l_im in zip(phi.re, phi.im):
        acc_r = acc_i = 0
        for t, x, y in nonzero:
            p, q = l_re[t], l_im[t]
            acc_r += p * x - q * y
            acc_i += p * y + q * x
        b_re.append(acc_r)
        b_im.append(acc_i)
    return [b_re[i::n] for i in digits], [b_im[i::n] for i in digits], phi.d * e


def _packed_columns(residues: list[list[int]]) -> list[int]:
    """The columns of L's residue rows, each packed (see linalg._packed)."""
    return [_packed(column) for column in zip(*residues)]


def _image_mod_p(columns: list[int], a: list[list[int]]) -> list[list[int]]:
    """The residues mod _P of the image rows _image gives, from the packed
    residue columns of L and the residues a of the n x n rows of A; the
    scale is _image's, d * e.

    vec(image) is the sum of L's packed columns times the nonzero entries
    of vec(a), so each of its N fields is below N * _P**2 < 2**64.
    """
    n = len(a)
    digits = range(n)
    u = [a[i][j] for j in digits for i in digits]
    image = sum(map(mul, compress(u, u), compress(columns, u)))
    b = [x % _P for x in _fields(image, n * n)]
    return [b[i::n] for i in digits]


def identity_superop(n: int) -> SuperOp:
    _check_side(n)
    side = n * n
    zeros = [0] * side
    unit_rows = [zeros[:r] + [1] + zeros[r + 1 :] for r in range(side)]
    return SuperOp._of_rows(n, unit_rows, [zeros] * side, 1)


def transpose_superop(n: int) -> SuperOp:
    """The map A -> A.T, whose matrix is the commutation matrix."""
    return _precomposed_transpose(identity_superop(n))


def similarity_superop(s: Matrix, scale) -> SuperOp:
    """The map A -> scale * S @ A @ inv(S); raises SingularMatrix otherwise.

    scale is an int, Fraction or GaussianRational; other types raise TypeError.
    L = scale * inv(S).T kron S is the integer Kronecker product of the
    rows of scale * inv(S).T and of S, each scaled once.
    """
    if not s.is_square:
        raise SingularMatrix(f"S must be square, got {s.rows}x{s.cols}")
    _check_side(s.rows)
    return SuperOp._of_rows(s.rows, *_kron_rows(scale * inverse(s).transpose(), s))


def transpose_similarity_superop(s: Matrix, scale) -> SuperOp:
    """The map A -> scale * S @ A.T @ inv(S)."""
    return _precomposed_transpose(similarity_superop(s, scale))


def _transpose_partner(n: int) -> list[int]:
    """K's permutation: column c of L @ K is column partner[c] of L."""
    return [(j % n) * n + j // n for j in range(n * n)]


def _precomposed_transpose(phi: SuperOp) -> SuperOp:
    """The map A -> phi(A.T): L @ K as a column gather over the rows of L,
    which keeps them canonical."""
    partner = _transpose_partner(phi.n)
    return SuperOp._of_rows(
        phi.n,
        [[row[p] for p in partner] for row in phi.re],
        [[row[p] for p in partner] for row in phi.im],
        phi.d,
    )


def precompose_transpose(l: Matrix, n: int) -> Matrix:
    """l @ K for the permutation K with K @ vec(A) = vec(A.T), as a column gather."""
    side = n * n
    if l.rows != side or l.cols != side:
        raise SizeMismatch(f"expected {side}x{side}, got {l.rows}x{l.cols}")
    partner = _transpose_partner(n)
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
    return _integer_rows_matrix(
        list(_realigned(phi.re, phi.n)), list(_realigned(phi.im, phi.n)), phi.d
    )


def rank_one_factor(rows: Iterable[tuple[list[int], list[int]]], d: int) -> tuple[Matrix, Matrix]:
    """Columns (u, v) with m = u @ v.T, for rank-one m.

    m = (re + i*im) / d comes as rows (re, im) of Gaussian integers read
    one at a time: classify gathers them from the canonical rows of L,
    over its scale d. u is normalized so its first
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


def is_bijective(phi: SuperOp) -> bool:
    """True exactly when the n^2 x n^2 matrix has full rank."""
    return _is_bijective(phi, _residues(phi.re, phi.im))


def _is_bijective(phi: SuperOp, residues: list[list[int]]) -> bool:
    """is_bijective from the residue rows of L, made by the caller.

    Full rank modulo a prime proves full rank, so the elimination of the
    residues nearly always decides; when it finds the matrix singular, a
    Bareiss forward pass over a copy of the rows of L, each divided by its
    content, decides.
    """
    side = phi.n * phi.n
    return _full_rank_mod_p(residues) or len(
        _bareiss(*_primitive(phi.re, phi.im), side, reduce=False)
    ) == side
