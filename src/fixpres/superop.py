"""Linear maps on n x n matrices, represented as n^2 x n^2 matrices.

The vectorization convention is fixed package-wide to column stacking:
entry (i, j) of an n x n matrix lands at vec index j*n + i. Under that
convention a map A -> S @ A @ T has matrix T.T kron S, and the realign
permutation below sends exactly those maps to rank-one matrices, which
is what drives structure recovery. This module is the only home of that
layout: _vec flattens A for vec and apply, _vec_mod_p reduces the same
column-major order, and each reshuffle below is a gather over rows or
flat entries.

A SuperOp holds L as a Matrix, so in canonical Gaussian-integer rows:
every builder makes them with the integer Matrix operations (kron,
precompose_transpose), and no call converts L to another form.
SuperOp.apply is the one exact image: L's rows times vec(A) through
linalg._products, the one exact product kernel, which Matrix @ also
calls. Every test mod p here is in the fast field linalg._FAST: a
12-bit prime p in 32-bit fields. L's residues mod p are made once per
SuperOp, on first use, and kept as packed columns of those fields
(SuperOp._residue_columns), about 4 bytes per entry; is_bijective and
the probe checks all read them. A probe's image mod p is a sum of those
columns, left unreduced (_image_mod_p), and _regular_mod_p and
_pair_regular_mod_p are the mod-p tests of M - I that the probe checks
run. A probe they do not settle goes to fixed_points.dim_fixed or
fixed_space, which test mod the wide prime first.

Supported sizes are 1 <= n <= 16. is_bijective decides full rank by an
elimination mod p on L's packed columns, then by linalg.rank, which
tests L's rows mod the wide prime; the exact rank over Q(i) (the forward
pass of linalg._echelon), which the minors of a similarity's Kronecker
product make slow, runs only when both find the matrix singular. The
README gives timings. No elimination over Q(i) runs here other than
through linalg: rank_one_factor reads u and v off the anchor row and
column with one division each.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from operator import mul
from typing import Iterable, Iterator, Sequence

from .linalg import (
    Matrix,
    SingularMatrix,
    SizeMismatch,
    _FAST,
    _divided,
    _fields,
    _full_rank_mod_p,
    _matrix,
    _over,
    _packed,
    _products,
    _residues,
    inverse,
    kron,
    rank,
)

MAX_SIDE = 16


class NotRankOne(ValueError):
    """rank_one_factor was given a matrix whose rank is not 1."""


def _vec(a: Matrix) -> tuple[list[int], list[int]]:
    """vec(A)'s real and imaginary Gaussian-integer parts over A's scale:
    A's columns, flattened, as vec(A)[j*rows + i] = A[i][j]."""
    return (
        [x for column in zip(*a.re) for x in column],
        [y for column in zip(*a.im) for y in column],
    )


def _vec_mod_p(a: Matrix) -> list[int]:
    """vec(A) mod p, A's residues in _FAST column after column, in one pass."""
    re, im = chain.from_iterable(zip(*a.re)), chain.from_iterable(zip(*a.im))
    return _residues([re], [im], _FAST)[0]


def vec(a: Matrix) -> Matrix:
    """Column-stacking vectorization: entry (i, j) goes to index j*rows + i."""
    re, im = _vec(a)
    return _matrix(1, [(x,) for x in re], [(y,) for y in im], a.d)


def unvec(v: Matrix, n: int) -> Matrix:
    """The n x n matrix whose vec is the column v: vec inverted."""
    if v.cols != 1 or v.rows != n * n:
        raise SizeMismatch(f"cannot unvec {v.rows}x{v.cols} into {n}x{n}")
    # vec(A)[j*n + i] = A[i][j], so row i of A is v[i::n]
    re, im, digits = [x for (x,) in v.re], [y for (y,) in v.im], range(n)
    return _matrix(n, [re[i::n] for i in digits], [im[i::n] for i in digits], v.d)


def _check_side(n: int) -> None:
    if not 1 <= n <= MAX_SIDE:
        raise ValueError(f"n must be in 1..{MAX_SIDE}, got {n}")


@dataclass(frozen=True)
class SuperOp:
    """A linear map on n x n matrices, stored as its n^2 x n^2 matrix L.

    L is a Matrix, held in canonical Gaussian-integer rows, so equal maps
    have equal fields (and equal hashes). Equality and hashing read n and
    L alone, never the cached residues.
    """

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
        """The image of a: linalg._products of L's rows with vec(A), the
        one exact product kernel, which skips the zero entries of vec(A);
        the n rows over the scale d * e, with d the scale of L and e that
        of A, are put on their canonical scale once.
        """
        n, l = self.n, self.matrix
        if a.rows != n or a.cols != n:
            raise SizeMismatch(f"expected {n}x{n} input, got {a.rows}x{a.cols}")
        b_re, b_im = _products(l.re, l.im, *_vec(a))
        digits = range(n)
        return _over([b_re[i::n] for i in digits], [b_im[i::n] for i in digits], l.d * a.d, n)

    @cached_property
    def _residue_columns(self) -> list[int]:
        """The columns of L mod p (see linalg._residues), each packed into
        one int of 32-bit fields of _FAST (see linalg._packed), made on
        first use. Callers read them and never change them."""
        residues = _residues(self.matrix.re, self.matrix.im, _FAST)
        return [_packed(column, _FAST) for column in zip(*residues)]


def _image_mod_p(columns: list[int], u: list[int]) -> int:
    """vec(phi(A)) mod p as packed fields of _FAST, from L's packed
    residue columns and u = vec(A) mod p: the sum of the columns times the
    nonzero entries of u. The fields are left unreduced, each below
    N * p**2."""
    return sum(map(mul, compress(u, u), compress(columns, u)))


def _shifted_columns(vec: int, n: int, e: int) -> list[int]:
    """The packed columns of e * (M - I) mod p, for vec the packed fields
    of vec(e * M) mod p in _FAST: column j of M is fields j*n to
    j*n + n - 1 of vec, and p - e % p is added to its field j, so fields
    stay unreduced and grow by at most p."""
    p, bits = _FAST.p, _FAST.bits
    width = bits * n
    mask = (1 << width) - 1
    shift = p - e % p
    return [((vec >> width * j) & mask) + (shift << bits * j) for j in range(n)]


def _regular_mod_p(vec: int, n: int, e: int) -> bool:
    """True when e * (M - I) has full rank mod p (so M - I is invertible),
    for vec as in _shifted_columns: a vec(A) mod p or an _image_mod_p,
    so the columns' fields stay below N * p**2 + p. With the n - 1
    additions of the elimination, (N + n - 1) * p**2 + p < 2**32 at
    n = 16: the bound that sets _FAST's prime."""
    return _full_rank_mod_p(_shifted_columns(vec, n, e), _FAST)


def _pair_regular_mod_p(vec: int, image: int, n: int, e: int, f: int) -> bool:
    """True when e * (A - I) and f * (M - I) both have full rank mod p (so
    A - I and M - I are invertible), for vec the packed fields of
    vec(e * A) mod p in _FAST, each below p, and image those of
    vec(f * M) mod p, unreduced: one elimination of their product X @ Y.

    Z[i] -> GF(p) is a ring homomorphism and GF(p) is a field, where det
    is multiplicative: det(X @ Y) = det X * det Y mod p, so X @ Y has
    full rank exactly when both factors have. X is _shifted_columns of
    vec, fields below 2 * p; Y is the image's fields reduced mod p with f
    subtracted on the diagonal, below p. Column j of X @ Y is the sum of
    X's columns times column j of Y, so its fields stay below
    2n * p**2."""
    p = _FAST.p
    xs = _shifted_columns(vec, n, e)
    side = n * n
    ys = [y % p for y in _fields(image, side, _FAST)]
    for k in range(0, side, n + 1):
        ys[k] = (ys[k] - f) % p
    columns = [sum(map(mul, ys[j : j + n], xs)) for j in range(0, side, n)]
    return _full_rank_mod_p(columns, _FAST)


def identity_superop(n: int) -> SuperOp:
    _check_side(n)
    return SuperOp(n, Matrix.identity(n * n))


def transpose_superop(n: int) -> SuperOp:
    """The map A -> A.T, whose matrix is the commutation matrix."""
    return SuperOp(n, precompose_transpose(identity_superop(n).matrix, n))


def similarity_superop(s: Matrix, scale) -> SuperOp:
    """The map A -> scale * S @ A @ inv(S); raises SingularMatrix otherwise.

    scale is an int, Fraction or GaussianRational; other types raise TypeError.
    L = scale * inv(S).T kron S.
    """
    if not s.is_square:
        raise SingularMatrix(f"S must be square, got {s.rows}x{s.cols}")
    _check_side(s.rows)
    return SuperOp(s.rows, kron(scale * inverse(s).transpose(), s))


def transpose_similarity_superop(s: Matrix, scale) -> SuperOp:
    """The map A -> scale * S @ A.T @ inv(S)."""
    phi = similarity_superop(s, scale)
    return SuperOp(phi.n, precompose_transpose(phi.matrix, phi.n))


def precompose_transpose(l: Matrix, n: int) -> Matrix:
    """l @ K for the permutation K with K @ vec(A) = vec(A.T): column c of
    l @ K is column (c % n)*n + c // n of l, a gather that keeps the rows
    canonical."""
    side = n * n
    if l.rows != side or l.cols != side:
        raise SizeMismatch(f"expected {side}x{side}, got {l.rows}x{l.cols}")
    partner = [(c % n) * n + c // n for c in range(side)]
    return _matrix(
        side,
        [[row[p] for p in partner] for row in l.re],
        [[row[p] for p in partner] for row in l.im],
        l.d,
    )


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
    n, l = phi.n, phi.matrix
    return _matrix(n * n, list(_realigned(l.re, n)), list(_realigned(l.im, n)), l.d)


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
    u = _divided([[x] for x in left_re], [[y] for y in left_im], p, q, 1)
    v = _over([[x] for x in a_re], [[y] for y in a_im], d, 1)
    return u, v


def is_bijective(phi: SuperOp) -> bool:
    """True exactly when the n^2 x n^2 matrix has full rank.

    Full rank modulo a prime proves full rank, so the elimination of L's
    cached residue columns mod _FAST's p (rank L = rank L.T, fields below
    p) nearly always decides. A full-rank L reads singular there about
    once in p draws; then linalg.rank decides, which tests L's rows mod
    the wide prime before it takes the exact forward pass, so only an L
    singular mod both primes takes that pass.
    """
    l = phi.matrix
    return _full_rank_mod_p(phi._residue_columns, _FAST) or rank(l) == l.rows
