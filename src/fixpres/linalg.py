"""Exact dense linear algebra over Gaussian-rational scalars.

All values are immutable and every operation is pure. Rank and kernel
decisions are bit-exact: there is no tolerance anywhere in this module.

Subspaces are stored in a unique canonical form (the transpose of the
stored basis is in reduced row echelon form), so subspace equality is a
plain entrywise comparison.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .scalars import GaussianRational, ONE, ZERO


class NotSquare(ValueError):
    """A square matrix was required."""


class SingularMatrix(ValueError):
    """Inversion was requested for a matrix without full rank."""


class SizeMismatch(ValueError):
    """Operand shapes are incompatible."""


class InexactDivision(ArithmeticError):
    """A fraction-free elimination step left a remainder.

    Exact division is an invariant of the algorithm, never a property of
    the input, so this is an internal error and deliberately not a
    ValueError.
    """


def _as_scalar(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(Fraction(value))
    raise TypeError(f"cannot use {value!r} as a matrix entry")


@dataclass(frozen=True, slots=True)
class Matrix:
    """Dense rows x cols matrix, entries stored row-major.

    Zero rows or columns are allowed; the empty basis of the zero
    subspace is an n x 0 matrix.
    """

    rows: int
    cols: int
    entries: tuple[GaussianRational, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        n_rows = len(rows)
        n_cols = len(rows[0]) if n_rows else 0
        flat = []
        for row in rows:
            if len(row) != n_cols:
                raise ValueError("ragged rows")
            flat.extend(_as_scalar(v) for v in row)
        return cls(n_rows, n_cols, tuple(flat))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, (ZERO,) * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, tuple(ONE if i == j else ZERO for i in range(n) for j in range(n)))

    @classmethod
    def unit(cls, n: int, i: int, j: int) -> "Matrix":
        """Matrix unit with a single 1 at (i, j)."""
        entries = [ZERO] * (n * n)
        entries[i * n + j] = ONE
        return cls(n, n, tuple(entries))

    @classmethod
    def column(cls, values: Sequence) -> "Matrix":
        vals = tuple(_as_scalar(v) for v in values)
        return cls(len(vals), 1, vals)

    def __getitem__(self, key: tuple[int, int]) -> GaussianRational:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return self.entries[i * self.cols + j]

    def to_rows(self) -> list[list[GaussianRational]]:
        c = self.cols
        return [list(self.entries[i * c : (i + 1) * c]) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def is_zero(self) -> bool:
        return not any(self.entries)

    def transpose(self) -> "Matrix":
        return Matrix(
            self.cols,
            self.rows,
            tuple(self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)),
        )

    def __add__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise SizeMismatch(f"{self.rows}x{self.cols} + {other.rows}x{other.cols}")
        return Matrix(self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise SizeMismatch(f"{self.rows}x{self.cols} - {other.rows}x{other.cols}")
        return Matrix(self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def __mul__(self, scalar) -> "Matrix":
        try:
            s = _as_scalar(scalar)
        except TypeError:
            return NotImplemented
        return Matrix(self.rows, self.cols, tuple(s * a for a in self.entries))

    __rmul__ = __mul__

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Exact product, computed over the Gaussian integers.

        self and the transpose of other are scaled to Gaussian integers
        over their common scales d and e. Entry (i, j) is then a plain int
        dot product, skipping zero left entries, divided once by d * e:
        one GaussianRational per output entry and no Fraction arithmetic
        in the inner loop.
        """
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise SizeMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        l_re, l_im, d = _common_integer_rows(self)
        r_re, r_im, e = _common_integer_rows(other.transpose())
        left = _sparse(l_re, l_im)
        columns = [_products(left, b_re, b_im) for b_re, b_im in zip(r_re, r_im)]
        de = d * e
        return Matrix(self.rows, other.cols, tuple(
            GaussianRational(Fraction(c_re[i], de), Fraction(c_im[i], de))
            if c_re[i] or c_im[i]
            else ZERO
            for i in range(self.rows)
            for c_re, c_im in columns
        ))

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise SizeMismatch(f"hstack of {self.rows} and {other.rows} rows")
        rows = []
        for i in range(self.rows):
            rows.append(
                self.entries[i * self.cols : (i + 1) * self.cols]
                + other.entries[i * other.cols : (i + 1) * other.cols]
            )
        return Matrix(self.rows, self.cols + other.cols, tuple(v for row in rows for v in row))

    def __str__(self) -> str:
        body = "; ".join(
            " ".join(str(v) for v in self.entries[i * self.cols : (i + 1) * self.cols])
            for i in range(self.rows)
        )
        return f"[{body}]"


# Real parts, imaginary parts and the common scale of a matrix of
# Gaussian rationals scaled to Gaussian integers.
_Scaled = tuple[list[list[int]], list[list[int]], int]


def _common_integer_rows(a: Matrix) -> _Scaled:
    """a as Gaussian-integer rows (re, im) over one common scale e, the
    lcm of its distinct denominators, in one pass over its entries.

    Scaling every row by the same nonzero constant changes neither the
    rank nor the RREF; eliminations divide each row by its content first
    (see _primitive), which undoes the extra factor a row picks up from
    the denominators of other rows.
    """
    c = a.cols
    re_q = [z.re.as_integer_ratio() for z in a.entries]
    im_q = [z.im.as_integer_ratio() for z in a.entries]
    e = lcm(*{b for _, b in re_q}, *{b for _, b in im_q})
    re, im = [x * (e // b) for x, b in re_q], [y * (e // b) for y, b in im_q]
    rows = range(a.rows)
    return [re[k * c : (k + 1) * c] for k in rows], [im[k * c : (k + 1) * c] for k in rows], e


def _canonical_integers(
    parts: Sequence[tuple[int, int, int, int]]
) -> tuple[list[int], list[int], int]:
    """The Gaussian rationals a/b + (c/e)i, given by their integer parts
    (a, b, c, e) with b, e > 0 and not necessarily reduced, as Gaussian
    integers (re, im) over their canonical scale d: the lcm of the reduced
    denominators, so gcd(d, every entry) = 1.

    No part is reduced on its own. The reduced denominators of the parts
    over one written denominator b have lcm b / gcd(b, their numerators),
    one gcd per distinct b that stops at 1, so no scale larger than d is
    built however the parts are written.
    """
    numerators: dict[int, list[int]] = {}
    for a, b, c, e in parts:
        numerators.setdefault(b, []).append(a)
        numerators.setdefault(e, []).append(c)
    d = lcm(*(b // gcd(b, *over_b) for b, over_b in numerators.items()))
    return [a * d // b for a, b, _, _ in parts], [c * d // e for _, _, c, e in parts], d


def _integer_rows_matrix(
    re: Sequence[Sequence[int]], im: Sequence[Sequence[int]], e: int
) -> Matrix:
    """The matrix (re + i*im) / e; the inverse of _common_integer_rows."""
    cols = len(re[0]) if re else 0
    return Matrix(len(re), cols, tuple(
        GaussianRational(Fraction(x, e), Fraction(y, e)) if x or y else ZERO
        for row_re, row_im in zip(re, im)
        for x, y in zip(row_re, row_im)
    ))


# The nonzero (column, real part, imaginary part) entries of each row of
# a matrix of Gaussian integers.
_SparseRows = list[list[tuple[int, int, int]]]


def _sparse(re: list[list[int]], im: list[list[int]]) -> _SparseRows:
    return [
        [(t, x, y) for t, (x, y) in enumerate(zip(a_re, a_im)) if x or y]
        for a_re, a_im in zip(re, im)
    ]


def _products(rows: _SparseRows, u: list[int], v: list[int]) -> tuple[list[int], list[int]]:
    """Real and imaginary parts of rows @ (u + i*v), all Gaussian integers."""
    out_re: list[int] = []
    out_im: list[int] = []
    for nonzero in rows:
        acc_r = acc_i = 0
        for t, x, y in nonzero:
            p, q = u[t], v[t]
            acc_r += x * p - y * q
            acc_i += x * q + y * p
        out_re.append(acc_r)
        out_im.append(acc_i)
    return out_re, out_im


# Real and imaginary parts of rows of Gaussian integers.
_Rows = tuple[list[list[int]], list[list[int]]]


def _primitive(re: Sequence[Sequence[int]], im: Sequence[Sequence[int]]) -> _Rows:
    """The rows re + i*im, each divided by its content (the gcd of its
    integers), as new lists; the row space does not change."""
    out_re, out_im = [], []
    for row_re, row_im in zip(re, im):
        g = gcd(*row_re, *row_im)
        out_re.append([x // g for x in row_re] if g > 1 else list(row_re))
        out_im.append([x // g for x in row_im] if g > 1 else list(row_im))
    return out_re, out_im


def _bareiss(
    re: list[list[int]], im: list[list[int]], n_cols: int, reduce: bool
) -> list[int]:
    """Fraction-free elimination over the Gaussian integers (Bareiss), in place.

    re and im are the real and imaginary parts of the rows; the pivot
    columns are returned. Each step replaces an entry x by
    (p * x - f * y) / prev, with p the new pivot, f the entry in the pivot
    column, y the matching pivot-row entry and prev the previous pivot;
    Sylvester's identity makes every division exact, so the entries stay
    Gaussian integers (minors of the input). The forward pass clears the
    rows below each pivot and leaves a row echelon form whose first
    len(pivots) rows are nonzero and span the input's row space. With
    reduce, the rows above are cleared too (fraction-free Gauss-Jordan):
    then each pivot row divided by its pivot is the corresponding row of
    the RREF.
    """
    n_rows = len(re)
    pivots: list[int] = []
    prev_r, prev_i, norm = 1, 0, 1
    for col in range(n_cols):
        p = len(pivots)
        if p == n_rows:
            break
        hit = next((r for r in range(p, n_rows) if re[r][col] or im[r][col]), None)
        if hit is None:
            continue
        re[p], re[hit] = re[hit], re[p]
        im[p], im[hit] = im[hit], im[p]
        src_r, src_i = re[p], im[p]
        pr, pi = src_r[col], src_i[col]
        for r in range(0 if reduce else p + 1, n_rows):
            if r == p:
                continue
            # A row above is zero left of its own pivot column. Left of col
            # the pivot row is zero, so there the update only rescales by
            # (new pivot) / prev, and the row's own pivot becomes the new one.
            start = pivots[r] if r < p else col
            dst_r, dst_i = re[r], im[r]
            fr, fi = dst_r[col], dst_i[col]
            out_r: list[int] = []
            out_i: list[int] = []
            for ar, ai, br, bi in zip(
                dst_r[start:], dst_i[start:], src_r[start:], src_i[start:]
            ):
                xr = pr * ar - pi * ai - fr * br + fi * bi
                xi = pr * ai + pi * ar - fr * bi - fi * br
                qr, rr = divmod(xr * prev_r + xi * prev_i, norm)
                qi, ri = divmod(xi * prev_r - xr * prev_i, norm)
                if rr or ri:
                    raise InexactDivision(
                        f"pivot ({prev_r}, {prev_i}) does not divide ({xr}, {xi})"
                    )
                out_r.append(qr)
                out_i.append(qi)
            dst_r[start:] = out_r
            dst_i[start:] = out_i
        pivots.append(col)
        prev_r, prev_i, norm = pr, pi, pr * pr + pi * pi
    return pivots


def _eliminate(
    m: Matrix, reduce: bool
) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """_bareiss on the rows of m scaled to Gaussian integers, each
    divided by its content.

    Returns the real parts, imaginary parts and pivot columns of the
    eliminated rows.
    """
    re, im = _primitive(*_common_integer_rows(m)[:2])
    return re, im, _bareiss(re, im, m.cols, reduce)


def _divided_row(
    row_r: list[int], row_i: list[int], d_r: int, d_i: int
) -> list[GaussianRational]:
    """Entries of the Gaussian-integer row divided by d_r + d_i*i."""
    norm = d_r * d_r + d_i * d_i
    return [
        GaussianRational(
            Fraction(ar * d_r + ai * d_i, norm), Fraction(ai * d_r - ar * d_i, norm)
        )
        if ar or ai
        else ZERO
        for ar, ai in zip(row_r, row_i)
    ]


def rref(m: Matrix) -> tuple[Matrix, int, tuple[int, ...]]:
    """Reduced row echelon form of m with rank and pivot columns.

    The RREF is unique, which is what makes canonical subspace bases and
    bitwise subspace equality possible downstream.
    """
    re, im, pivots = _eliminate(m, reduce=True)
    out: list[GaussianRational] = []
    for row, col in enumerate(pivots):
        out.extend(_divided_row(re[row], im[row], re[row][col], im[row][col]))
    out.extend([ZERO] * ((m.rows - len(pivots)) * m.cols))
    return Matrix(m.rows, m.cols, tuple(out)), len(pivots), tuple(pivots)


def rank(m: Matrix) -> int:
    """Rank of m, from the forward elimination pass alone."""
    return len(_eliminate(m, reduce=False)[2])


# A prime p = 1 (mod 4), so that GF(p) has a square root of -1, and that
# root. 257 * p**2 < 2**64, so a sum of up to 256 products of residues fits
# one 64-bit field, and p < 2**28, so every residue is one CPython int digit.
_P = 267912649
_SQRT_MINUS_ONE = 22964409


def _residues(re: list[list[int]], im: list[list[int]]) -> list[list[int]]:
    """The Gaussian-integer rows re + i*im sent to GF(_P) by the ring
    homomorphism Z[i] -> GF(_P) with i -> _SQRT_MINUS_ONE."""
    r, p = _SQRT_MINUS_ONE, _P
    return [[(x + r * y) % p for x, y in zip(xs, ys)] for xs, ys in zip(re, im)]


# The little-endian layouts of 0..256 unsigned 64-bit fields, compiled
# once: a row of residues of L has N <= 256 of them.
_QWORDS = tuple(struct.Struct(f"<{count}Q") for count in range(257))


def _packed(values: Sequence[int]) -> int:
    """The values, each below 2**64, as 64-bit fields of one int, the first lowest."""
    return int.from_bytes(_QWORDS[len(values)].pack(*values), "little")


def _fields(packed: int, count: int) -> tuple[int, ...]:
    """The first count 64-bit fields of packed, lowest first: _packed inverted."""
    return _QWORDS[count].unpack(packed.to_bytes(8 * count, "little"))


def _full_rank_mod_p(rows: list[list[int]]) -> bool:
    """True when the square matrix of residues mod _P has full rank in GF(_P).

    The rows are residues of a Gaussian-integer matrix (see _residues). A
    homomorphism cannot raise the rank, so True proves that the integer
    matrix, and any matrix whose rows are nonzero multiples of its rows,
    is invertible over Q(i). False proves nothing: the matrix may still be
    invertible over Q(i) when its determinant maps to 0 in GF(_P), and the
    caller must decide that exactly. The input lists are not changed.

    The rows are packed (see _packed) and fields are left unreduced. For
    a row whose lowest field, the pivot column col, is f mod _P, clearing
    col is (row >> 64) + (_P - f) * t, where t packs the pivot row right
    of col, reduced mod _P and divided by the pivot. The shift drops the
    cleared field, and adding _P - f keeps every field nonnegative. A
    field starts below _P and gets at most N - 1 additions, each below
    _P**2, so it stays below N * _P**2 < 2**64 (N <= 256) and no carry
    crosses fields. Only the pivot row is unpacked, once per column, so
    the O(N**3) part is bignum arithmetic. A row that is 0 mod _P in the
    pivot column is only shifted, and a zero pivot tail is not unpacked.
    """
    n = len(rows)
    low = (1 << 64) - 1
    packed = [_packed(row) for row in rows]
    for col in range(n):
        t = None
        rest: list[int] = []
        for row in packed:
            f = (row & low) % _P
            if not f:
                rest.append(row >> 64)
            elif t is None:
                t = row >> 64
                if t:
                    inv = pow(f, -1, _P)
                    t = _packed([x * inv % _P for x in _fields(t, n - 1 - col)])
            else:
                rest.append((row >> 64) + (_P - f) * t)
        if t is None:
            return False
        packed = rest
    return True


@dataclass(frozen=True, slots=True)
class Subspace:
    """A linear subspace of column vectors, in canonical form.

    basis is ambient_dim x dim; its transpose is in RREF with no zero
    rows. Two Subspace values are equal exactly when they contain the
    same vectors.
    """

    ambient_dim: int
    basis: Matrix

    def __post_init__(self):
        if self.basis.rows != self.ambient_dim:
            raise ValueError("basis rows must match ambient dimension")

    @property
    def dim(self) -> int:
        return self.basis.cols

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls(n, Matrix(n, 0, ()))

    @classmethod
    def spanned_by_columns(cls, m: Matrix) -> "Subspace":
        """Canonical subspace spanned by the columns of m."""
        reduced, r, _ = rref(m.transpose())
        rows = reduced.to_rows()[:r]
        basis_t = Matrix(r, m.rows, tuple(v for row in rows for v in row))
        return cls(m.rows, basis_t.transpose())


def kernel_basis(m: Matrix) -> Subspace:
    """Canonical basis of the null space of m."""
    return _kernel(*_primitive(*_common_integer_rows(m)[:2]), m.cols)


def _kernel(re: list[list[int]], im: list[list[int]], n_cols: int) -> Subspace:
    """Canonical basis of the null space of the Gaussian-integer rows re + i*im.

    The rows are eliminated in place.
    """
    pivots = _bareiss(re, im, n_cols, reduce=True)
    pivot_set = set(pivots)
    free_cols = [c for c in range(n_cols) if c not in pivot_set]
    if not free_cols:
        return Subspace.zero(n_cols)
    reduced = [_divided_row(re[k], im[k], re[k][c], im[k][c]) for k, c in enumerate(pivots)]
    vectors = []
    for free in free_cols:
        entries = [ZERO] * n_cols
        entries[free] = ONE
        for row, piv in zip(reduced, pivots):
            entries[piv] = -row[free]
        vectors.append(entries)
    spanning = Matrix(len(vectors), n_cols, tuple(v for vec_ in vectors for v in vec_)).transpose()
    return Subspace.spanned_by_columns(spanning)


def inverse(m: Matrix) -> Matrix:
    """Exact inverse; raises SingularMatrix when rank is deficient."""
    if not m.is_square:
        raise NotSquare(f"{m.rows}x{m.cols}")
    n = m.rows
    re, im, pivots = _eliminate(m.hstack(Matrix.identity(n)), reduce=True)
    left_rank = sum(1 for p in pivots if p < n)
    if left_rank < n:
        raise SingularMatrix(f"rank {left_rank} < {n}")
    out: list[GaussianRational] = []
    for i in range(n):
        out.extend(_divided_row(re[i][n:], im[i][n:], re[i][i], im[i][i]))
    return Matrix(n, n, tuple(out))


def _kron_rows(a: Matrix, b: Matrix) -> _Scaled:
    """kron(a, b) as Gaussian-integer rows over one scale, the product of
    the common scales of a and b: entry (i1*b.rows + i2, j1*b.cols + j2) is
    the int product of a[i1, j1] and b[i2, j2] as Gaussian integers."""
    a_re, a_im, e = _common_integer_rows(a)
    b_re, b_im, f = _common_integer_rows(b)
    b_pairs = [list(zip(x_row, y_row)) for x_row, y_row in zip(b_re, b_im)]
    re, im = [], []
    for p_row, q_row in zip(a_re, a_im):
        a_pairs = list(zip(p_row, q_row))
        for pairs in b_pairs:
            re.append([p * x - q * y for p, q in a_pairs for x, y in pairs])
            im.append([p * y + q * x for p, q in a_pairs for x, y in pairs])
    return re, im, e * f


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; block (i, j) equals a[i, j] * b."""
    rows, cols = a.rows * b.rows, a.cols * b.cols
    if not rows:
        return Matrix.zeros(0, cols)
    return _integer_rows_matrix(*_kron_rows(a, b))
