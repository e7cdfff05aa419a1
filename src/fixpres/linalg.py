"""Exact dense linear algebra over Gaussian-rational scalars.

All values are immutable and every operation is pure. Rank and kernel
decisions are bit-exact: there is no tolerance anywhere in this module.

Subspaces are stored in a unique canonical form (the transpose of the
stored basis is in reduced row echelon form), so subspace equality is a
plain entrywise comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
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

    @classmethod
    def row_vector(cls, values: Sequence) -> "Matrix":
        vals = tuple(_as_scalar(v) for v in values)
        return cls(1, len(vals), vals)

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

        Each row of self and each column of other is scaled to Gaussian
        integers by the lcm of its denominators (d_i and e_j). Entry
        (i, j) is then a plain int dot product, skipping zero left
        entries, divided once by d_i * e_j: one GaussianRational per
        output entry and no Fraction arithmetic in the inner loop.
        """
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise SizeMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        return _product(_integer_rows(self), other)

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

    def column_at(self, j: int) -> "Matrix":
        return Matrix(self.rows, 1, tuple(self.entries[i * self.cols + j] for i in range(self.rows)))

    def __str__(self) -> str:
        body = "; ".join(
            " ".join(str(v) for v in self.entries[i * self.cols : (i + 1) * self.cols])
            for i in range(self.rows)
        )
        return f"[{body}]"


# Real parts, imaginary parts and scales of rows scaled to Gaussian integers.
_Scaled = tuple[list[list[int]], list[list[int]], list[int]]


def _integer_rows(m: Matrix) -> _Scaled:
    """Real and imaginary parts of m with each row scaled to Gaussian integers.

    Row i is multiplied by the lcm of its entries' denominators, returned
    as the third list; scaling a row by a nonzero constant changes
    neither the rank nor the RREF.
    """
    re_rows: list[list[int]] = []
    im_rows: list[list[int]] = []
    scales: list[int] = []
    c = m.cols
    for i in range(m.rows):
        row = m.entries[i * c : (i + 1) * c]
        scale = lcm(*(q.denominator for z in row for q in (z.re, z.im)))
        re_rows.append([z.re.numerator * (scale // z.re.denominator) for z in row])
        im_rows.append([z.im.numerator * (scale // z.im.denominator) for z in row])
        scales.append(scale)
    return re_rows, im_rows, scales


def _product(left: _Scaled, right: Matrix) -> Matrix:
    """left @ right, with left already scaled by _integer_rows.

    The caller checks that right has as many rows as left has columns.
    """
    l_re, l_im, l_scales = left
    r_re, r_im, r_scales = _integer_rows(right.transpose())
    out: list[GaussianRational] = []
    for a_re, a_im, d in zip(l_re, l_im, l_scales):
        nonzero = [(t, x, y) for t, (x, y) in enumerate(zip(a_re, a_im)) if x or y]
        for b_re, b_im, e in zip(r_re, r_im, r_scales):
            acc_r = acc_i = 0
            for t, x, y in nonzero:
                u, v = b_re[t], b_im[t]
                acc_r += x * u - y * v
                acc_i += x * v + y * u
            if acc_r or acc_i:
                den = d * e
                out.append(GaussianRational(Fraction(acc_r, den), Fraction(acc_i, den)))
            else:
                out.append(ZERO)
    return Matrix(len(l_scales), right.cols, tuple(out))


def _eliminate(
    m: Matrix, reduce: bool
) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """Fraction-free elimination of m over the Gaussian integers (Bareiss).

    Returns the real parts, imaginary parts and pivot columns of the
    eliminated rows. Each step replaces an entry x by
    (p * x - f * y) / prev, with p the new pivot, f the entry in the pivot
    column, y the matching pivot-row entry and prev the previous pivot;
    Sylvester's identity makes every division exact, so the entries stay
    Gaussian integers (minors of the scaled input). The forward pass
    clears the rows below each pivot and leaves a row echelon form whose
    first len(pivots) rows are nonzero. With reduce, the rows above are
    cleared too (fraction-free Gauss-Jordan): then each pivot row divided
    by its pivot is the corresponding row of the RREF.
    """
    re, im, _ = _integer_rows(m)
    n_rows, n_cols = m.rows, m.cols
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
    return re, im, pivots


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
    reduced, r, pivots = rref(m)
    pivot_set = set(pivots)
    free_cols = [c for c in range(m.cols) if c not in pivot_set]
    if not free_cols:
        return Subspace.zero(m.cols)
    vectors = []
    for free in free_cols:
        entries = [ZERO] * m.cols
        entries[free] = ONE
        for row_idx, piv in enumerate(pivots):
            entries[piv] = -reduced[row_idx, free]
        vectors.append(entries)
    spanning = Matrix(len(vectors), m.cols, tuple(v for vec_ in vectors for v in vec_)).transpose()
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


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; block (i, j) equals a[i, j] * b."""
    rows = a.rows * b.rows
    cols = a.cols * b.cols
    out = [ZERO] * (rows * cols)
    for idx, coeff in enumerate(a.entries):
        if not coeff:
            continue
        i1, j1 = divmod(idx, a.cols)
        for i2 in range(b.rows):
            base = (i1 * b.rows + i2) * cols + j1 * b.cols
            for j2, val in enumerate(b.entries[i2 * b.cols : (i2 + 1) * b.cols]):
                if val:
                    out[base + j2] = coeff * val
    return Matrix(rows, cols, tuple(out))
