"""Exact dense linear algebra over Gaussian-rational scalars.

A Matrix has one exact form: canonical Gaussian-integer rows re + i*im
over one scale d, the lcm of the reduced denominators of its entries, so
gcd(d, every entry) = 1 and equal matrices have equal fields. Every
operation reads and builds those rows; GaussianRational entries are
views built on request. All values are immutable and every operation is
pure. Rank and kernel decisions are bit-exact: there is no tolerance
anywhere in this module.

Every exact product in the package (Matrix @ and SuperOp.apply) goes
through _products: each row of the left operand dotted with the nonzero
entries of one column of the right.

Every exact elimination in the package (rank, echelon rows, RREF,
kernel, inverse) goes through _echelon: fraction-free Bareiss
elimination over the Gaussian integers on rows divided by their content.
Its Gauss-Jordan pass leaves one common pivot, and two readers divide by
it: rref, which inverse and completion_idempotent read their rows from,
and _kernel, which divides only the kernel vectors.

Every full-rank test mod a prime goes through _full_rank_mod_p, in one
of two fields (_Field): _FAST, a 12-bit prime in 32-bit fields, which
tests L and the probes in superop and preserver, and _WIDE, a 28-bit
prime in 64-bit fields. Every rank has one rule, _rank: square rows that
the test mod _WIDE (_regular_rows_mod_p) proves invertible have full
rank, and every other matrix takes the forward pass of _echelon. A
homomorphism cannot raise a rank, so full rank mod p proves full rank
over Q(i); a matrix the test cannot prove, singular over Q(i) or only
mod p, takes the exact pass, so every answer is the exact one. rank
applies the rule to a matrix, and fixed_points.dim_fixed to the rows of
A - I, which fixed_space tests the same way before its kernel. Every
exact pass that a test mod p may save sits behind the test mod _WIDE,
so a matrix that reads singular mod _FAST alone costs one more
elimination mod _WIDE, never an exact pass.

Subspaces are stored in a unique canonical form (the transpose of the
stored basis is in reduced row echelon form), so subspace equality is a
plain entrywise comparison.

The rank-one calculus is here too: rank_one(x, f) maps y to f(y)*x, an
idempotent with F = span(x) exactly when f(x) = 1.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import NamedTuple, Sequence

from .scalars import GaussianRational, ZERO, _format_over


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


class ZeroFactor(ValueError):
    """x or f is zero, so the outer product is not rank one."""


class DependentPair(ValueError):
    """x and A@x are linearly dependent; no completion exists."""


def _as_scalar(value) -> GaussianRational:
    scalar = GaussianRational._coerce(value)
    if scalar is NotImplemented:
        raise TypeError(f"cannot use {value!r} as a matrix entry")
    return scalar


def _check_sizes(*sizes: int) -> None:
    if min(sizes) < 0:
        raise ValueError("matrix dimensions must be nonnegative")


# Integer parts (a, b, c, e) of the Gaussian rational a/b + (c/e)i, with
# b, e > 0 and not necessarily reduced: the form of entries written over
# many denominators (the constructor, random draws, the CLI reader).
_Parts = tuple[int, int, int, int]


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Matrix:
    """Dense rows x cols matrix (re + i*im) / d in canonical Gaussian-integer rows.

    re and im hold the rows of real and imaginary parts as tuples of ints,
    and d is the lcm of the reduced denominators of the entries, so
    gcd(d, every entry) = 1: equal matrices have equal fields (and equal
    hashes). Zero rows or columns are allowed; the empty basis of the zero
    subspace is an n x 0 matrix.
    """

    rows: int
    cols: int
    re: tuple[tuple[int, ...], ...]
    im: tuple[tuple[int, ...], ...]
    d: int

    def __init__(self, rows: int, cols: int, entries: Sequence):
        """The matrix of the row-major entries, each an int, Fraction or
        GaussianRational (anything else raises TypeError), put on the
        canonical scale once."""
        _check_sizes(rows, cols)
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        parts = [
            (z.re.numerator, z.re.denominator, z.im.numerator, z.im.denominator)
            for z in map(_as_scalar, entries)
        ]
        re, im, d = _canonical_integers(parts)
        starts = [k * cols for k in range(rows)]
        re_rows, im_rows = [re[k : k + cols] for k in starts], [im[k : k + cols] for k in starts]
        _matrix(cols, re_rows, im_rows, d, self)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        n_rows = len(rows)
        n_cols = len(rows[0]) if n_rows else 0
        flat = []
        for row in rows:
            if len(row) != n_cols:
                raise ValueError("ragged rows")
            flat.extend(row)
        return cls(n_rows, n_cols, flat)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        _check_sizes(rows, cols)
        zero_rows = [(0,) * cols] * rows
        return _matrix(cols, zero_rows, zero_rows, 1)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        _check_sizes(n)
        zeros = (0,) * n
        return _matrix(n, [zeros[:i] + (1,) + zeros[i + 1 :] for i in range(n)], [zeros] * n, 1)

    @classmethod
    def unit(cls, n: int, i: int, j: int) -> "Matrix":
        """Matrix unit with a single 1 at (i, j)."""
        _check_sizes(n)
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError((i, j))
        re = [[0] * n for _ in range(n)]
        re[i][j] = 1
        return _matrix(n, re, [(0,) * n] * n, 1)

    @classmethod
    def column(cls, values: Sequence) -> "Matrix":
        values = tuple(values)
        return cls(len(values), 1, values)

    @property
    def entries(self) -> tuple[GaussianRational, ...]:
        """The entries row by row, built on each request."""
        d = self.d
        return tuple(
            _entry(x, y, d) for xs, ys in zip(self.re, self.im) for x, y in zip(xs, ys)
        )

    def __getitem__(self, key: tuple[int, int]) -> GaussianRational:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return _entry(self.re[i][j], self.im[i][j], self.d)

    def to_rows(self) -> list[list[GaussianRational]]:
        d = self.d
        return [[_entry(x, y, d) for x, y in zip(xs, ys)] for xs, ys in zip(self.re, self.im)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def is_zero(self) -> bool:
        return not any(map(any, self.re + self.im))

    def transpose(self) -> "Matrix":
        if not self.rows:
            return Matrix.zeros(self.cols, 0)
        return _matrix(self.rows, list(zip(*self.re)), list(zip(*self.im)), self.d)

    def __add__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        return _sum(self, other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        return _sum(self, other, -1)

    def __neg__(self) -> "Matrix":
        return self * -1

    def __mul__(self, scalar) -> "Matrix":
        try:
            s = _as_scalar(scalar)
        except TypeError:
            return NotImplemented
        # s = (p + q*i) / t
        (a, b), (c, e) = s.re.as_integer_ratio(), s.im.as_integer_ratio()
        p, q, t = a * e, c * b, b * e
        return _over(
            [[p * x - q * y for x, y in zip(xs, ys)] for xs, ys in zip(self.re, self.im)],
            [[p * y + q * x for x, y in zip(xs, ys)] for xs, ys in zip(self.re, self.im)],
            self.d * t,
            self.cols,
        )

    __rmul__ = __mul__

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Exact product, computed over the Gaussian integers.

        Column j is _products of the rows of self with column j of other,
        over the product of the two scales; the result is put on its
        canonical scale once.
        """
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise SizeMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        right = other.transpose()
        columns = [_products(self.re, self.im, u, v) for u, v in zip(right.re, right.im)]
        rows = range(self.rows)
        return _over(
            [[c_re[i] for c_re, _ in columns] for i in rows],
            [[c_im[i] for _, c_im in columns] for i in rows],
            self.d * other.d,
            other.cols,
        )

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise SizeMismatch(f"hstack of {self.rows} and {other.rows} rows")
        e = lcm(self.d, other.d)
        p, q = e // self.d, e // other.d
        return _over(
            [[p * x for x in a] + [q * y for y in b] for a, b in zip(self.re, other.re)],
            [[p * x for x in a] + [q * y for y in b] for a, b in zip(self.im, other.im)],
            e,
            self.cols + other.cols,
        )

    def __repr__(self) -> str:
        return f"Matrix(rows={self.rows}, cols={self.cols}, entries={self.entries!r})"

    def __str__(self) -> str:
        d = self.d
        body = "; ".join(
            " ".join(_format_over(x, y, d) for x, y in zip(xs, ys))
            for xs, ys in zip(self.re, self.im)
        )
        return f"[{body}]"


def _entry(x: int, y: int, d: int) -> GaussianRational:
    return GaussianRational(Fraction(x, d), Fraction(y, d)) if x or y else ZERO


def _matrix(
    cols: int,
    re: Sequence[Sequence[int]],
    im: Sequence[Sequence[int]],
    d: int,
    m: Matrix | None = None,
) -> Matrix:
    """The matrix (re + i*im) / d of rows that are already canonical over
    d, stored in m when given (Matrix.__init__ passes itself)."""
    if m is None:
        m = object.__new__(Matrix)
    object.__setattr__(m, "rows", len(re))
    object.__setattr__(m, "cols", cols)
    object.__setattr__(m, "re", tuple(map(tuple, re)))
    object.__setattr__(m, "im", tuple(map(tuple, im)))
    object.__setattr__(m, "d", d)
    return m


def _canonical_integers(
    parts: Sequence[_Parts]
) -> tuple[list[int], list[int], int]:
    """The Gaussian rationals a/b + (c/e)i, given by their integer parts
    (a, b, c, e) with b, e > 0 and not necessarily reduced, as Gaussian
    integers (re, im) over their canonical scale d: the lcm of the reduced
    denominators, so gcd(d, every entry) = 1.

    It canonicalises parts written over any denominators; _over is its
    special case for rows over one scale. No part is reduced on its own:
    the reduced denominators of the parts over one written denominator b
    have lcm b / gcd(b, their numerators), one gcd per distinct b that
    stops at 1, so no scale larger than d is built however the parts are
    written.
    """
    numerators: dict[int, list[int]] = {}
    for a, b, c, e in parts:
        numerators.setdefault(b, []).append(a)
        numerators.setdefault(e, []).append(c)
    d = lcm(*(b // gcd(b, *over_b) for b, over_b in numerators.items()))
    return [a * d // b for a, b, _, _ in parts], [c * d // e for _, _, c, e in parts], d


def _over(
    re: Sequence[Sequence[int]], im: Sequence[Sequence[int]], e: int, cols: int
) -> Matrix:
    """The matrix (re + i*im) / e, for Gaussian-integer rows over any scale
    e > 0. Every part is over e, so the canonical scale of
    _canonical_integers is e / g for g the gcd of e and every entry, and
    one gcd finds it."""
    g = gcd(e, *chain.from_iterable(re), *chain.from_iterable(im))
    if g > 1:
        re = [[x // g for x in row] for row in re]
        im = [[y // g for y in row] for row in im]
    return _matrix(cols, re, im, e // g)


def _sum(a: Matrix, b: Matrix, sign: int) -> Matrix:
    """a + b, or a - b for sign -1, over the lcm of the two scales."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        op = "+" if sign > 0 else "-"
        raise SizeMismatch(f"{a.rows}x{a.cols} {op} {b.rows}x{b.cols}")
    e = lcm(a.d, b.d)
    p, q = e // a.d, sign * (e // b.d)
    return _over(
        [[p * x + q * y for x, y in zip(xs, ys)] for xs, ys in zip(a.re, b.re)],
        [[p * x + q * y for x, y in zip(xs, ys)] for xs, ys in zip(a.im, b.im)],
        e,
        a.cols,
    )


def _products(
    re: Sequence[Sequence[int]],
    im: Sequence[Sequence[int]],
    u: Sequence[int],
    v: Sequence[int],
) -> tuple[list[int], list[int]]:
    """Real and imaginary parts of (re + i*im) @ (u + i*v), all Gaussian
    integers: each row dotted with the nonzero entries of the column
    u + i*v alone. Matrix @ calls it once per column of its right
    operand, SuperOp.apply once with vec(A)."""
    nonzero = [(t, x, y) for t, (x, y) in enumerate(zip(u, v)) if x or y]
    out_re: list[int] = []
    out_im: list[int] = []
    for a_re, a_im in zip(re, im):
        acc_r = acc_i = 0
        for t, x, y in nonzero:
            p, q = a_re[t], a_im[t]
            acc_r += p * x - q * y
            acc_i += p * y + q * x
        out_re.append(acc_r)
        out_im.append(acc_i)
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
    len(pivots) rows are nonzero and span the input's row space; the rows
    below them are zero. With reduce, the rows above are cleared too
    (fraction-free Gauss-Jordan), which leaves every pivot entry equal to
    the last pivot: the rows over that one pivot are the RREF.

    Call it through _echelon, which copies the rows first.
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
            # a row that is zero from start on stays zero
            if not (fr or fi or any(dst_r[start:]) or any(dst_i[start:])):
                continue
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


def _echelon(
    re: Sequence[Sequence[int]],
    im: Sequence[Sequence[int]],
    n_cols: int,
    reduce: bool = False,
) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """The one way into elimination: _bareiss on copies of the rows
    re + i*im, each divided by its content (the gcd of its integers),
    which leaves the row space as it is.

    Returns the real parts, imaginary parts and pivot columns of the
    eliminated rows. With reduce, every pivot entry equals the last one
    (see _bareiss), which _pivot reads.
    """
    out_re, out_im = [], []
    for row_re, row_im in zip(re, im):
        g = gcd(*row_re, *row_im)
        out_re.append([x // g for x in row_re] if g > 1 else list(row_re))
        out_im.append([x // g for x in row_im] if g > 1 else list(row_im))
    return out_re, out_im, _bareiss(out_re, out_im, n_cols, reduce)


def _pivot(
    re: Sequence[Sequence[int]], im: Sequence[Sequence[int]], pivots: Sequence[int]
) -> tuple[int, int]:
    """The common pivot (real, imaginary) of Gauss-Jordan rows from
    _echelon, or 1 when there is no pivot."""
    if not pivots:
        return 1, 0
    k, col = len(pivots) - 1, pivots[-1]
    return re[k][col], im[k][col]


def _divided(
    re: Sequence[Sequence[int]], im: Sequence[Sequence[int]], pr: int, pi: int, cols: int
) -> Matrix:
    """The matrix (re + i*im) / (pr + i*pi): the rows times the conjugate
    pr - i*pi, over the norm pr**2 + pi**2."""
    return _over(
        [[x * pr + y * pi for x, y in zip(xs, ys)] for xs, ys in zip(re, im)],
        [[y * pr - x * pi for x, y in zip(xs, ys)] for xs, ys in zip(re, im)],
        pr * pr + pi * pi,
        cols,
    )


def rref(m: Matrix) -> tuple[Matrix, int, tuple[int, ...]]:
    """Reduced row echelon form of m with rank and pivot columns.

    The RREF is unique, which is what makes canonical subspace bases and
    bitwise subspace equality possible downstream. It is the Gauss-Jordan
    rows of _echelon over their one common pivot; the rows below the
    pivot rows are zero.
    """
    re, im, pivots = _echelon(m.re, m.im, m.cols, reduce=True)
    return _divided(re, im, *_pivot(re, im, pivots), m.cols), len(pivots), tuple(pivots)


def _rank(re: Sequence[Sequence[int]], im: Sequence[Sequence[int]], n_cols: int) -> int:
    """Rank of the Gaussian-integer rows re + i*im: n_cols for square rows
    that _regular_rows_mod_p proves invertible, otherwise the length of
    the forward pass."""
    if len(re) == n_cols and _regular_rows_mod_p(re, im):
        return n_cols
    return len(_echelon(re, im, n_cols)[2])


def rank(m: Matrix) -> int:
    """Rank of m, by the one rule of _rank."""
    return _rank(m.re, m.im, m.cols)


class _Field(NamedTuple):
    """A prime p = 1 (mod 4), so that GF(p) has a square root of -1, that
    root, and the width in bits of the unsigned fields that _packed lays
    residues mod p out in, with the little-endian layouts of 0..256 such
    fields compiled once: a column of residues of L has N <= 256 of them.
    """

    p: int
    root: int
    bits: int
    layouts: tuple[struct.Struct, ...]


def _field(p: int, root: int, bits: int) -> _Field:
    code = {32: "I", 64: "Q"}[bits]
    return _Field(p, root, bits, tuple(struct.Struct(f"<{count}{code}") for count in range(257)))


# The two fields of every test mod p. _FAST is the largest prime = 1
# (mod 4) whose 32-bit fields hold the widest certificate in superop, an
# image of a probe at n = 16: (N + n - 1) * p**2 + p < 2**32. It tests
# L's columns and the probes; a full-rank matrix reads singular mod it
# about once in p draws. _WIDE's 64-bit fields hold every side up to 256
# that _regular_rows_mod_p takes, and p < 2**28, so every residue is one
# CPython int digit. _rank and fixed_space test mod _WIDE before any exact
# pass, so a miss mod _FAST alone never reaches one.
_FAST = _field(3929, 226, 32)
_WIDE = _field(260420617, 141801490, 64)


def _residues(
    re: Sequence[Sequence[int]], im: Sequence[Sequence[int]], field: _Field
) -> list[list[int]]:
    """The Gaussian-integer rows re + i*im sent to GF(p) by the ring
    homomorphism Z[i] -> GF(p) with i -> root, for p and root those of
    field."""
    r, p = field.root, field.p
    return [[(x + r * y) % p for x, y in zip(xs, ys)] for xs, ys in zip(re, im)]


def _packed(values: Sequence[int], field: _Field) -> int:
    """The values, each below 2**field.bits, as fields of one int, the
    first lowest."""
    return int.from_bytes(field.layouts[len(values)].pack(*values), "little")


def _fields(packed: int, count: int, field: _Field) -> tuple[int, ...]:
    """The first count fields of packed, lowest first: _packed inverted."""
    layout = field.layouts[count]
    return layout.unpack(packed.to_bytes(layout.size, "little"))


def _full_rank_mod_p(rows: list[int], field: _Field) -> bool:
    """True when the square matrix of packed rows (see _packed) has full
    rank mod field.p.

    A field of a row is a residue of a Gaussian-integer matrix (see
    _residues), or a sum of products of residues not yet reduced, and
    every field must be below 2**bits - (n - 1) * p**2 for n rows, with
    bits the field width; each caller states the bound of its fields. A
    homomorphism cannot raise the rank, so True proves that the integer
    matrix, its transpose, and any matrix whose rows are nonzero
    multiples of its rows are invertible over Q(i). False proves nothing:
    the matrix may still be invertible over Q(i) when its determinant
    maps to 0 in GF(p), and the caller must decide that another way. The
    input list is not changed.

    For a row whose lowest field, the pivot column col, is f mod p,
    clearing col is (row >> bits) + (p - f) * t, where t packs the pivot
    row right of col, reduced mod p and divided by the pivot. The shift
    drops the cleared field, and adding p - f keeps every field
    nonnegative. A field gets one addition below p**2 per earlier column,
    at most n - 1 of them, so under the bound above no carry crosses
    fields. Only the pivot row is unpacked, once per column, so the cubic
    part is bignum arithmetic. A row that is 0 mod p in the pivot column
    is only shifted, and a zero pivot tail is not unpacked. A zero input
    row answers False before any column is cleared.
    """
    n = len(rows)
    if not all(rows):
        return False
    p, bits = field.p, field.bits
    low = (1 << bits) - 1
    for col in range(n):
        t = None
        rest: list[int] = []
        for row in rows:
            f = (row & low) % p
            if not f:
                rest.append(row >> bits)
            elif t is None:
                t = row >> bits
                if t:
                    inv = pow(f, -1, p)
                    t = _packed([x * inv % p for x in _fields(t, n - 1 - col, field)], field)
            else:
                rest.append((row >> bits) + (p - f) * t)
        if t is None:
            return False
        rows = rest
    return True


def _regular_rows_mod_p(re: Sequence[Sequence[int]], im: Sequence[Sequence[int]]) -> bool:
    """True when the square Gaussian-integer rows re + i*im have full rank
    mod _WIDE.p, which proves that matrix invertible over Q(i); False
    proves nothing. The rows are reduced (fields below p) and packed for
    _full_rank_mod_p, whose bound holds for every side up to 256, the
    widest layout of a field; a wider matrix is not tried."""
    if len(re) >= len(_WIDE.layouts):
        return False
    return _full_rank_mod_p([_packed(row, _WIDE) for row in _residues(re, im, _WIDE)], _WIDE)


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
        return cls(n, Matrix.zeros(n, 0))


def _kernel(re: Sequence[Sequence[int]], im: Sequence[Sequence[int]], n_cols: int) -> Subspace:
    """Canonical basis of the null space of the Gaussian-integer rows
    re + i*im, from one Gauss-Jordan pass (_echelon) of the rows with their
    columns reversed. There the vector of a free column f is the common
    pivot p at f, 0 at the other free columns and minus row k's entry at f
    at pivots[k] < f. In the original order f is its first nonzero entry,
    so the vectors in descending reversed f, over p, are the RREF rows of
    the kernel: the transpose of its canonical basis.
    """
    last = n_cols - 1
    re, im, pivots = _echelon(
        [row[::-1] for row in re], [row[::-1] for row in im], n_cols, reduce=True
    )
    pivot_set = set(pivots)
    free_cols = [c for c in range(last, -1, -1) if c not in pivot_set]
    if not free_cols:
        return Subspace.zero(n_cols)
    pr, pi = _pivot(re, im, pivots)
    vectors_re, vectors_im = [], []
    for free in free_cols:
        v_re, v_im = [0] * n_cols, [0] * n_cols
        v_re[last - free], v_im[last - free] = pr, pi
        for k, piv in enumerate(pivots):
            v_re[last - piv], v_im[last - piv] = -re[k][free], -im[k][free]
        vectors_re.append(v_re)
        vectors_im.append(v_im)
    return Subspace(n_cols, _divided(vectors_re, vectors_im, pr, pi, n_cols).transpose())


def inverse(m: Matrix) -> Matrix:
    """Exact inverse; raises SingularMatrix when rank is deficient.

    The right half of the RREF of [m, I]."""
    if not m.is_square:
        raise NotSquare(f"{m.rows}x{m.cols}")
    n = m.rows
    r, _, pivots = rref(m.hstack(Matrix.identity(n)))
    left_rank = sum(1 for p in pivots if p < n)
    if left_rank < n:
        raise SingularMatrix(f"rank {left_rank} < {n}")
    return _over([row[n:] for row in r.re], [row[n:] for row in r.im], r.d, n)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; block (i, j) equals a[i, j] * b.

    Entry (i1*b.rows + i2, j1*b.cols + j2) is the int product of the
    Gaussian integers of a[i1, j1] and b[i2, j2], over the scale a.d * b.d.
    """
    b_pairs = [list(zip(x_row, y_row)) for x_row, y_row in zip(b.re, b.im)]
    re, im = [], []
    for p_row, q_row in zip(a.re, a.im):
        a_pairs = list(zip(p_row, q_row))
        for pairs in b_pairs:
            re.append([p * x - q * y for p, q in a_pairs for x, y in pairs])
            im.append([p * y + q * x for p, q in a_pairs for x, y in pairs])
    return _over(re, im, a.d * b.d, a.cols * b.cols)


def rank_one(x: Matrix, f: Matrix) -> Matrix:
    """Outer product x @ f of a column x and a functional f."""
    if x.cols != 1:
        raise SizeMismatch(f"x must be a column, got {x.rows}x{x.cols}")
    if f.rows != 1:
        raise SizeMismatch(f"f must be a row, got {f.rows}x{f.cols}")
    if x.is_zero or f.is_zero:
        raise ZeroFactor("both factors must be nonzero")
    return x @ f


def completion_idempotent(a: Matrix, x: Matrix) -> Matrix:
    """Rank-one idempotent P with (a + P) @ x = x.

    Requires x and a@x linearly independent. P = (x - a@x) @ f where f
    sends x to 1 and a@x to 0: f is the first row of inv(B), for B the
    basis [x, a@x, e_k, ...] that adds the standard basis vectors e_k in
    index order whenever they keep the set independent. Those are the
    pivot columns of [x, a@x, I], so the last n columns of its RREF are
    inv(B), and f is the first row of them.
    """
    if not a.is_square:
        raise NotSquare(f"{a.rows}x{a.cols}")
    if x.cols != 1 or x.rows != a.rows:
        raise SizeMismatch(f"x must be {a.rows}x1, got {x.rows}x{x.cols}")
    ax = a @ x
    r, _, pivots = rref(x.hstack(ax).hstack(Matrix.identity(a.rows)))
    if pivots[:2] != (0, 1):
        raise DependentPair("x and A@x are linearly dependent")
    return (x - ax) @ _over([r.re[0][2:]], [r.im[0][2:]], r.d, a.rows)
