"""Shared strategies for exact-scalar and small-matrix generation, and
test-only helpers: the spans and kernels below read the independent
reference (reference.py), the other builders the package's operations."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from fixpres import (
    GaussianRational,
    Matrix,
    Subspace,
    SuperOp,
    derive_rng,
    random_invertible,
    random_matrix,
    similarity_superop,
)
from fixpres.cli import matrix_from_doc
from fixpres.linalg import _FAST, _WIDE, _Field, _packed, _residues, kron
from fixpres.preserver import _structured_side
from fixpres.scalars import ONE, ZERO
from fixpres.superop import rank_one_factor, vec

import reference

settings.register_profile(
    "default",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture(autouse=True)
def cold_structured_side():
    """Each test starts with no structured probe's own side kept, so a test
    that patches _structured, _full_rank_mod_p or _bareiss sees the probe
    loop work it out, whatever ran before."""
    _structured_side.cache_clear()


fractions_st = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=4
)

scalars = st.builds(GaussianRational, fractions_st, fractions_st)

nonzero_scalars = scalars.filter(bool)

real_scalars = st.builds(GaussianRational, fractions_st)

imaginary_scalars = st.builds(GaussianRational, st.just(Fraction(0)), fractions_st)


@st.composite
def matrices(draw, rows=None, cols=None, max_side=4):
    r = rows if rows is not None else draw(st.integers(1, max_side))
    c = cols if cols is not None else draw(st.integers(1, max_side))
    entries = draw(st.lists(scalars, min_size=r * c, max_size=r * c))
    return Matrix(r, c, tuple(entries))


@st.composite
def square_matrices(draw, max_side=4):
    n = draw(st.integers(1, max_side))
    return draw(matrices(rows=n, cols=n))


def row_vector(values) -> Matrix:
    """The 1 x len(values) matrix with the given entries."""
    return Matrix.column(values).transpose()


def column_at(m: Matrix, j: int) -> Matrix:
    """Column j of m, as a column vector."""
    return Matrix(m.rows, 1, m.entries[j :: m.cols])


# The two fields of the tests mod p, for tests that take each in turn.
FIELDS = (_FAST, _WIDE)


def packed_rows(m: Matrix, field: _Field) -> list[int]:
    """The Gaussian-integer rows of m as residues mod field.p, each packed
    into the field's fields: what _full_rank_mod_p takes."""
    return [_packed(row, field) for row in _residues(m.re, m.im, field)]


def vec_mod_p(m: Matrix, field: _Field) -> list[int]:
    """vec(m) mod field.p over m's scale: the residues of its columns, one
    after another."""
    residues = _residues(list(zip(*m.re)), list(zip(*m.im)), field)
    return [x for column in residues for x in column]


def reference_full_rank_mod_p(m: Matrix, field: _Field) -> bool:
    """Full rank mod field.p of m's Gaussian-integer rows, one
    (x - f*y) % p per entry: _full_rank_mod_p as it was written before
    rows were packed."""
    p, r = field.p, field.root
    rows = [[(x + r * y) % p for x, y in zip(xs, ys)] for xs, ys in zip(m.re, m.im)]
    for col in range(m.cols):
        hit = next((k for k in range(col, m.rows) if rows[k][col]), None)
        if hit is None:
            return False
        rows[col], rows[hit] = rows[hit], rows[col]
        pivot = rows[col]
        inv = pow(pivot[col], -1, p)
        tail = [x * inv % p for x in pivot[col + 1 :]]
        for row in rows[col + 1 :]:
            f = row[col]
            if f:
                row[col + 1 :] = [(x - f * y) % p for x, y in zip(row[col + 1 :], tail)]
    return True


def count_entry_reads(monkeypatch, cols: int) -> list:
    """Record the shape of each read of Matrix.entries, the GaussianRational
    view, on a matrix with cols columns, such as the L of a map."""
    reads = []
    entries = Matrix.entries

    def counted(m):
        if m.cols == cols:
            reads.append((m.rows, m.cols))
        return entries.__get__(m)

    monkeypatch.setattr(Matrix, "entries", property(counted))
    return reads


def pair(z) -> tuple[Fraction, Fraction]:
    """A GaussianRational, int or Fraction as the reference's (re, im) pair."""
    if isinstance(z, GaussianRational):
        return z.re, z.im
    return Fraction(z), Fraction(0)


def pairs(grid) -> list:
    """Rows of scalars as the reference's rows of pairs."""
    return [[pair(z) for z in row] for row in grid]


def matrix_of(rows: list, cols: int) -> Matrix:
    """The Matrix of the reference's rows of (re, im) pairs."""
    return Matrix(len(rows), cols, [GaussianRational(*z) for row in rows for z in row])


def spanned_by_columns(m: Matrix) -> Subspace:
    """The canonical subspace spanned by the columns of m: the nonzero rows
    of the reference RREF of m.T, transposed."""
    reduced, pivots = reference.rref(list(zip(*reference.rows(m))))
    return Subspace(m.rows, matrix_of(reduced[: len(pivots)], m.rows).transpose())


def null_space(m: Matrix) -> Subspace:
    """ker(m), the reference's canonical kernel basis."""
    basis = reference.kernel(reference.rows(m), m.cols)
    return Subspace(m.cols, matrix_of(basis, len(basis[0]) if basis else 0))


def similarity_rows(s: Matrix, scale) -> list:
    """The reference rows of the L of A -> scale * S @ A @ inverse(S):
    scale times the kron of inverse(S).T and S."""
    z, rows = pair(scale), reference.rows(s)
    inverse_t = list(zip(*reference.inverse(rows)))
    return [[reference.mul(z, x) for x in row] for row in reference.kron(inverse_t, rows)]


def assert_image_matches_reference(phi: SuperOp, a: Matrix) -> None:
    """phi.apply(a) is in canonical form the reference image of a."""
    expected = reference.apply(reference.rows(phi.matrix), reference.rows(a))
    reference.assert_form(phi.apply(a), expected, phi.n)


def sandwich(s: Matrix, t: Matrix) -> SuperOp:
    """The map A -> S @ A @ T, whose L is kron(T.T, S)."""
    return SuperOp(s.rows, kron(t.transpose(), s))


def contains(space: Subspace, v: Matrix) -> bool:
    """Whether the column v lies in space: adjoining it leaves the span unchanged."""
    return spanned_by_columns(space.basis.hstack(v)) == space


def superop_from_action(n: int, action) -> SuperOp:
    """The superoperator of a linear action, read off its images of the matrix units."""
    side = n * n
    stacked = tuple(
        e for j in range(n) for i in range(n) for e in vec(action(Matrix.unit(n, i, j))).entries
    )
    return SuperOp(n, Matrix(side, side, stacked).transpose())


def factor(m: Matrix) -> tuple[Matrix, Matrix]:
    """rank_one_factor on the Gaussian-integer rows of m over its scale."""
    return rank_one_factor(zip(m.re, m.im), m.d)


def colliding(field: _Field) -> tuple[GaussianRational, ...]:
    """Entries that vanish mod field.p or collide there, next to the
    sampled ones: p, r - i (i -> r, the field's root of -1), and p + 1 and
    r + 1 - i, which the shift by I sends to 0 mod p on the diagonal."""
    p, r = field.p, field.root
    return (
        GaussianRational(p),
        GaussianRational(r, -1),
        GaussianRational(p + 1),
        GaussianRational(r + 1, -1),
        ZERO,
        ONE,
    )


def dependent_row_map(n: int, offset: int, seed: int = 0) -> SuperOp:
    """A random map whose last row of L is the sum of its first two plus
    offset at column 0. det L is offset times the cofactor of that entry,
    nonzero for a random L, so L is singular for offset 0 and otherwise,
    for a random L, singular mod exactly the primes that divide offset;
    the tests that use it check this against the reference."""
    side = n * n
    rows = random_matrix(derive_rng(seed, "dependent-row", n), side, side).to_rows()
    last = [x + y for x, y in zip(rows[0], rows[1])]
    last[0] += offset
    return SuperOp(n, Matrix.from_rows(rows[:-1] + [last]))


# The offsets of dependent_row_map for the four kinds of L that
# is_bijective tells apart: singular mod the fast prime alone, mod the
# wide prime alone, mod both but invertible over Q(i), and singular.
FALLBACK_OFFSETS = {
    "fast-only": _FAST.p,
    "wide-only": _WIDE.p,
    "both": _FAST.p * _WIDE.p,
    "singular": 0,
}


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def prime_rows(m: Matrix) -> Matrix:
    """m with row r divided by the r-th prime, so that the common scale of
    its rows sits far above the scale of any one row."""
    return Matrix(m.rows, m.cols, tuple(
        x / PRIMES[k // m.cols] for k, x in enumerate(m.entries)
    ))


def prime_row_similarity(n: int, seed: int = 0) -> SuperOp:
    """A -> S @ A @ inv(S) for a random S whose row r is over the r-th prime."""
    s = random_invertible(derive_rng(seed, "prime-rows", n), n)
    return similarity_superop(prime_rows(s), 1)


def prime_row_random(n: int, seed: int = 0) -> SuperOp:
    """A random map whose row r of L is divided by the r-th prime."""
    side = n * n
    return SuperOp(n, prime_rows(random_matrix(derive_rng(seed, "prime-rows", n), side, side)))


# Row 0 has six distinct denominators near 10**40 and rows 1 and 2 are
# integers, so one common scale for all three rows sits near 10**240.
MIXED_DENOMINATORS = matrix_from_doc(json.loads(
    (Path(__file__).parent / "fixtures" / "matrix_mixed_denominators_n3.json").read_text()
))
