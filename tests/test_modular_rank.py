"""The full-rank test mod p on rows packed into fixed-width fields,
against the per-entry reference, and the two fields it runs in: a 12-bit
prime in 32-bit fields and a 28-bit prime in 64-bit fields.

conftest.reference_full_rank_mod_p is _full_rank_mod_p as it was written
before rows were packed into ints: one (x - f*y) % p per entry. Rank mod
p does not depend on how the elimination is organised, so the two must
agree on every square matrix in each field, including the packed residue
columns of a map's L over its one common scale, which is what
is_bijective eliminates.
"""

import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fixpres import GaussianRational, Matrix, random_matrix, transpose_superop
from fixpres.linalg import _FAST, _WIDE, _fields, _full_rank_mod_p, _packed
from fixpres.scalars import ONE, ZERO
from fixpres.superop import MAX_SIDE, _regular_mod_p

from conftest import (
    FIELDS,
    packed_rows,
    prime_row_random,
    prime_row_similarity,
    reference_full_rank_mod_p,
)


# ---------------------------------------------------------------------------
# the primes and the packing

def _is_prime(p: int) -> bool:
    return p > 1 and all(p % k for k in range(2, isqrt(p) + 1))


def test_prime_has_a_square_root_of_minus_one_and_fits_the_fields():
    side = MAX_SIDE**2
    for field in FIELDS:
        p, bits = field.p, field.bits
        assert _is_prime(p)
        assert p % 4 == 1
        assert pow(field.root, 2, p) == p - 1
        # a field of an image certificate starts below N * p**2 + p and
        # takes at most n - 1 products below p**2; one of L starts below p
        # and takes N - 1
        assert (side + MAX_SIDE - 1) * p**2 + p < 2**bits
    # _regular_rows_mod_p takes reduced rows of sides up to 256
    assert (len(_WIDE.layouts) - 1) * _WIDE.p**2 < 2**_WIDE.bits
    assert _WIDE.p < 2**28


def test_fast_prime_is_the_largest_that_fits_the_image_bound():
    rows = MAX_SIDE**2 + MAX_SIDE - 1
    larger = range(_FAST.p + 4, isqrt(2**32 // rows) + 1, 4)
    assert not [q for q in larger if _is_prime(q) and rows * q**2 + q < 2**32]


@pytest.mark.parametrize("length", [1, 5, 256])
def test_packing_matches_shift_and_add(length):
    for field in FIELDS:
        bits = field.bits
        rng = random.Random(length)
        values = [
            rng.choice([0, 1, field.p - 1, rng.randrange(2**bits)]) for _ in range(length - 1)
        ]
        values.append(2**bits - 1)
        rng.shuffle(values)
        packed = sum(x << bits * k for k, x in enumerate(values))
        assert _packed(values, field) == packed
        assert list(_fields(packed, length, field)) == values


# ---------------------------------------------------------------------------
# property: agreement up to N = 36

def _special(field) -> tuple[GaussianRational, ...]:
    """p and r - i (i -> r) are nonzero over Q(i) but vanish mod p; p - 1
    is -1."""
    p = field.p
    return GaussianRational(p), GaussianRational(field.root, -1), GaussianRational(p - 1)


# Sparse entries whose residues collide often: about a fifth of such
# matrices with sides up to 10 are singular mod p but invertible over Q(i).
_SPARSE = (
    ZERO, ZERO, ZERO, ONE, -ONE, GaussianRational(Fraction(1, 2)), GaussianRational(0, 1)
)


@st.composite
def square_matrices_mod_p(draw):
    """A field, and random N x N matrices, rank-deficient products of N x k
    and k x N factors with k < N, or sparse matrices of entries that
    collide mod its prime, for N <= 36."""
    field = draw(st.sampled_from(FIELDS))
    side = draw(st.integers(1, 36))
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["random", "product", "colliding"]))
    special = _special(field)
    if kind == "random":
        m = random_matrix(rng, side, side)
        entries = list(m.entries)
        for _ in range(draw(st.integers(0, 3))):
            entries[rng.randrange(side * side)] = rng.choice(special)
        return field, Matrix(side, side, tuple(entries))
    if kind == "product":
        k = rng.randrange(side)
        return field, random_matrix(rng, side, k) @ random_matrix(rng, k, side)
    colliding = special + _SPARSE
    return field, Matrix(side, side, tuple(rng.choice(colliding) for _ in range(side * side)))


@given(square_matrices_mod_p())
@example((_FAST, prime_row_similarity(4).matrix))
@example((_FAST, prime_row_random(4).matrix))
@example((_WIDE, prime_row_similarity(4).matrix))
@example((_WIDE, prime_row_random(4).matrix))
def test_full_rank_mod_p_agrees_with_reference(case):
    field, m = case
    assert _full_rank_mod_p(packed_rows(m, field), field) == reference_full_rank_mod_p(m, field)


# ---------------------------------------------------------------------------
# pinned cases

@pytest.mark.parametrize("make", [prime_row_similarity, prime_row_random])
@pytest.mark.parametrize("n", [3, 4])
def test_common_scale_residues_agree_with_reference(make, n):
    # Every row of L is over the lcm of all rows' scales, far above its own.
    phi = make(n)
    full = _full_rank_mod_p(phi._residue_columns, _FAST)
    assert full == reference_full_rank_mod_p(phi.matrix, _FAST)


def test_row_swaps_at_every_column():
    m = transpose_superop(4).matrix
    for field in FIELDS:
        assert _full_rank_mod_p(packed_rows(m, field), field)
        assert reference_full_rank_mod_p(m, field)


def test_first_column_nonzero_mod_p_only_in_the_last_row():
    # Rows k < N - 1 are e_(k+1) plus an entry in column 0 that vanishes
    # mod p; the last row is e_0.
    side = 6
    for field in FIELDS:
        zero_mod_p = _special(field)[:2] + (GaussianRational(0),)
        rows = [
            [zero_mod_p[k % 3] if j == 0 else GaussianRational(int(j == k + 1))
             for j in range(side)]
            for k in range(side - 1)
        ]
        rows.append([GaussianRational(int(j == 0)) for j in range(side)])
        m = Matrix.from_rows(rows)
        assert _full_rank_mod_p(packed_rows(m, field), field)
        assert reference_full_rank_mod_p(m, field)


def test_lower_triangle_of_p_minus_one_at_n_256():
    side = 256
    for field in FIELDS:
        m = Matrix.from_rows(
            [[field.p - 1 if j <= i else 0 for j in range(side)] for i in range(side)]
        )
        assert _full_rank_mod_p(packed_rows(m, field), field)


def _lu_with_corner(side: int, corner: int) -> Matrix:
    """L @ U for U upper triangular with -1 above the diagonal, 1 on it
    except corner at (N-1, N-1), and L lower unitriangular with -1 on the
    subdiagonal and 1 below it.

    Eliminating column c clears row i > c, whose residue there is
    L[i][c], by a pivot row whose later entries are all -1. Where L[i][c]
    is 1 the addition to each packed field is (p - 1)**2, so the field in
    column j of row i receives min(i, j) additions, all but one of them
    that large: the growth the field width allows for. Where L[i][c] is
    -1 the addition is only p - 1, so fields do not all grow in step, and
    a carry out of one would show in the result.
    """
    rows = []
    for i in range(side):
        l = [-1 if k == i - 1 else 1 for k in range(i + 1)]
        # row i is sum_k l[k] * U[k]; before[j] = sum of l[k] over k < j
        before = [0]
        for v in l:
            before.append(before[-1] + v)
        rows.append([
            -before[i + 1] if j > i else l[j] * (corner if j == side - 1 else 1) - before[j]
            for j in range(side)
        ])
    return Matrix.from_rows(rows)


def test_every_field_at_its_growth_bound_at_n_256():
    for field in FIELDS:
        assert _full_rank_mod_p(packed_rows(_lu_with_corner(256, 1), field), field)
        # det = corner = p: invertible over Q(i), singular mod p, decided by
        # the last field after its 255 additions.
        assert not _full_rank_mod_p(packed_rows(_lu_with_corner(256, field.p), field), field)


def test_growth_bound_matrices_agree_with_reference_at_n_36():
    for field in FIELDS:
        for corner in (1, field.p):
            m = _lu_with_corner(36, corner)
            full = _full_rank_mod_p(packed_rows(m, field), field)
            assert full == reference_full_rank_mod_p(m, field) == (corner == 1)


def test_fast_image_certificate_at_its_growth_bound_at_n_16():
    """The widest certificate in the fast field: the image of a probe at
    n = 16. Each of its 256 fields sits within p of N * (p - 1)**2, the
    most a sum of N products of residues holds; _regular_mod_p at e = p
    adds the shift p to the diagonal fields and eliminates the 16 columns
    of M - I, whose residues are the rows of _lu_with_corner, so each
    field then takes up to 15 more additions of (p - 1)**2. The largest,
    (N + n - 1) * (p - 1)**2 + p, is still below 2**32, and a carry out of
    any field would show in the answer."""
    n, side, p = MAX_SIDE, MAX_SIDE**2, _FAST.p
    top = side * (p - 1) ** 2
    assert (side + n - 1) * (p - 1) ** 2 + p < 2**32
    for corner in (1, p):
        target = _lu_with_corner(n, corner)
        # column j of M is fields j*n to j*n + n - 1: row j of the target
        fields = [top - (top - x) % p for row in target.re for x in row]
        assert max(fields) <= top and min(fields) > top - p
        image = _packed(fields, _FAST)
        assert _regular_mod_p(image, n, p) == reference_full_rank_mod_p(target, _FAST)
        assert _regular_mod_p(image, n, p) == (corner == 1)
        # e = 1 shifts by p - 1 instead and tests target - I
        assert _regular_mod_p(image, n, 1) == reference_full_rank_mod_p(
            target - Matrix.identity(n), _FAST
        )
