"""The full-rank test mod p on rows packed into 64-bit fields, against
the per-entry reference, and the prime and the packing it rests on.

conftest.reference_full_rank_mod_p is _full_rank_mod_p as it was written
before rows were packed into ints: one (x - f*y) % p per entry. Rank mod
p does not depend on how the elimination is organised, so the two must
agree on every square matrix, including the packed residue columns of a
map's L over its one common scale, which is what is_bijective eliminates.
"""

import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fixpres import GaussianRational, Matrix, random_matrix, transpose_superop
from fixpres.linalg import (
    _P,
    _SQRT_MINUS_ONE,
    _fields,
    _full_rank_mod_p,
    _packed,
)
from fixpres.scalars import ONE, ZERO
from fixpres.superop import MAX_SIDE

from conftest import (
    packed_rows,
    prime_row_random,
    prime_row_similarity,
    reference_full_rank_mod_p,
)


# ---------------------------------------------------------------------------
# the prime and the packing

def test_prime_has_a_square_root_of_minus_one_and_fits_the_fields():
    assert all(_P % k for k in range(2, isqrt(_P) + 1))
    assert _P % 4 == 1
    assert pow(_SQRT_MINUS_ONE, 2, _P) == _P - 1
    # a field of an image starts below N * p**2 + p and takes at most
    # n - 1 products below p**2; one of L starts below p and takes N - 1
    assert (MAX_SIDE**2 + MAX_SIDE) * _P**2 < 2**64


@pytest.mark.parametrize("length", [1, 5, 256])
def test_packing_matches_shift_and_add(length):
    rng = random.Random(length)
    values = [rng.choice([0, 1, _P - 1, rng.randrange(2**64)]) for _ in range(length - 1)]
    values.append(2**64 - 1)
    rng.shuffle(values)
    packed = sum(x << 64 * k for k, x in enumerate(values))
    assert _packed(values) == packed
    assert list(_fields(packed, length)) == values


# ---------------------------------------------------------------------------
# property: agreement up to N = 36

# p and r - i (i -> r) are nonzero over Q(i) but vanish mod p; p - 1 is -1.
_SPECIAL = (
    GaussianRational(_P),
    GaussianRational(_SQRT_MINUS_ONE, -1),
    GaussianRational(_P - 1),
)
# Sparse entries whose residues collide often: about a fifth of such
# matrices with sides up to 10 are singular mod p but invertible over Q(i).
_COLLIDING = _SPECIAL + (
    ZERO, ZERO, ZERO, ONE, -ONE, GaussianRational(Fraction(1, 2)), GaussianRational(0, 1)
)


@st.composite
def square_matrices_mod_p(draw):
    """Random N x N matrices, rank-deficient products of N x k and k x N
    factors with k < N, and sparse matrices of colliding entries, for
    N <= 36."""
    side = draw(st.integers(1, 36))
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["random", "product", "colliding"]))
    if kind == "random":
        m = random_matrix(rng, side, side)
        entries = list(m.entries)
        for _ in range(draw(st.integers(0, 3))):
            entries[rng.randrange(side * side)] = rng.choice(_SPECIAL)
        return Matrix(side, side, tuple(entries))
    if kind == "product":
        k = rng.randrange(side)
        return random_matrix(rng, side, k) @ random_matrix(rng, k, side)
    return Matrix(side, side, tuple(rng.choice(_COLLIDING) for _ in range(side * side)))


@given(square_matrices_mod_p())
@example(prime_row_similarity(4).matrix)
@example(prime_row_random(4).matrix)
def test_full_rank_mod_p_agrees_with_reference(m):
    assert _full_rank_mod_p(packed_rows(m)) == reference_full_rank_mod_p(m)


# ---------------------------------------------------------------------------
# pinned cases

@pytest.mark.parametrize("make", [prime_row_similarity, prime_row_random])
@pytest.mark.parametrize("n", [3, 4])
def test_common_scale_residues_agree_with_reference(make, n):
    # Every row of L is over the lcm of all rows' scales, far above its own.
    phi = make(n)
    assert _full_rank_mod_p(phi._residue_columns) == reference_full_rank_mod_p(phi.matrix)


def test_row_swaps_at_every_column():
    m = transpose_superop(4).matrix
    assert _full_rank_mod_p(packed_rows(m))
    assert reference_full_rank_mod_p(m)


def test_first_column_nonzero_mod_p_only_in_the_last_row():
    # Rows k < N - 1 are e_(k+1) plus an entry in column 0 that vanishes
    # mod p; the last row is e_0.
    side = 6
    zero_mod_p = (GaussianRational(_P), GaussianRational(_SQRT_MINUS_ONE, -1), GaussianRational(0))
    rows = [
        [zero_mod_p[k % 3] if j == 0 else GaussianRational(int(j == k + 1)) for j in range(side)]
        for k in range(side - 1)
    ]
    rows.append([GaussianRational(int(j == 0)) for j in range(side)])
    m = Matrix.from_rows(rows)
    assert _full_rank_mod_p(packed_rows(m))
    assert reference_full_rank_mod_p(m)


def test_lower_triangle_of_p_minus_one_at_n_256():
    side = 256
    m = Matrix.from_rows(
        [[_P - 1 if j <= i else 0 for j in range(side)] for i in range(side)]
    )
    assert _full_rank_mod_p(packed_rows(m))


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
    assert _full_rank_mod_p(packed_rows(_lu_with_corner(256, 1)))
    # det = corner = p: invertible over Q(i), singular mod p, decided by
    # the last field after its 255 additions.
    assert not _full_rank_mod_p(packed_rows(_lu_with_corner(256, _P)))


def test_growth_bound_matrices_agree_with_reference_at_n_36():
    for corner in (1, _P):
        m = _lu_with_corner(36, corner)
        assert _full_rank_mod_p(packed_rows(m)) == reference_full_rank_mod_p(m) == (corner == 1)
