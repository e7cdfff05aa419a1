"""Superoperators on M_n: shape checks, bijectivity, realignment and
rank-one recovery.

is_bijective must agree with the exact rank, through its certificates
mod p and their exact fallback, whose eliminations bareiss_passes
records. The realignment is pinned by its defining property: a map
A -> S A T must realign to the rank-one matrix vec(S) vec(T)^T, checked
entry by entry without any index formula (test_layout compares realign
with the reference's formula). The rank-one factorization is compared
with the reference's.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from fixpres import (
    GaussianRational,
    Matrix,
    SizeMismatch,
    SuperOp,
    derive_rng,
    identity_superop,
    is_bijective,
    random_invertible,
    random_matrix,
    realign,
    similarity_superop,
    transpose_superop,
)
from fixpres.linalg import _FAST, _WIDE, _full_rank_mod_p, rank
from fixpres.superop import NotRankOne, _vec_mod_p, unvec, vec

import reference
from conftest import (
    FALLBACK_OFFSETS,
    dependent_row_map,
    factor,
    full_rank_mod,
    matrices,
    prime_row_random,
    prime_row_similarity,
    prime_rows,
    packed_rows,
    row_vector,
    sandwich,
    superop_from_action,
    vec_mod_p,
)


# ---------------------------------------------------------------------------
# shapes

def test_unvec_rejects_wrong_length():
    with pytest.raises(SizeMismatch):
        unvec(Matrix.column([1, 2, 3]), 2)


def test_superop_side_validation():
    with pytest.raises(ValueError):
        SuperOp(2, Matrix.zeros(3, 3))


def test_apply_rejects_wrong_side():
    phi = identity_superop(2)
    with pytest.raises(SizeMismatch):
        phi.apply(Matrix.zeros(3, 3))


# ---------------------------------------------------------------------------
# bijectivity: the mod-p certificate and its exact fallback

def test_bijectivity():
    assert is_bijective(identity_superop(3))
    rank_one_action = superop_from_action(
        2, lambda a: a[0, 0] * Matrix.unit(2, 0, 0)
    )
    assert not is_bijective(rank_one_action)


def _identity_with_corner(n: int, corner: GaussianRational) -> SuperOp:
    side = n * n
    entries = list(Matrix.identity(side).entries)
    entries[-1] = corner
    return SuperOp(n, Matrix(side, side, tuple(entries)))


@pytest.mark.parametrize(
    "corner",
    [
        GaussianRational(_FAST.p * _WIDE.p),
        GaussianRational(_FAST.root * _WIDE.root - 1, -_FAST.root - _WIDE.root),
    ],
    ids=["p", "sqrt(-1) - i"],
)
def test_bijective_map_singular_mod_p_falls_back_to_exact_rank(corner, bareiss_passes):
    # Both corners are nonzero over Q(i) but vanish mod both primes: their
    # product p1 * p2, and (r1 - i)(r2 - i), with r1 and r2 the square
    # roots of -1 that each field sends i to.
    phi = _identity_with_corner(2, corner)
    for field in (_FAST, _WIDE):
        assert not _full_rank_mod_p(packed_rows(phi.matrix, field), field)
    bareiss_passes.clear()
    assert is_bijective(phi)
    assert bareiss_passes == [(4, 4, False)]


# Full rank of L mod the fast prime and mod the wide one, for each kind of
# conftest.dependent_row_map.
_FALLBACK_RANKS = {
    "fast-only": (False, True),
    "wide-only": (True, False),
    "both": (False, False),
    "singular": (False, False),
}


@pytest.mark.parametrize("kind", sorted(FALLBACK_OFFSETS))
def test_is_bijective_tries_the_fast_prime_then_the_wide_one_then_bareiss(kind, bareiss_passes):
    """Only an L singular mod both primes takes the exact pass: one
    singular mod one prime alone is proved bijective by the other."""
    phi = dependent_row_map(3, FALLBACK_OFFSETS[kind])
    l = phi.matrix
    assert (full_rank_mod(l, _FAST), full_rank_mod(l, _WIDE)) == _FALLBACK_RANKS[kind]
    bareiss_passes.clear()
    assert is_bijective(phi) == (kind != "singular")
    assert bareiss_passes == ([(9, 9, False)] if kind in ("both", "singular") else [])


def test_map_singular_mod_the_fast_prime_alone_at_n_16(bareiss_passes):
    phi = dependent_row_map(16, FALLBACK_OFFSETS["fast-only"])
    assert not _full_rank_mod_p(phi._residue_columns, _FAST)
    bareiss_passes.clear()
    assert is_bijective(phi)
    assert bareiss_passes == []


def test_rank_deficient_map_is_not_bijective(bareiss_passes):
    phi = _identity_with_corner(3, GaussianRational(0))
    bareiss_passes.clear()
    assert not is_bijective(phi)
    assert bareiss_passes == [(9, 9, False)]


@st.composite
def superop_matrices(draw):
    """Random n^2 x n^2 matrices, and rank-deficient products of
    n^2 x k and k x n^2 factors with k < n^2."""
    n = draw(st.integers(1, 3))
    side = n * n
    if draw(st.booleans()):
        return n, draw(matrices(rows=side, cols=side))
    k = draw(st.integers(0, side - 1))
    return n, draw(matrices(rows=side, cols=k)) @ draw(matrices(rows=k, cols=side))


def _prime_row_singular(n: int) -> Matrix:
    """A rank-deficient L whose row r is divided by the r-th prime."""
    rng = derive_rng(0, "prime-rows-singular", n)
    side = n * n
    return prime_rows(random_matrix(rng, side, side - 1) @ random_matrix(rng, side - 1, side))


@given(superop_matrices())
@example((3, prime_row_similarity(3).matrix))
@example((3, prime_row_random(3).matrix))
@example((3, _prime_row_singular(3)))
def test_is_bijective_agrees_with_exact_rank(case):
    n, m = case
    assert is_bijective(SuperOp(n, m)) == (rank(m) == n * n)


def test_bijective_similarity_is_decided_by_the_certificate(bareiss_passes):
    s = random_invertible(derive_rng(0, "certificate"), 6)
    phi = similarity_superop(s, 1)
    bareiss_passes.clear()
    assert is_bijective(phi)
    assert bareiss_passes == []


@pytest.mark.parametrize("make", [prime_row_similarity, prime_row_random])
def test_prime_row_maps_are_decided_by_the_certificate(make, bareiss_passes):
    # L's common scale is far above each row's own; full rank mod p holds
    # for the common-scale rows just as it does for rows over their own scale.
    phi = make(4)
    assert _full_rank_mod_p(packed_rows(phi.matrix, _FAST), _FAST)
    bareiss_passes.clear()
    assert is_bijective(phi)
    assert bareiss_passes == []


def test_singular_prime_row_map_falls_back_to_one_exact_rank(bareiss_passes):
    phi = SuperOp(3, _prime_row_singular(3))
    bareiss_passes.clear()
    assert not is_bijective(phi)
    assert bareiss_passes == [(9, 9, False)]


# ---------------------------------------------------------------------------
# realignment: defining property, brute-force oracle

@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", range(10))
def test_realign_oracle_sandwich_maps(n, seed):
    """realign(A -> S A T) must equal vec(S) vec(T)^T, entry by entry."""
    rng = derive_rng(seed, "oracle", n)
    s = random_matrix(rng, n, n)
    t = random_matrix(rng, n, n)
    m = realign(sandwich(s, t))
    expected = vec(s) @ vec(t).transpose()
    assert m == expected


def test_realign_of_transpose_map_has_full_rank():
    # the transpose map is as far from a sandwich map as possible
    assert rank(realign(transpose_superop(3))) == 9


# ---------------------------------------------------------------------------
# rank-one factoring

def test_rank_one_factor_recovers_gauge_normalized_pair():
    u0 = Matrix.column([2, 4])
    v0 = row_vector([3, 5]).transpose()
    m = u0 @ v0.transpose()
    u, v = factor(m)
    # first nonzero of u is scaled to one; the product is unchanged
    assert str(u[0, 0]) == "1"
    assert u @ v.transpose() == m


def test_rank_one_factor_rejects_other_ranks():
    with pytest.raises(NotRankOne):
        factor(Matrix.zeros(2, 2))
    with pytest.raises(NotRankOne):
        factor(Matrix.identity(2))


def _outer_plus_corner():
    """Rank two, yet every minor through the anchor vanishes but the last."""
    u = Matrix.column([1, 2, -3, Fraction(1, 2), 4, 5])
    outer = u @ row_vector([2, 1, Fraction(1, 3), 7, -1, 3])
    return outer + Matrix.unit(6, 5, 5)


def _offset_anchor():
    """Rank one with its first nonzero entry at (1, 2)."""
    i = GaussianRational(0, 1)
    u = Matrix.column([0, 2, 1 + i, 0])
    return u @ row_vector([0, 0, 3, Fraction(1, 2), -i])


@pytest.mark.parametrize(
    "m",
    [_outer_plus_corner(), Matrix.zeros(3, 4), _offset_anchor()],
    ids=["rank-two-late-minor", "zero", "offset-anchor"],
)
def test_rank_one_factor_matches_rank_based_reference(m):
    expected = reference.rank_one(reference.rows(m))
    if expected is None:
        with pytest.raises(NotRankOne):
            factor(m)
        return
    assert [reference.rows(x) for x in factor(m)] == list(expected)


@given(st.integers(0, 50))
def test_rank_one_factor_round_trip(seed):
    rng = derive_rng(seed, "factor")
    u0 = Matrix.column([rng.randint(-5, 5) for _ in range(4)])
    v0 = Matrix.column([rng.randint(-5, 5) for _ in range(4)])
    if u0.is_zero or v0.is_zero:
        return
    m = u0 @ v0.transpose()
    u, v = factor(m)
    assert u @ v.transpose() == m


@given(st.integers(1, 6), st.integers(0, 2**32))
def test_vec_mod_p_is_the_residues_of_the_columns(n, seed):
    """_vec_mod_p reduces vec(A) in one pass; it equals the residues of A's
    columns one after another, on complex matrices over a scale d > 1."""
    a = prime_rows(random_matrix(derive_rng(seed, "vec-mod-p"), n, n))
    assume(a.d > 1)
    assert _vec_mod_p(a) == vec_mod_p(a, _FAST)
