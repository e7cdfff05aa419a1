"""Superoperators on M_n: vectorization, realignment, rank-one recovery.

The realignment permutation is pinned down by its defining property: maps
of the form A -> S A T must realign to the rank-one matrix vec(S) vec(T)^T.
The brute-force oracle below enumerates that identity directly instead of
trusting any index formula.
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
    transpose_similarity_superop,
    transpose_superop,
)
from fixpres import linalg
from fixpres.linalg import _FAST, _WIDE, _bareiss, _full_rank_mod_p, inverse, kron, rank
from fixpres.superop import NotRankOne, _vec_mod_p, unvec, vec

from conftest import (
    FALLBACK_OFFSETS,
    dependent_row_map,
    factor,
    matrices,
    prime_row_random,
    prime_row_similarity,
    prime_rows,
    packed_rows,
    reference_full_rank_mod_p,
    row_vector,
    sandwich,
    superop_from_action,
    vec_mod_p,
)


def compose(outer: SuperOp, inner: SuperOp) -> SuperOp:
    """The map A -> outer(inner(A))."""
    return SuperOp(outer.n, outer.matrix @ inner.matrix)


def realign_inverse(m: Matrix, n: int) -> Matrix:
    """Inverse of the realign shuffle: recovers L from realign's output."""
    side = n * n
    out = [None] * (side * side)
    for g in range(n):
        for a in range(n):
            for b in range(n):
                for d in range(n):
                    out[(b * n + a) * side + d * n + g] = m[g * n + a, b * n + d]
    return Matrix(side, side, tuple(out))


# ---------------------------------------------------------------------------
# vec / unvec

def test_vec_is_column_stacking():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    assert [str(vec(a)[k, 0]) for k in range(4)] == ["1", "3", "2", "4"]


@given(st.integers(0, 50))
def test_unvec_inverts_vec(seed):
    rng = derive_rng(seed, "vec")
    a = random_matrix(rng, 3, 3)
    assert unvec(vec(a), 3) == a


def test_unvec_rejects_wrong_length():
    with pytest.raises(SizeMismatch):
        unvec(Matrix.column([1, 2, 3]), 2)


# ---------------------------------------------------------------------------
# building superoperators

def test_identity_superop_fixes_all():
    phi = identity_superop(2)
    a = Matrix.from_rows([[1, 2], [3, 4]])
    assert phi.apply(a) == a


def test_transpose_superop_transposes():
    phi = transpose_superop(3)
    a = Matrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert phi.apply(a) == a.transpose()


def test_superop_side_validation():
    with pytest.raises(ValueError):
        SuperOp(2, Matrix.zeros(3, 3))


def test_apply_rejects_wrong_side():
    phi = identity_superop(2)
    with pytest.raises(SizeMismatch):
        phi.apply(Matrix.zeros(3, 3))


def test_superop_from_action_matches_action():
    s = Matrix.from_rows([[1, 1], [0, 1]])
    t = Matrix.from_rows([[2, 0], [1, 1]])
    phi = superop_from_action(2, lambda a: s @ a @ t)
    probe = Matrix.from_rows([[5, -1], [0, 3]])
    assert phi.apply(probe) == s @ probe @ t


def test_similarity_superop_action():
    s = Matrix.from_rows([[1, 1, 0], [0, 1, 0], [2, 0, 1]])
    phi = similarity_superop(s, 1)
    a = Matrix.from_rows([[1, 0, 2], [0, 3, 0], [1, 1, 1]])
    assert phi.apply(a) == s @ a @ inverse(s)


def test_similarity_superop_is_kron_of_inverse_transpose_and_s():
    s = Matrix.from_rows([[1, 1], [1, 2]])
    phi = similarity_superop(s, 1)
    assert phi.matrix == kron(inverse(s).transpose(), s)


def test_transpose_similarity_action():
    s = Matrix.from_rows([[1, 1], [0, 1]])
    phi = transpose_similarity_superop(s, 1)
    a = Matrix.from_rows([[1, 2], [3, 4]])
    assert phi.apply(a) == s @ a.transpose() @ inverse(s)


def test_compose_is_function_composition():
    s = Matrix.from_rows([[1, 1], [0, 1]])
    phi = similarity_superop(s, 1)
    tau = transpose_superop(2)
    a = Matrix.from_rows([[1, 2], [3, 4]])
    assert compose(phi, tau).apply(a) == phi.apply(tau.apply(a))


def test_bijectivity():
    assert is_bijective(identity_superop(3))
    rank_one_action = superop_from_action(
        2, lambda a: a[0, 0] * Matrix.unit(2, 0, 0)
    )
    assert not is_bijective(rank_one_action)


# ---------------------------------------------------------------------------
# bijectivity: the mod-p certificate and its exact fallback

def _count_exact_ranks(monkeypatch) -> list:
    """The (rows, columns) of each exact elimination is_bijective runs."""
    calls = []

    def counted(re, im, n_cols, reduce):
        calls.append((len(re), n_cols))
        return _bareiss(re, im, n_cols, reduce)

    monkeypatch.setattr(linalg, "_bareiss", counted)
    return calls


def _no_exact_rank(monkeypatch) -> None:
    def unused(*args):
        raise AssertionError("the exact rank should not be needed")

    monkeypatch.setattr(linalg, "_bareiss", unused)


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
def test_bijective_map_singular_mod_p_falls_back_to_exact_rank(corner, monkeypatch):
    # Both corners are nonzero over Q(i) but vanish mod both primes: their
    # product p1 * p2, and (r1 - i)(r2 - i), with r1 and r2 the square
    # roots of -1 that each field sends i to.
    phi = _identity_with_corner(2, corner)
    for field in (_FAST, _WIDE):
        assert not _full_rank_mod_p(packed_rows(phi.matrix, field), field)
    calls = _count_exact_ranks(monkeypatch)
    assert is_bijective(phi)
    assert calls == [(4, 4)]


# Full rank of L mod the fast prime and mod the wide one, for each kind of
# conftest.dependent_row_map.
_FALLBACK_RANKS = {
    "fast-only": (False, True),
    "wide-only": (True, False),
    "both": (False, False),
    "singular": (False, False),
}


@pytest.mark.parametrize("kind", sorted(FALLBACK_OFFSETS))
def test_is_bijective_tries_the_fast_prime_then_the_wide_one_then_bareiss(kind, monkeypatch):
    """Only an L singular mod both primes takes the exact pass: one
    singular mod one prime alone is proved bijective by the other."""
    phi = dependent_row_map(3, FALLBACK_OFFSETS[kind])
    l = phi.matrix
    ranks = (reference_full_rank_mod_p(l, _FAST), reference_full_rank_mod_p(l, _WIDE))
    assert ranks == _FALLBACK_RANKS[kind]
    calls = _count_exact_ranks(monkeypatch)
    assert is_bijective(phi) == (kind != "singular")
    assert calls == ([(9, 9)] if kind in ("both", "singular") else [])


def test_map_singular_mod_the_fast_prime_alone_at_n_16(monkeypatch):
    phi = dependent_row_map(16, FALLBACK_OFFSETS["fast-only"])
    assert not _full_rank_mod_p(phi._residue_columns, _FAST)
    _no_exact_rank(monkeypatch)
    assert is_bijective(phi)


def test_rank_deficient_map_is_not_bijective(monkeypatch):
    phi = _identity_with_corner(3, GaussianRational(0))
    calls = _count_exact_ranks(monkeypatch)
    assert not is_bijective(phi)
    assert calls == [(9, 9)]


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


def test_bijective_similarity_is_decided_by_the_certificate(monkeypatch):
    s = random_invertible(derive_rng(0, "certificate"), 6)
    phi = similarity_superop(s, 1)
    _no_exact_rank(monkeypatch)
    assert is_bijective(phi)


@pytest.mark.parametrize("make", [prime_row_similarity, prime_row_random])
def test_prime_row_maps_are_decided_by_the_certificate(make, monkeypatch):
    # L's common scale is far above each row's own; full rank mod p holds
    # for the common-scale rows just as it does for rows over their own scale.
    phi = make(4)
    assert _full_rank_mod_p(packed_rows(phi.matrix, _FAST), _FAST)
    _no_exact_rank(monkeypatch)
    assert is_bijective(phi)


def test_singular_prime_row_map_falls_back_to_one_exact_rank(monkeypatch):
    phi = SuperOp(3, _prime_row_singular(3))
    calls = _count_exact_ranks(monkeypatch)
    assert not is_bijective(phi)
    assert calls == [(9, 9)]


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


@given(st.integers(0, 50))
def test_realign_of_similarity_is_rank_one(seed):
    rng = derive_rng(seed, "sim-rank")
    s = random_invertible(rng, 3)
    assert rank(realign(similarity_superop(s, 1))) == 1


def test_realign_of_identity_is_rank_one():
    # identity is A -> I A I, so it realigns to vec(I) vec(I)^T
    m = realign(identity_superop(3))
    assert rank(m) == 1
    assert m == vec(Matrix.identity(3)) @ vec(Matrix.identity(3)).transpose()


def test_realign_of_transpose_map_has_full_rank():
    # the transpose map is as far from a sandwich map as possible
    assert rank(realign(transpose_superop(3))) == 9


@given(st.integers(0, 50))
def test_realign_round_trip(seed):
    rng = derive_rng(seed, "round")
    l = random_matrix(rng, 9, 9)
    phi = SuperOp(3, l)
    assert realign_inverse(realign(phi), 3) == l


def test_realign_is_not_an_involution_but_has_order_three():
    """The index permutation has order 3; applying it twice is the inverse."""
    rng = derive_rng(99, "order3")
    l = random_matrix(rng, 4, 4)
    once = realign(SuperOp(2, l))
    twice = realign(SuperOp(2, once))
    thrice = realign(SuperOp(2, twice))
    assert thrice == l
    assert twice == realign_inverse(l, 2)


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


def _rank_based_factor(m):
    """rank_one_factor as it was built on an elimination: the reference."""
    r = rank(m)
    if r != 1:
        raise NotRankOne(f"rank is {r}")
    lead = next(idx for idx, val in enumerate(m.entries) if val)
    i0, j0 = divmod(lead, m.cols)
    anchor = m[i0, j0]
    u = Matrix(m.rows, 1, tuple(m[i, j0] / anchor for i in range(m.rows)))
    v = Matrix(m.cols, 1, tuple(m[i0, j] for j in range(m.cols)))
    return u, v


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
    try:
        expected = _rank_based_factor(m)
    except NotRankOne:
        with pytest.raises(NotRankOne):
            factor(m)
        return
    assert factor(m) == expected


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
