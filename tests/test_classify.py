"""The fraction-free classify and rank_one_factor against the reference.

reference.classify is built from the definitions: the identity when
L = I; otherwise the map is A -> S @ A @ T (or A -> S @ A.T @ T) exactly
when realign(L) (realign(L @ K)) has rank one, vec(S) @ vec(T).T, and it
is tagged when T @ S is a nonzero multiple of I. classify and
rank_one_factor must give exactly what it gives, also on maps whose rows
have very different scales, where the one common scale of L sits far
above the scale of any one row.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fixpres import (
    GaussianRational,
    Matrix,
    SuperOp,
    classify,
    derive_rng,
    identity_superop,
    random_invertible,
    random_matrix,
    similarity_superop,
    transpose_similarity_superop,
)
from fixpres.preserver import IDENTITY, SIMILARITY, TRANSPOSE_SIMILARITY, UNSTRUCTURED
from fixpres.scalars import ONE
from fixpres.superop import (
    NotRankOne,
    precompose_transpose,
    realign,
    unvec,
)

import reference
from conftest import (
    classification_rows,
    factor,
    prime_row_random,
    prime_row_similarity,
    prime_rows,
    row_vector,
    sandwich,
)


# ---------------------------------------------------------------------------
# inputs: every random entry has an imaginary part and a denominator drawn
# from the package's fuzzing distribution

I_UNIT = GaussianRational(0, 1)
SCALES = {"1": ONE, "-1": -ONE, "2": GaussianRational(2), "i": I_UNIT}


def _singular(rng, n: int) -> Matrix:
    """A random n x n matrix of rank n - 1."""
    return random_matrix(rng, n, n - 1) @ random_matrix(rng, n - 1, n)


def _moved(m: Matrix, k: int, delta) -> Matrix:
    """m with delta added to its entry k in row-major order."""
    entries = list(m.entries)
    entries[k] = entries[k] + delta
    return Matrix(m.rows, m.cols, tuple(entries))


def _perturbed(phi: SuperOp, rng) -> SuperOp:
    """phi with one entry of L moved by a random nonzero scalar."""
    k = rng.randrange(len(phi.matrix.entries))
    while True:
        delta = random_matrix(rng, 1, 1)[0, 0]
        if delta:
            return SuperOp(phi.n, _moved(phi.matrix, k, delta))


def _rank_deficient(rng, n: int) -> SuperOp:
    side = n * n
    k = rng.randrange(side)
    return SuperOp(n, random_matrix(rng, side, k) @ random_matrix(rng, k, side))


FAMILIES = {
    "identity": lambda rng, n: identity_superop(n),
    # L's real rows are the identity's; only an imaginary part differs
    "identity-times-1+i": lambda rng, n: similarity_superop(
        Matrix.identity(n), GaussianRational(1, 1)
    ),
    "identity-plus-i-entry": lambda rng, n: SuperOp(
        n, _moved(identity_superop(n).matrix, rng.randrange(n**4), I_UNIT)
    ),
    **{
        f"similarity-{name}": (
            lambda rng, n, scale=scale: similarity_superop(random_invertible(rng, n), scale)
        )
        for name, scale in SCALES.items()
    },
    "transpose-similarity-1": lambda rng, n: transpose_similarity_superop(
        random_invertible(rng, n), 1
    ),
    "transpose-similarity-i": lambda rng, n: transpose_similarity_superop(
        random_invertible(rng, n), I_UNIT
    ),
    "random": lambda rng, n: SuperOp(n, random_matrix(rng, n * n, n * n)),
    "rank-deficient": _rank_deficient,
    "singular-sandwich": lambda rng, n: sandwich(_singular(rng, n), random_invertible(rng, n)),
    "non-scalar-sandwich": lambda rng, n: sandwich(
        random_invertible(rng, n), random_invertible(rng, n)
    ),
    "perturbed-similarity": lambda rng, n: _perturbed(
        similarity_superop(random_invertible(rng, n), 1), rng
    ),
    "prime-row-similarity": lambda rng, n: similarity_superop(
        prime_rows(random_invertible(rng, n)), 1
    ),
    "prime-row-transpose-similarity": lambda rng, n: transpose_similarity_superop(
        prime_rows(random_invertible(rng, n)), 1
    ),
    "prime-row-random": lambda rng, n: SuperOp(n, prime_rows(random_matrix(rng, n * n, n * n))),
}


# ---------------------------------------------------------------------------
# classify

@pytest.mark.parametrize("family", list(FAMILIES))
@given(n=st.integers(1, 4), seed=st.integers(0, 2**32))
def test_classify_matches_reference(family, n, seed):
    phi = FAMILIES[family](derive_rng(seed, "classify-reference", family, n), n)
    result = classify(phi)
    assert classification_rows(result) == reference.classify(reference.rows(phi.matrix), n)
    # a structured result is the map itself: its form rebuilds L exactly
    rebuild = {
        SIMILARITY: similarity_superop,
        TRANSPOSE_SIMILARITY: transpose_similarity_superop,
    }.get(result.tag)
    if rebuild is not None:
        assert rebuild(result.s, result.scale) == phi


@pytest.mark.parametrize(
    "family, tag",
    [
        ("identity", IDENTITY),
        ("identity-times-1+i", SIMILARITY),
        ("identity-plus-i-entry", UNSTRUCTURED),
        ("similarity-i", SIMILARITY),
        ("transpose-similarity-1", TRANSPOSE_SIMILARITY),
        ("non-scalar-sandwich", UNSTRUCTURED),
        ("perturbed-similarity", UNSTRUCTURED),
        ("prime-row-similarity", SIMILARITY),
        ("prime-row-transpose-similarity", TRANSPOSE_SIMILARITY),
        ("prime-row-random", UNSTRUCTURED),
    ],
)
def test_families_reach_their_branch(family, tag, bareiss_passes):
    # The property above compares only; this pins that each branch is hit,
    # with no exact elimination on the way.
    phi = FAMILIES[family](derive_rng(0, "classify-reference", family, 3), 3)
    bareiss_passes.clear()
    result = classify(phi)
    assert bareiss_passes == []
    assert classification_rows(result) == reference.classify(reference.rows(phi.matrix), 3)
    assert result.tag == tag


# ---------------------------------------------------------------------------
# rank_one_factor: rows over one common scale, far above some rows' own

def _row_denominators():
    """Rank one; every row carries its own denominators."""
    u = Matrix.column([
        1,
        Fraction(1, 2),
        GaussianRational(Fraction(1, 3), Fraction(1, 5)),
        0,
        GaussianRational(0, Fraction(2, 7)),
    ])
    return u @ row_vector([Fraction(3, 4), GaussianRational(1, -1), Fraction(-5, 6), 2])


def _imaginary_anchor():
    """Rank one with a purely imaginary first nonzero entry."""
    u = Matrix.column([1, GaussianRational(Fraction(2, 3), 1), Fraction(-1, 5)])
    return u @ row_vector([
        GaussianRational(0, Fraction(1, 2)),
        Fraction(1, 3),
        0,
        GaussianRational(Fraction(7, 2), Fraction(-1, 9)),
    ])


def _anchor_off_axes():
    """Rank one with its first nonzero entry at (2, 1)."""
    u = Matrix.column(
        [0, 0, GaussianRational(0, Fraction(3, 2)), GaussianRational(1, Fraction(-1, 3))]
    )
    return u @ row_vector([0, Fraction(2, 3), 5, GaussianRational(0, -1)])


def _last_minor(delta):
    """_row_denominators with delta added at the last entry: rank two, and
    every minor through the anchor vanishes but the last."""
    m = _row_denominators()
    return _moved(m, len(m.entries) - 1, delta)


@pytest.mark.parametrize(
    "m",
    [
        _row_denominators(),
        _imaginary_anchor(),
        _anchor_off_axes(),
        _last_minor(Fraction(1, 7)),
        _last_minor(GaussianRational(0, Fraction(1, 7))),
        Matrix.zeros(2, 3),
        realign(prime_row_similarity(3)),
        realign(prime_row_random(3)),
    ],
    ids=[
        "row-denominators",
        "imaginary-anchor",
        "anchor-off-axes",
        "rank-two-last-minor",
        "rank-two-last-minor-imaginary",
        "zero",
        "prime-row-similarity",
        "prime-row-random",
    ],
)
def test_rank_one_factor_matches_reference(m):
    rows = reference.rows(m)
    expected = reference.rank_one(rows)
    if expected is None:
        with pytest.raises(NotRankOne) as got:
            factor(m)
        assert str(got.value) == _first_nonzero_minor(rows)
        return
    assert [reference.rows(x) for x in factor(m)] == list(expected)


def _first_nonzero_minor(m: list) -> str:
    """NotRankOne's message: the first 2 x 2 minor, row by row, through the
    first nonzero entry of m that does not vanish."""
    cells = [(i, j) for i, row in enumerate(m) for j, z in enumerate(row) if z != reference.ZERO]
    if not cells:
        return "the zero matrix has rank 0"
    (i0, j0), mul = cells[0], reference.mul
    i, j = next((i, j) for i in range(i0 + 1, len(m)) for j in range(len(m[0]))
                if mul(m[i][j], m[i0][j0]) != mul(m[i][j0], m[i0][j]))
    return f"the minor at rows {i0}, {i} and columns {j0}, {j} is nonzero"


def test_last_minor_cases_fail_at_the_last_entry():
    for delta in (Fraction(1, 7), GaussianRational(0, Fraction(1, 7))):
        m = _last_minor(delta)
        with pytest.raises(NotRankOne, match=f"rows 0, {m.rows - 1} and columns 0, {m.cols - 1}"):
            factor(m)


# ---------------------------------------------------------------------------
# the sandwich on every unit, by the reference, against the rank-one test
# that classify runs in its place: a passing rank-one test proves the
# sandwich on every unit, and a map that fails on some unit fails the
# rank-one test

def _units_case(n: int, transpose_first: bool) -> tuple[Matrix, Matrix, Matrix]:
    """(L, S, T) with L the matrix of A -> S @ A @ T, or of A -> S @ A.T @ T
    with transpose_first."""
    rng = derive_rng(0, "units", n)
    s, t = random_matrix(rng, n, n), random_matrix(rng, n, n)
    l = sandwich(s, t).matrix
    return (precompose_transpose(l, n) if transpose_first else l), s, t


def _on_units(phi: SuperOp, s: Matrix, t: Matrix, transpose_first: bool) -> bool:
    """Whether phi(E_ij) = S @ E_ij @ T (S @ E_ji @ T with transpose_first)
    on every unit, by the reference: whether L is kron(T.T, S) (times K)."""
    t_t = [list(column) for column in zip(*reference.rows(t))]
    l = reference.kron(t_t, reference.rows(s))
    if transpose_first:
        l = reference.precompose_transpose(l, phi.n)
    return reference.rows(phi.matrix) == l


def _gathered(phi: SuperOp, transpose_first: bool) -> Matrix:
    """The matrix whose rank one classify tests in the given branch."""
    n = phi.n
    return realign(SuperOp(n, precompose_transpose(phi.matrix, n)) if transpose_first else phi)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("transpose_first", [False, True])
def test_units_check_accepts_the_sandwich(n, transpose_first):
    l, s, t = _units_case(n, transpose_first)
    phi = SuperOp(n, l)
    assert _on_units(phi, s, t, transpose_first)
    u, v = factor(_gathered(phi, transpose_first))
    assert _on_units(phi, unvec(u, n), unvec(v, n), transpose_first)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("transpose_first", [False, True])
@pytest.mark.parametrize(
    "where, delta",
    [
        ("first", ONE),
        ("last", Fraction(1, 5)),
        ("middle", GaussianRational(0, Fraction(1, 7))),
    ],
    ids=["first", "last", "imaginary-only"],
)
def test_units_check_rejects_one_moved_entry(n, transpose_first, where, delta):
    l, s, t = _units_case(n, transpose_first)
    k = {"first": 0, "last": len(l.entries) - 1, "middle": len(l.entries) // 2 + 1}[where]
    phi = SuperOp(n, _moved(l, k, delta))
    assert not _on_units(phi, s, t, transpose_first)
    with pytest.raises(NotRankOne):
        factor(_gathered(phi, transpose_first))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("transpose_first", [False, True])
def test_units_check_tells_the_two_gathers_apart(n, transpose_first):
    l, s, t = _units_case(n, not transpose_first)
    phi = SuperOp(n, l)
    assert not _on_units(phi, s, t, transpose_first)
    with pytest.raises(NotRankOne):
        factor(_gathered(phi, transpose_first))
