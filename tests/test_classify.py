"""The fraction-free classify against the GaussianRational reference.

The references below are rank_one_factor and classify as they were
written over GaussianRational: one scalar product per side of each 2x2
minor, and the Matrix triple product S @ E_ij @ T on every matrix unit.
classify and rank_one_factor must give exactly what they give, also on
maps whose rows have very different scales, where the one common scale of
L sits far above the scale of any one row.

The reference classify still takes the rank of S and checks every matrix
unit, which classify no longer does; equal results on every family show
that neither step could change a classification.
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
from fixpres import linalg
from fixpres.linalg import rank
from fixpres.preserver import (
    IDENTITY,
    SIMILARITY,
    TRANSPOSE_SIMILARITY,
    UNSTRUCTURED,
    Classification,
)
from fixpres.scalars import ONE
from fixpres.superop import (
    NotRankOne,
    precompose_transpose,
    realign,
    unvec,
)

from conftest import (
    column_at,
    factor,
    prime_row_random,
    prime_row_similarity,
    prime_rows,
    row_vector,
    sandwich,
)


# ---------------------------------------------------------------------------
# reference implementation

def reference_rank_one_factor(m: Matrix) -> tuple[Matrix, Matrix]:
    entries, cols = m.entries, m.cols
    lead = next((idx for idx, val in enumerate(entries) if val), None)
    if lead is None:
        raise NotRankOne("the zero matrix has rank 0")
    i0, j0 = divmod(lead, cols)
    anchor = entries[lead]
    anchor_row = entries[i0 * cols : (i0 + 1) * cols]
    for i in range(i0 + 1, m.rows):
        row = entries[i * cols : (i + 1) * cols]
        left = row[j0]
        for j, (x, y) in enumerate(zip(row, anchor_row)):
            if x * anchor != left * y:
                raise NotRankOne(f"the minor at rows {i0}, {i} and columns {j0}, {j} is nonzero")
    u = Matrix(m.rows, 1, tuple(entries[i * cols + j0] / anchor for i in range(m.rows)))
    v = Matrix(cols, 1, anchor_row)
    return u, v


def reference_matches_on_units(phi: SuperOp, s: Matrix, t: Matrix, transpose_first: bool) -> bool:
    n = phi.n
    for i in range(n):
        for j in range(n):
            unit = Matrix.unit(n, j, i) if transpose_first else Matrix.unit(n, i, j)
            # the image of E_ij is column j*n + i of L
            if unvec(column_at(phi.matrix, j * n + i), n) != s @ unit @ t:
                return False
    return True


def reference_gauge_candidate(l: Matrix, n: int):
    try:
        u, v = reference_rank_one_factor(realign(SuperOp(n, l)))
    except NotRankOne:
        return None
    s = unvec(u, n)
    t = unvec(v, n)
    if rank(s) < n:
        return None
    ts = t @ s
    scale = ts[0, 0]
    if not scale or ts != scale * Matrix.identity(n):
        return None
    return s, t, scale


def reference_classify(phi: SuperOp) -> Classification:
    n = phi.n
    if phi.matrix == Matrix.identity(n * n):
        return Classification(IDENTITY)
    for tag, l, transpose_first in (
        (SIMILARITY, phi.matrix, False),
        (TRANSPOSE_SIMILARITY, precompose_transpose(phi.matrix, n), True),
    ):
        cand = reference_gauge_candidate(l, n)
        if cand is not None:
            s, t, scale = cand
            if reference_matches_on_units(phi, s, t, transpose_first):
                return Classification(tag, s, scale)
    return Classification(UNSTRUCTURED)


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
    assert result == reference_classify(phi)
    # a structured result is the map itself: its form rebuilds L exactly
    rebuild = {
        SIMILARITY: similarity_superop,
        TRANSPOSE_SIMILARITY: transpose_similarity_superop,
    }.get(result.tag)
    if rebuild is not None:
        assert rebuild(result.s, result.scale) == phi


def _no_elimination(*args, **kwargs):
    raise AssertionError("classify ran an exact elimination")


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
def test_families_reach_their_branch(family, tag, monkeypatch):
    # The property above compares only; this pins that each branch is hit,
    # with no exact elimination on the way.
    phi = FAMILIES[family](derive_rng(0, "classify-reference", family, 3), 3)
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_echelon", _no_elimination)
        result = classify(phi)
    assert result == reference_classify(phi)
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
    try:
        expected = reference_rank_one_factor(m)
    except NotRankOne as exc:
        with pytest.raises(NotRankOne) as got:
            factor(m)
        assert str(got.value) == str(exc)
        return
    assert factor(m) == expected


def test_last_minor_cases_fail_at_the_last_entry():
    for delta in (Fraction(1, 7), GaussianRational(0, Fraction(1, 7))):
        m = _last_minor(delta)
        with pytest.raises(NotRankOne, match=f"rows 0, {m.rows - 1} and columns 0, {m.cols - 1}"):
            factor(m)


# ---------------------------------------------------------------------------
# the all-units check of the reference, against the rank-one test that
# classify runs in its place: a passing rank-one test proves the sandwich on
# every unit, and a map that fails on some unit fails the rank-one test

def _units_case(n: int, transpose_first: bool) -> tuple[Matrix, Matrix, Matrix]:
    """(L, S, T) with L the matrix of A -> S @ A @ T, or of A -> S @ A.T @ T
    with transpose_first."""
    rng = derive_rng(0, "units", n)
    s, t = random_matrix(rng, n, n), random_matrix(rng, n, n)
    l = sandwich(s, t).matrix
    return (precompose_transpose(l, n) if transpose_first else l), s, t


def _gathered(phi: SuperOp, transpose_first: bool) -> Matrix:
    """The matrix whose rank one classify tests in the given branch."""
    n = phi.n
    return realign(SuperOp(n, precompose_transpose(phi.matrix, n)) if transpose_first else phi)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("transpose_first", [False, True])
def test_units_check_accepts_the_sandwich(n, transpose_first):
    l, s, t = _units_case(n, transpose_first)
    phi = SuperOp(n, l)
    assert reference_matches_on_units(phi, s, t, transpose_first)
    u, v = factor(_gathered(phi, transpose_first))
    assert reference_matches_on_units(phi, unvec(u, n), unvec(v, n), transpose_first)


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
    assert not reference_matches_on_units(phi, s, t, transpose_first)
    with pytest.raises(NotRankOne):
        factor(_gathered(phi, transpose_first))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("transpose_first", [False, True])
def test_units_check_tells_the_two_gathers_apart(n, transpose_first):
    l, s, t = _units_case(n, not transpose_first)
    phi = SuperOp(n, l)
    assert not reference_matches_on_units(phi, s, t, transpose_first)
    with pytest.raises(NotRankOne):
        factor(_gathered(phi, transpose_first))
