"""Fixed-point spaces F(A) = ker(A - I): dimension and basis."""

import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import reference
from fixpres import Matrix, NotSquare, Subspace, derive_rng, dim_fixed, fixed_space, random_matrix
from fixpres import linalg
from fixpres.linalg import _WIDE, _echelon, _kernel, _over, rank
from fixpres.preserver import structured_probes
from fixpres.scalars import ONE, ZERO

from conftest import (
    colliding,
    column_at,
    contains,
    matrices,
    null_space,
    prime_rows,
    reference_full_rank_mod_p,
    spanned_by_columns,
    square_matrices,
)


def test_identity_fixes_everything():
    assert dim_fixed(Matrix.identity(4)) == 4
    assert fixed_space(Matrix.identity(4)) == Subspace(4, Matrix.identity(4))


def test_zero_matrix_fixes_nothing():
    assert dim_fixed(Matrix.zeros(3, 3)) == 0


def test_negated_identity_fixes_nothing():
    assert dim_fixed(-Matrix.identity(3)) == 0


def test_projection_fixes_its_range():
    p = Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    space = fixed_space(p)
    assert space.dim == 2
    assert contains(space, Matrix.column([1, 0, 0]))
    assert contains(space, Matrix.column([0, 1, 0]))
    assert not contains(space, Matrix.column([0, 0, 1]))


def test_jordan_block_has_one_fixed_line():
    j = Matrix.from_rows([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    space = fixed_space(j)
    assert space.dim == 1
    assert contains(space, Matrix.column([1, 0, 0]))


def test_shear_in_the_plane():
    shear = Matrix.from_rows([[1, 1], [0, 1]])
    assert dim_fixed(shear) == 1


def test_rejects_rectangular():
    with pytest.raises(NotSquare):
        dim_fixed(Matrix.zeros(2, 3))
    with pytest.raises(NotSquare):
        fixed_space(Matrix.zeros(2, 3))


def test_fixed_vectors_are_actually_fixed():
    a = Matrix.from_rows([[2, -1, 0], [1, 0, 0], [0, 0, 1]])
    space = fixed_space(a)
    for j in range(space.dim):
        v = column_at(space.basis, j)
        assert a @ v == v


@st.composite
def dependent_shifts(draw):
    """I + D for an n x n D whose last row is the sum of its first two, so
    A - I = D is rank-deficient and F(A) is not zero."""
    n = draw(st.integers(3, 4))
    d = draw(matrices(rows=n - 1, cols=n))
    rows = d.to_rows()
    d = Matrix.from_rows(rows + [[x + y for x, y in zip(rows[0], rows[1])]])
    return Matrix.identity(n) + d


@given(st.one_of(square_matrices(max_side=4), dependent_shifts()))
def test_dim_matches_basis_column_count(a):
    """dim_fixed (a forward pass) and fixed_space (a Gauss-Jordan pass)
    agree, also where F(A) is not zero."""
    assert dim_fixed(a) == fixed_space(a).dim


@given(square_matrices(max_side=4))
def test_dim_is_side_minus_rank_of_shift(a):
    """The reference's dim F is n less the rank of A - I, by definition."""
    assert dim_fixed(a) == reference.dim_fixed(reference.rows(a))


@given(st.one_of(square_matrices(max_side=4), dependent_shifts()))
def test_fixed_space_is_kernel_of_shift(a):
    """The diagonal-only A - I agrees with subtracting the full identity,
    whose kernel is read off its rref."""
    assert fixed_space(a) == null_space(a - Matrix.identity(a.rows))


@given(square_matrices(max_side=4))
def test_rank_dominates_fixed_dimension(a):
    assert rank(a) >= dim_fixed(a)


@pytest.mark.parametrize(
    "a",
    [
        Matrix.identity(3),
        Matrix.zeros(3, 3),
        Matrix.from_rows([[1, 1, 0], [0, 1, 1], [0, 0, 1]]),
        Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]]),
        Matrix.from_rows([[2, 1, 0], [0, 3, 1], [2, 4, 2]]),
    ],
    ids=["identity", "zero", "jordan", "projection", "dependent-shift"],
)
def test_fixed_space_eliminates_the_shift_once(a, monkeypatch):
    """One Gauss-Jordan pass of a singular A - I with its columns reversed
    and no other elimination: the kernel vectors of that pass are already
    the canonical basis, which the span of its columns leaves as it is.
    An A - I that the test mod p proves invertible, such as the zero
    matrix's -I, takes no pass at all."""
    calls = []

    def counted(re, im, n_cols, reduce=False):
        calls.append((_over(re, im, a.d, n_cols), reduce))
        return _echelon(re, im, n_cols, reduce)

    monkeypatch.setattr(linalg, "_echelon", counted)
    space = fixed_space(a)
    monkeypatch.undo()
    shifted = a - Matrix.identity(a.rows)
    if reference_full_rank_mod_p(shifted, _WIDE):
        assert (calls, space) == ([], Subspace.zero(a.rows))
    else:
        reversed_rows = Matrix.from_rows([row[::-1] for row in shifted.to_rows()])
        assert calls == [(reversed_rows, True)]
    assert spanned_by_columns(space.basis) == space


# ---------------------------------------------------------------------------
# the test mod p first: every answer is the exact pass's. dim_fixed,
# fixed_space and rank test mod the wide prime, so p below is that prime.

def _reference_shifted(a: Matrix) -> list[list[int]]:
    shifted = [list(row) for row in a.re]
    for k, row in enumerate(shifted):
        row[k] -= a.d
    return shifted


def _exact_fixed_space(a: Matrix) -> Subspace:
    """fixed_space as it was before the test mod p: one Gauss-Jordan pass."""
    return _kernel(_reference_shifted(a), a.im, a.rows)


def _exact_dim_fixed(a: Matrix) -> int:
    """dim_fixed as it was before the test mod p: one forward pass."""
    return a.rows - len(_echelon(_reference_shifted(a), a.im, a.rows)[2])


def _exact_rank(m: Matrix) -> int:
    """rank as it was before the test mod p: one forward pass."""
    return len(_echelon(m.re, m.im, m.cols)[2])


KINDS = ("invertible-shift", "singular", "singular-mod-p", "zero-row", "prime-rows", "structured")


def _case(kind: str, n: int, rng: random.Random) -> Matrix:
    """An n x n matrix with complex entries over a scale d > 1 (but for
    some structured probes) whose A - I is: invertible (a random draw,
    prime_rows of one); singular over Q(i) (I + X @ Y, X n x k, k < n);
    singular only mod p (upper triangular, with p + 1 or r + 1 - i from
    colliding(_WIDE) on A's diagonal at least once, so that A - I is 0 mod p
    there, and nonzero elsewhere on it); or has a zero row. The structured
    probes have each kind of A - I."""
    a = random_matrix(rng, n, n)
    if kind == "prime-rows":
        return prime_rows(a)
    if kind == "structured":
        return rng.choice(structured_probes(n))
    if kind == "singular":
        k = rng.randrange(n)
        return Matrix.identity(n) + random_matrix(rng, n, k) @ random_matrix(rng, k, n)
    rows = a.to_rows()
    if kind == "singular-mod-p":
        for i, row in enumerate(rows):
            row[:i] = [ZERO] * i
            if i == 0 or rng.random() < 0.3:
                row[i] = rng.choice(colliding(_WIDE)[2:4])
            else:
                row[i] = ONE + (row[i] or ONE)
    elif kind == "zero-row":
        k = rng.randrange(n)
        rows[k] = [ONE if j == k else ZERO for j in range(n)]
    return Matrix.from_rows(rows)


def _assert_exact(kind: str, a: Matrix) -> None:
    n, eye = a.rows, Matrix.identity(a.rows)
    shifted = a - eye
    if kind == "singular":
        assert _exact_rank(shifted) < n
    if kind == "singular-mod-p":
        assert (reference_full_rank_mod_p(shifted, _WIDE), _exact_rank(shifted)) == (False, n)
    assert fixed_space(a) == _exact_fixed_space(a)
    assert dim_fixed(a) == _exact_dim_fixed(a)
    for m in (a, a - eye):
        assert rank(m) == _exact_rank(m)


@given(st.sampled_from(KINDS), st.integers(1, 8), st.integers(0, 2**32))
@example("singular-mod-p", 1, 0)
@example("zero-row", 8, 0)
def test_mod_p_first_answers_equal_the_exact_pass(kind, n, seed):
    """dim_fixed, fixed_space and rank (of A and of A - I) equal their
    exact-only versions, whatever the test mod p says."""
    _assert_exact(kind, _case(kind, n, random.Random(seed)))


@pytest.mark.parametrize("kind", KINDS)
def test_mod_p_first_answers_equal_the_exact_pass_at_side_16(kind):
    _assert_exact(kind, _case(kind, 16, derive_rng(0, "mod-p-first", kind)))


@pytest.mark.parametrize("n", [1, 4, 8, 16, 64])
def test_invertible_shift_takes_no_exact_pass(n, monkeypatch):
    """A random A, whose A - I and A the test mod p proves invertible, is
    answered with no Bareiss pass."""
    a = random_matrix(derive_rng(0, "no-exact-pass", n), n, n)
    assert reference_full_rank_mod_p(a - Matrix.identity(n), _WIDE)
    assert reference_full_rank_mod_p(a, _WIDE)
    calls = []
    monkeypatch.setattr(linalg, "_bareiss", lambda *args: calls.append(args))
    assert (dim_fixed(a), fixed_space(a), rank(a)) == (0, Subspace.zero(n), n)
    assert calls == []
