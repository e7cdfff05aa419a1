"""Fixed-point spaces F(A) = ker(A - I): dimension and basis."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fixpres import Matrix, NotSquare, Subspace, dim_fixed, fixed_space
from fixpres import fixed_points, linalg
from fixpres.linalg import _echelon, _over, rank

from conftest import column_at, contains, matrices, null_space, spanned_by_columns, square_matrices


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
    assert dim_fixed(a) == a.rows - rank(a - Matrix.identity(a.rows))


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
    """One Gauss-Jordan pass of A - I with its columns reversed and no
    other elimination: the kernel vectors of that pass are already the
    canonical basis, which the span of its columns leaves as it is."""
    calls = []

    def counted(re, im, n_cols, reduce=False):
        calls.append((_over(re, im, a.d, n_cols), reduce))
        return _echelon(re, im, n_cols, reduce)

    monkeypatch.setattr(linalg, "_echelon", counted)
    monkeypatch.setattr(fixed_points, "_echelon", counted)
    space = fixed_space(a)
    monkeypatch.undo()
    shifted = (a - Matrix.identity(a.rows)).to_rows()
    assert calls == [(Matrix.from_rows([row[::-1] for row in shifted]), True)]
    assert spanned_by_columns(space.basis) == space
