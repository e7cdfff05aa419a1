"""Fixed-point spaces F(A) = ker(A - I): dimension, basis, kernel bridge."""

import pytest
from hypothesis import given

from fixpres import Matrix, NotSquare, Subspace, dim_fixed, fixed_space
from fixpres.linalg import kernel_basis, rank

from conftest import contains, square_matrices


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
        v = space.basis.column_at(j)
        assert a @ v == v


@given(square_matrices(max_side=4))
def test_dim_matches_basis_column_count(a):
    assert dim_fixed(a) == fixed_space(a).dim


@given(square_matrices(max_side=4))
def test_dim_is_side_minus_rank_of_shift(a):
    assert dim_fixed(a) == a.rows - rank(a - Matrix.identity(a.rows))


@given(square_matrices(max_side=4))
def test_fixed_space_is_kernel_of_shift(a):
    """The diagonal-only A - I agrees with subtracting the full identity."""
    assert fixed_space(a) == kernel_basis(a - Matrix.identity(a.rows))


def kernel_via_fixed(a: Matrix) -> Subspace:
    """ker(A) computed as the fixed-point space of A + I."""
    return fixed_space(a + Matrix.identity(a.rows))


@given(square_matrices(max_side=4))
def test_kernel_via_fixed_agrees_with_kernel(a):
    """ker(A) computed through the fixed space of A + I."""
    assert kernel_via_fixed(a) == kernel_basis(a)


@given(square_matrices(max_side=4))
def test_rank_dominates_fixed_dimension(a):
    assert rank(a) >= dim_fixed(a)
