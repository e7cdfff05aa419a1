"""Exact matrices: row reduction, rank, kernels, inverses, Kronecker products."""

import pytest
from hypothesis import given

from fixpres import (
    GaussianRational,
    Matrix,
    NotSquare,
    SingularMatrix,
    SizeMismatch,
    Subspace,
    transpose_superop,
)
from fixpres.linalg import inverse, kernel_basis, kron, rank, rref
from fixpres.scalars import ONE, ZERO
from fixpres.superop import vec

from conftest import contains, matrices, square_matrices


# ---------------------------------------------------------------------------
# construction

def test_from_rows_and_indexing():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    assert m[0, 1] == GaussianRational(2)
    assert m[1, 0] == GaussianRational(3)


def test_zero_dimensional_matrices_allowed():
    empty = Matrix(3, 0, ())
    assert empty.cols == 0
    assert empty.transpose().rows == 0


def test_entry_count_must_match():
    with pytest.raises(ValueError):
        Matrix(2, 2, (ZERO,))


def test_identity_and_unit():
    assert Matrix.identity(2) == Matrix.from_rows([[1, 0], [0, 1]])
    e01 = Matrix.unit(3, 0, 1)
    assert e01[0, 1] == ONE and e01.is_zero is False


def test_matmul_shape_check():
    with pytest.raises(SizeMismatch):
        Matrix.zeros(2, 3) @ Matrix.zeros(2, 3)


def test_matmul_known_product():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[0, 1], [1, 0]])
    assert a @ b == Matrix.from_rows([[2, 1], [4, 3]])


@given(square_matrices(max_side=3))
def test_transpose_involution(m):
    assert m.transpose().transpose() == m


@given(matrices(max_side=3), matrices(max_side=3))
def test_addition_requires_same_shape(a, b):
    if (a.rows, a.cols) == (b.rows, b.cols):
        assert (a + b) - b == a
    else:
        with pytest.raises(SizeMismatch):
            a + b


# ---------------------------------------------------------------------------
# row reduction and rank

def test_rref_of_identity_is_identity():
    r, rk, pivots = rref(Matrix.identity(3))
    assert r == Matrix.identity(3)
    assert rk == 3
    assert pivots == (0, 1, 2)


def test_rref_known_case():
    m = Matrix.from_rows([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    r, rk, pivots = rref(m)
    assert rk == 2
    assert pivots == (0, 1)
    assert r.to_rows()[2] == [ZERO, ZERO, ZERO]
    # leading entries are 1 and their columns are cleared
    for row_index, col in enumerate(pivots):
        assert r[row_index, col] == ONE
        for other in range(3):
            if other != row_index:
                assert r[other, col] == ZERO


def test_rank_of_zero_matrix():
    assert rank(Matrix.zeros(3, 4)) == 0


@given(square_matrices(max_side=4))
def test_rref_is_idempotent(m):
    r, _, _ = rref(m)
    r2, _, _ = rref(r)
    assert r == r2


@given(square_matrices(max_side=3))
def test_rank_bounded_by_side(m):
    assert 0 <= rank(m) <= m.rows


@given(square_matrices(max_side=3))
def test_rank_invariant_under_transpose(m):
    assert rank(m) == rank(m.transpose())


def test_complex_rank():
    # second column is i times the first: rank one
    i = GaussianRational(0, 1)
    m = Matrix.from_rows([[ONE, i], [i, -ONE]])
    assert rank(m) == 1


# ---------------------------------------------------------------------------
# kernels

def test_kernel_of_identity_is_zero_space():
    space = kernel_basis(Matrix.identity(3))
    assert space.dim == 0
    assert space.ambient_dim == 3


def test_kernel_of_zero_is_full_space():
    space = kernel_basis(Matrix.zeros(3, 3))
    assert space.dim == 3


def test_kernel_known_case():
    m = Matrix.from_rows([[1, 2], [2, 4]])
    space = kernel_basis(m)
    assert space.dim == 1
    v = space.basis.column_at(0)
    assert (m @ v).is_zero


@given(square_matrices(max_side=4))
def test_kernel_vectors_are_annihilated(m):
    space = kernel_basis(m)
    for j in range(space.dim):
        assert (m @ space.basis.column_at(j)).is_zero
    assert space.dim == m.cols - rank(m)


# ---------------------------------------------------------------------------
# subspaces

def test_spanned_by_columns_canonicalizes():
    a = Subspace.spanned_by_columns(Matrix.from_rows([[1, 2], [1, 2]]))
    b = Subspace.spanned_by_columns(Matrix.from_rows([[3], [3]]))
    assert a == b
    assert a.basis == b.basis


def test_subspace_contains():
    space = Subspace.spanned_by_columns(Matrix.from_rows([[1], [1], [0]]))
    assert contains(space, Matrix.column([2, 2, 0]))
    assert not contains(space, Matrix.column([1, 0, 0]))


def test_zero_subspace_contains_only_zero():
    z = Subspace.zero(3)
    assert z.dim == 0
    assert contains(z, Matrix.column([0, 0, 0]))
    assert not contains(z, Matrix.column([1, 0, 0]))


@given(matrices(max_side=3))
def test_span_unchanged_by_duplicating_columns(m):
    doubled = m.hstack(m)
    assert Subspace.spanned_by_columns(m) == Subspace.spanned_by_columns(doubled)


# ---------------------------------------------------------------------------
# inverses

def test_inverse_known_case():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    assert m @ inverse(m) == Matrix.identity(2)


def test_inverse_rejects_singular():
    with pytest.raises(SingularMatrix):
        inverse(Matrix.from_rows([[1, 2], [2, 4]]))


def test_inverse_rejects_rectangular():
    with pytest.raises(NotSquare):
        inverse(Matrix.zeros(2, 3))


@given(square_matrices(max_side=3))
def test_inverse_round_trip_when_invertible(m):
    if rank(m) < m.rows:
        with pytest.raises(SingularMatrix):
            inverse(m)
    else:
        assert inverse(m) @ m == Matrix.identity(m.rows)


# ---------------------------------------------------------------------------
# kron and the commutation matrix (the matrix of the transpose map)

def test_kron_known_block():
    a = Matrix.from_rows([[1, 2], [0, 1]])
    b = Matrix.identity(2)
    k = kron(a, b)
    assert k.rows == 4 and k.cols == 4
    assert k[0, 2] == GaussianRational(2)
    assert k[1, 3] == GaussianRational(2)
    assert k[2, 0] == ZERO


def test_kron_mixed_product():
    a = Matrix.from_rows([[1, 1], [0, 2]])
    b = Matrix.from_rows([[0, 1], [1, 0]])
    c = Matrix.from_rows([[2, 0], [1, 1]])
    d = Matrix.from_rows([[1, 2], [3, 4]])
    assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)


def test_commutation_matrix_transposes_vec():
    k = transpose_superop(3).matrix
    m = Matrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert k @ vec(m) == vec(m.transpose())


def test_commutation_matrix_is_self_inverse():
    k = transpose_superop(2).matrix
    assert k @ k == Matrix.identity(4)
    assert k == k.transpose()
