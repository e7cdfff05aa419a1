"""Rank-one outer products, idempotent tests, and idempotent completion."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fixpres import (
    DependentPair,
    GaussianRational,
    Matrix,
    SizeMismatch,
    Subspace,
    ZeroFactor,
    completion_idempotent,
    derive_rng,
    dim_fixed,
    fixed_space,
    random_matrix,
    rank_one,
)
from fixpres.linalg import rank
from fixpres.rank_one import is_idempotent
from fixpres.sampling import random_nonzero_column, random_nonzero_row
from fixpres.scalars import ONE

from conftest import contains


def _functional_value(f: Matrix, x: Matrix) -> GaussianRational:
    return (f @ x)[0, 0]


def test_rank_one_is_outer_product():
    x = Matrix.column([1, 2])
    f = Matrix.row_vector([3, 4])
    assert rank_one(x, f) == Matrix.from_rows([[3, 4], [6, 8]])


def test_rank_one_rejects_zero_factors():
    with pytest.raises(ZeroFactor):
        rank_one(Matrix.column([0, 0]), Matrix.row_vector([1, 0]))
    with pytest.raises(ZeroFactor):
        rank_one(Matrix.column([1, 0]), Matrix.row_vector([0, 0]))


def test_rank_one_rejects_bad_shapes():
    with pytest.raises(SizeMismatch):
        rank_one(Matrix.zeros(2, 2), Matrix.row_vector([1, 0]))


def test_idempotent_iff_functional_hits_one():
    x = Matrix.column([1, 1])
    f_good = Matrix.row_vector([1, 0])       # f(x) = 1
    f_bad = Matrix.row_vector([1, 1])        # f(x) = 2
    assert is_idempotent(rank_one(x, f_good))
    assert not is_idempotent(rank_one(x, f_bad))


def test_fixed_space_of_idempotent_is_its_line():
    x = Matrix.column([1, 2, 0])
    f = Matrix.row_vector([1, 0, 0])
    p = rank_one(x, f)
    assert fixed_space(p) == Subspace.spanned_by_columns(x)


def test_fixed_space_of_non_idempotent_rank_one_is_zero():
    p = 2 * rank_one(Matrix.column([1, 0]), Matrix.row_vector([1, 0]))
    assert dim_fixed(p) == 0


@given(st.integers(0, 200))
def test_random_rank_one_has_rank_one(seed):
    rng = derive_rng(seed, "outer")
    n = 3
    x = random_nonzero_column(rng, n)
    f = random_nonzero_row(rng, n)
    m = rank_one(x, f)
    assert rank(m) == 1
    value = _functional_value(f, x)
    assert is_idempotent(m) == (value == ONE)


def are_orthogonal(p: Matrix, q: Matrix) -> bool:
    """True exactly when p @ q and q @ p are both zero."""
    return (p @ q).is_zero and (q @ p).is_zero


def test_orthogonal_diagonal_units():
    p = Matrix.from_rows([[1, 0], [0, 0]])
    q = Matrix.from_rows([[0, 0], [0, 1]])
    assert are_orthogonal(p, q)


def test_non_orthogonal_pair():
    p = Matrix.from_rows([[1, 0], [0, 0]])
    assert not are_orthogonal(p, p)


# ---------------------------------------------------------------------------
# idempotent completion: from (A, x) with x, Ax independent, build P with
# rank(P) = 1, P idempotent, and (A + P) x = x.

def test_completion_known_case():
    a = Matrix.from_rows([[0, 1], [1, 0]])
    x = Matrix.column([1, 0])
    p = completion_idempotent(a, x)
    assert rank(p) == 1
    assert is_idempotent(p)
    assert (a + p) @ x == x


def test_completion_rejects_dependent_pair():
    # x is an eigenvector here, so x and Ax are dependent
    a = Matrix.from_rows([[2, 0], [0, 3]])
    with pytest.raises(DependentPair):
        completion_idempotent(a, Matrix.column([1, 0]))


def test_completion_rejects_zero_vector():
    a = Matrix.from_rows([[0, 1], [1, 0]])
    with pytest.raises(DependentPair):
        completion_idempotent(a, Matrix.column([0, 0]))


@given(st.integers(0, 100), st.integers(3, 4))
def test_completion_properties_hold_generically(seed, n):
    rng = derive_rng(seed, "completion", n)
    a = random_matrix(rng, n, n)
    x = random_nonzero_column(rng, n)
    stacked = x.hstack(a @ x)
    if rank(stacked) != 2:
        with pytest.raises(DependentPair):
            completion_idempotent(a, x)
        return
    p = completion_idempotent(a, x)
    assert rank(p) == 1
    assert is_idempotent(p)
    assert (a + p) @ x == x
    # the fixed space of A + P contains the line through x
    assert contains(fixed_space(a + p), x)
