"""The vec layout's flat gathers against the independent reference.

vec, unvec, realign, superop_from_action, the transpose maps and kron are
gathers over the package's flat rows; each must give exactly what the
reference (reference.py), an index formula over one Fraction pair per
entry, gives; no other file compares them. precompose_transpose is
compared in test_matrix_form.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from fixpres import (
    Matrix,
    SuperOp,
    derive_rng,
    random_invertible,
    realign,
    similarity_superop,
    transpose_similarity_superop,
    transpose_superop,
)
from fixpres.linalg import kron
from fixpres.scalars import ZERO
from fixpres.superop import _vec, unvec, vec

from conftest import (
    labelled,
    matrices,
    nonzero_scalars,
    scalars,
    similarity_rows,
    superop_from_action,
)
from reference import assert_form, rows

# Matrices with zero rows, columns or entries, so kron skips some blocks.
sparse_matrices = matrices(
    max_side=3, entries=st.one_of(st.just(ZERO), nonzero_scalars), min_side=0
)


# ---------------------------------------------------------------------------
# vec / unvec

@given(matrices(max_side=4))
def test_vec_matches_reference(a):
    expected = reference.vec(rows(a))
    assert_form(vec(a), expected, 1)
    # the flattener behind vec, SuperOp.apply and the probe loop's own side
    re, im = _vec(a)
    assert [[(Fraction(x, a.d), Fraction(y, a.d))] for x, y in zip(re, im)] == expected


@given(st.integers(1, 4), st.data())
def test_unvec_matches_reference(n, data):
    v = data.draw(matrices(rows=n * n, cols=1))
    assert_form(unvec(v, n), reference.unvec(rows(v), n), n)


# ---------------------------------------------------------------------------
# realign and the transpose maps

def test_realign_matches_reference():
    """At every supported side, on the labelled L over 12: its entries are
    distinct, so the gather, which keeps L's scale, is pinned integer by
    integer."""
    for n in range(1, 17):
        l = labelled(n * n, 12)
        got = realign(SuperOp(n, l))
        expected = [tuple(map(tuple, reference.realign(part, n))) for part in (l.re, l.im)]
        assert [got.re, got.im, got.d] == [*expected, 12]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_transpose_superop_is_the_commutation_matrix(n):
    """The commutation matrix K, with K @ vec(A) = vec(A.T), is I @ K."""
    expected = reference.precompose_transpose(reference.identity(n * n), n)
    assert_form(transpose_superop(n).matrix, expected, n * n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("scale", [1, -1, 2])
def test_transpose_similarity_matches_reference(n, scale):
    s = random_invertible(derive_rng(n, "layout", scale), n)
    expected = reference.precompose_transpose(similarity_rows(s, scale), n)
    assert_form(transpose_similarity_superop(s, scale).matrix, expected, n * n)


@given(st.integers(1, 4), st.data())
def test_superop_from_action_matches_reference(n, data):
    s = data.draw(matrices(rows=n, cols=n))
    t = data.draw(matrices(rows=n, cols=n))

    def action(a):
        return s @ a @ t

    # the map A -> S @ A @ T has L = kron(T.T, S)
    expected = reference.kron(list(zip(*rows(t))), rows(s))
    assert_form(superop_from_action(n, action).matrix, expected, n * n)


# ---------------------------------------------------------------------------
# kron

@given(matrices(max_side=3), matrices(max_side=3))
def test_kron_matches_reference(a, b):
    assert_form(kron(a, b), reference.kron(rows(a), rows(b)), a.cols * b.cols)


@given(sparse_matrices, sparse_matrices)
def test_sparse_kron_matches_reference(a, b):
    assert_form(kron(a, b), reference.kron(rows(a), rows(b)), a.cols * b.cols)


# ---------------------------------------------------------------------------
# scale coercion

@pytest.mark.parametrize("scale", [0.5, "2"])
def test_similarity_rejects_non_exact_scale(scale):
    with pytest.raises(TypeError):
        similarity_superop(Matrix.identity(2), scale)
    with pytest.raises(TypeError):
        transpose_similarity_superop(Matrix.identity(2), scale)


@given(scalars)
def test_similarity_scale_multiplies_every_entry(scale):
    s = Matrix.from_rows([[1, 1], [0, 1]])
    assert_form(similarity_superop(s, scale).matrix, similarity_rows(s, scale), 4)
