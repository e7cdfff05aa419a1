"""The vec layout's flat gathers against the index loops they replaced.

Each reference below reads entries through the bounds-checked
Matrix.__getitem__, one index pair at a time, exactly as the package did
before vec, unvec, realign, precompose_transpose, superop_from_action and
kron became gathers over the flat row-major entries. The package must
give exactly what they give.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
from fixpres.linalg import inverse, kron
from fixpres.scalars import ONE, ZERO
from fixpres.superop import unvec, vec
from fixpres.superop import precompose_transpose

from conftest import matrices, nonzero_scalars, scalars, superop_from_action

sides = st.integers(1, 4)


# ---------------------------------------------------------------------------
# reference implementations

def reference_vec(a: Matrix) -> Matrix:
    return Matrix(
        a.rows * a.cols,
        1,
        tuple(a[i, j] for j in range(a.cols) for i in range(a.rows)),
    )


def reference_unvec(v: Matrix, rows: int, cols: int) -> Matrix:
    return Matrix(rows, cols, tuple(v[j * rows + i, 0] for i in range(rows) for j in range(cols)))


def reference_realign(l: Matrix, n: int) -> Matrix:
    side = n * n
    out = [None] * (side * side)
    for g in range(n):
        for a in range(n):
            row = g * n + a
            for b in range(n):
                for d in range(n):
                    out[row * side + b * n + d] = l[b * n + a, d * n + g]
    return Matrix(side, side, tuple(out))


def reference_precompose_transpose(l: Matrix, n: int) -> Matrix:
    side = n * n
    partner = [(j % n) * n + j // n for j in range(side)]
    return Matrix(side, side, tuple(l[i, partner[j]] for i in range(side) for j in range(side)))


def reference_commutation_matrix(n: int) -> Matrix:
    """Permutation K with K @ vec(A) = vec(A.T)."""
    side = n * n
    out = [ZERO] * (side * side)
    for r in range(n):
        for c in range(n):
            out[(c * n + r) * side + (r * n + c)] = ONE
    return Matrix(side, side, tuple(out))


def reference_superop_from_action(n: int, action) -> Matrix:
    side = n * n
    columns = []
    for j in range(n):
        for i in range(n):
            columns.append(reference_vec(action(Matrix.unit(n, i, j))))
    return Matrix(side, side, tuple(columns[c][r, 0] for r in range(side) for c in range(side)))


def reference_kron(a: Matrix, b: Matrix) -> Matrix:
    rows = a.rows * b.rows
    cols = a.cols * b.cols
    out = [ZERO] * (rows * cols)
    for i1 in range(a.rows):
        for j1 in range(a.cols):
            coeff = a[i1, j1]
            if not coeff:
                continue
            for i2 in range(b.rows):
                base = (i1 * b.rows + i2) * cols + j1 * b.cols
                for j2 in range(b.cols):
                    val = b[i2, j2]
                    if val:
                        out[base + j2] = coeff * val
    return Matrix(rows, cols, tuple(out))


# ---------------------------------------------------------------------------
# inputs

@st.composite
def superop_matrices(draw):
    """(L, n) with L a dense n^2 x n^2 matrix, n in 1..4."""
    n = draw(sides)
    return draw(matrices(rows=n * n, cols=n * n)), n


@st.composite
def sparse_matrices(draw, max_side=3):
    """Matrices with zero rows, columns or entries, so kron skips some blocks."""
    r, c = draw(st.integers(0, max_side)), draw(st.integers(0, max_side))
    entry = st.one_of(st.just(ZERO), nonzero_scalars)
    return Matrix(r, c, tuple(draw(st.lists(entry, min_size=r * c, max_size=r * c))))


# ---------------------------------------------------------------------------
# vec / unvec

@given(matrices(max_side=4))
def test_vec_matches_reference(a):
    assert vec(a) == reference_vec(a)


@given(sides, sides, st.data())
def test_unvec_matches_reference(rows, cols, data):
    v = data.draw(matrices(rows=rows * cols, cols=1))
    assert unvec(v, rows, cols) == reference_unvec(v, rows, cols)


# ---------------------------------------------------------------------------
# realign, precompose_transpose, the transpose map

@given(superop_matrices())
def test_realign_matches_reference(case):
    l, n = case
    assert realign(SuperOp(n, l)) == reference_realign(l, n)


@given(superop_matrices())
def test_precompose_transpose_matches_reference(case):
    l, n = case
    assert precompose_transpose(l, n) == reference_precompose_transpose(l, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_transpose_superop_is_the_commutation_matrix(n):
    assert transpose_superop(n).matrix == reference_commutation_matrix(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("scale", [1, -1, 2])
def test_transpose_similarity_matches_reference(n, scale):
    s = random_invertible(derive_rng(n, "layout", scale), n)
    base = scale * kron(inverse(s).transpose(), s)
    expected = reference_precompose_transpose(base, n)
    assert transpose_similarity_superop(s, scale).matrix == expected


@given(sides, st.data())
def test_superop_from_action_matches_reference(n, data):
    s = data.draw(matrices(rows=n, cols=n))
    t = data.draw(matrices(rows=n, cols=n))

    def action(a):
        return s @ a @ t

    assert superop_from_action(n, action).matrix == reference_superop_from_action(n, action)


# ---------------------------------------------------------------------------
# kron

@given(matrices(max_side=3), matrices(max_side=3))
def test_kron_matches_reference(a, b):
    assert kron(a, b) == reference_kron(a, b)


@given(sparse_matrices(), sparse_matrices())
def test_sparse_kron_matches_reference(a, b):
    assert kron(a, b) == reference_kron(a, b)


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
    expected = kron(inverse(s).transpose(), s) * scale
    assert similarity_superop(s, scale).matrix == expected
