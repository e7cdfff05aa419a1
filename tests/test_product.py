"""The fraction-free product kernel against the GaussianRational reference.

The reference below is the triple loop that adds and multiplies a
GaussianRational per term; Matrix @ and SuperOp.apply_each must give
exactly what it gives.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from fixpres import (
    GaussianRational,
    Matrix,
    SizeMismatch,
    SuperOp,
    derive_rng,
    random_invertible,
    random_matrix,
    similarity_superop,
)
from fixpres.linalg import inverse, kron, rank
from fixpres.scalars import ZERO
from fixpres.superop import unvec, vec

from conftest import fractions_st, scalars


# ---------------------------------------------------------------------------
# reference implementation

def reference_matmul(a: Matrix, b: Matrix) -> Matrix:
    n, k, m = a.rows, a.cols, b.cols
    out = []
    for i in range(n):
        for j in range(m):
            acc = ZERO
            for t in range(k):
                left = a.entries[i * k + t]
                if left:
                    acc = acc + left * b.entries[t * m + j]
            out.append(acc)
    return Matrix(n, m, tuple(out))


def assert_matches_reference(a: Matrix, b: Matrix) -> None:
    assert a @ b == reference_matmul(a, b)


# ---------------------------------------------------------------------------
# inputs

sides = st.integers(0, 5)
real_scalars = st.builds(GaussianRational, fractions_st)
imaginary_scalars = st.builds(GaussianRational, st.just(Fraction(0)), fractions_st)
wide_fractions = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=97
)


@st.composite
def operands(draw, entries=scalars):
    """A pair (a, b) with a.cols == b.rows; any side may be zero."""
    r, k, c = draw(sides), draw(sides), draw(sides)

    def matrix(rows, cols):
        size = rows * cols
        return Matrix(rows, cols, tuple(draw(st.lists(entries, min_size=size, max_size=size))))

    return matrix(r, k), matrix(k, c)


@st.composite
def unit_operands(draw):
    """Matrix units on either side, or both, of a square product."""
    n = draw(st.integers(1, 4))
    index = st.integers(0, n - 1)
    unit = Matrix.unit(n, draw(index), draw(index))
    other = draw(st.sampled_from(["left", "right", "both"]))
    dense = Matrix(n, n, tuple(draw(st.lists(scalars, min_size=n * n, max_size=n * n))))
    if other == "left":
        return unit, dense
    if other == "right":
        return dense, unit
    return unit, Matrix.unit(n, draw(index), draw(index))


@st.composite
def similarity_operands(draw):
    """kron(inverse(S).T, S) for S with large denominators, and vec(A) or a square."""
    n = draw(st.integers(1, 3))
    entries = st.builds(GaussianRational, wide_fractions, wide_fractions)
    s = Matrix(n, n, tuple(draw(st.lists(entries, min_size=n * n, max_size=n * n))))
    assume(rank(s) == n)
    l = kron(inverse(s).transpose(), s)
    side = n * n
    width = draw(st.sampled_from([1, side]))
    size = side * width
    b = Matrix(side, width, tuple(draw(st.lists(entries, min_size=size, max_size=size))))
    return l, b


@given(operands())
def test_random_products_match_reference(pair):
    assert_matches_reference(*pair)


@given(operands(real_scalars))
def test_real_products_match_reference(pair):
    assert_matches_reference(*pair)


@given(operands(imaginary_scalars))
def test_imaginary_products_match_reference(pair):
    assert_matches_reference(*pair)


@given(unit_operands())
def test_matrix_unit_products_match_reference(pair):
    assert_matches_reference(*pair)


@given(similarity_operands())
def test_similarity_superop_products_match_reference(pair):
    assert_matches_reference(*pair)


@pytest.mark.parametrize(
    "left,right", [((0, 3), (3, 2)), ((2, 0), (0, 3)), ((3, 2), (2, 0)), ((0, 0), (0, 0))]
)
def test_empty_shapes_match_reference(left, right):
    a, b = Matrix.zeros(*left), Matrix.zeros(*right)
    assert a @ b == reference_matmul(a, b) == Matrix.zeros(left[0], right[1])


# ---------------------------------------------------------------------------
# superoperator application

@pytest.mark.parametrize("seed", range(5))
def test_apply_each_matches_apply(seed):
    rng = derive_rng(seed, "apply-each")
    n = 3
    phi = SuperOp(n, random_matrix(rng, n * n, n * n))
    ms = [random_matrix(rng, n, n) for _ in range(4)] + [Matrix.zeros(n, n)]
    assert list(phi.apply_each(ms)) == [phi.apply(m) for m in ms]
    assert [phi.apply(m) for m in ms] == [
        unvec(reference_matmul(phi.matrix, vec(m)), n) for m in ms
    ]


def test_apply_each_of_nothing_is_empty():
    phi = similarity_superop(random_invertible(derive_rng(0, "empty"), 2), 1)
    assert list(phi.apply_each([])) == []


def test_apply_each_is_lazy():
    phi = similarity_superop(Matrix.from_rows([[1, 1], [0, 1]]), 1)
    good = Matrix.from_rows([[1, 2], [3, 4]])
    images = phi.apply_each([good, Matrix.zeros(3, 3)])
    assert next(images) == phi.apply(good)
    with pytest.raises(SizeMismatch):
        next(images)
