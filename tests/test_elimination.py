"""The fraction-free elimination kernel against the GaussianRational reference.

The reference below is the Gauss-Jordan loop that builds a Fraction for
every entry; the package's rref, rank, kernel_basis and inverse must give
exactly what it gives.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fixpres import GaussianRational, Matrix, NotSquare, SingularMatrix
from fixpres.linalg import inverse, kernel_basis, rank, rref
from fixpres.scalars import ONE, ZERO

from conftest import fractions_st, matrices, scalars


# ---------------------------------------------------------------------------
# reference implementation

def reference_rref(m: Matrix) -> tuple[Matrix, int, tuple[int, ...]]:
    data = m.to_rows()
    n_rows, n_cols = m.rows, m.cols
    pivots: list[int] = []
    pivot_row = 0
    for col in range(n_cols):
        if pivot_row == n_rows:
            break
        hit = None
        for r in range(pivot_row, n_rows):
            if data[r][col]:
                hit = r
                break
        if hit is None:
            continue
        data[pivot_row], data[hit] = data[hit], data[pivot_row]
        lead = data[pivot_row][col]
        if lead != ONE:
            inv = ONE / lead
            row = data[pivot_row]
            for c in range(col, n_cols):
                if row[c]:
                    row[c] = row[c] * inv
        for r in range(n_rows):
            if r == pivot_row:
                continue
            factor = data[r][col]
            if not factor:
                continue
            src = data[pivot_row]
            dst = data[r]
            for c in range(col, n_cols):
                if src[c]:
                    dst[c] = dst[c] - factor * src[c]
        pivots.append(col)
        pivot_row += 1
    reduced = Matrix(n_rows, n_cols, tuple(v for row in data for v in row))
    return reduced, len(pivots), tuple(pivots)


def reference_kernel_basis(m: Matrix) -> Matrix:
    """Canonical kernel basis: columns whose transpose is in RREF."""
    reduced, _, pivots = reference_rref(m)
    free_cols = [c for c in range(m.cols) if c not in pivots]
    vectors = []
    for free in free_cols:
        entries = [ZERO] * m.cols
        entries[free] = ONE
        for row_idx, piv in enumerate(pivots):
            entries[piv] = -reduced[row_idx, free]
        vectors.append(entries)
    spanning_t = Matrix(len(vectors), m.cols, tuple(v for vec in vectors for v in vec))
    canonical, r, _ = reference_rref(spanning_t)
    return Matrix(r, m.cols, canonical.entries[: r * m.cols]).transpose()


def reference_inverse(m: Matrix) -> Matrix:
    n = m.rows
    reduced, _, pivots = reference_rref(m.hstack(Matrix.identity(n)))
    if sum(1 for p in pivots if p < n) < n:
        raise SingularMatrix("singular")
    return Matrix(n, n, tuple(reduced[i, n + j] for i in range(n) for j in range(n)))


def assert_matches_reference(m: Matrix) -> None:
    expected = reference_rref(m)
    assert rref(m) == expected
    assert rank(m) == expected[1]
    assert kernel_basis(m).basis == reference_kernel_basis(m)
    if not m.is_square:
        with pytest.raises(NotSquare):
            inverse(m)
    elif expected[1] < m.rows:
        with pytest.raises(SingularMatrix):
            inverse(m)
    else:
        assert inverse(m) == reference_inverse(m)


# ---------------------------------------------------------------------------
# inputs

sides = st.integers(0, 5)


@st.composite
def any_shape(draw, entries=scalars):
    r, c = draw(sides), draw(sides)
    return Matrix(r, c, tuple(draw(st.lists(entries, min_size=r * c, max_size=r * c))))


@st.composite
def rank_deficient_products(draw):
    """A(r x k) @ B(k x c) with k < min(r, c)."""
    r, c = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    k = draw(st.integers(0, min(r, c) - 1))
    return draw(matrices(rows=r, cols=k)) @ draw(matrices(rows=k, cols=c))


real_scalars = st.builds(GaussianRational, fractions_st)
imaginary_scalars = st.builds(GaussianRational, st.just(Fraction(0)), fractions_st)


@given(any_shape())
def test_random_matrices_match_reference(m):
    assert_matches_reference(m)


@given(rank_deficient_products())
def test_rank_deficient_products_match_reference(m):
    assert_matches_reference(m)


@given(any_shape(real_scalars))
def test_real_matrices_match_reference(m):
    assert_matches_reference(m)


@given(any_shape(imaginary_scalars))
def test_imaginary_matrices_match_reference(m):
    assert_matches_reference(m)


@pytest.mark.parametrize("rows,cols", [(0, 0), (0, 3), (3, 0)])
def test_empty_shapes_match_reference(rows, cols):
    assert_matches_reference(Matrix.zeros(rows, cols))

