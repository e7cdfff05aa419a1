"""The fraction-free elimination kernel against the independent reference.

The package's rref, rank, kernel (the fixed space of m + I, for square
m) and inverse must give exactly what the reference (reference.py), a
Gauss-Jordan loop over one Fraction pair per entry, gives, on drawn
matrices of complex, real or imaginary entries at sides 0..5 and on
rank-deficient products. This is the one comparison of each elimination
with the reference; a fixed space is a canonical Subspace, so equal
spaces have one basis.
"""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import reference
from fixpres import Matrix, NotSquare, SingularMatrix, Subspace, fixed_space
from fixpres import completion_idempotent, linalg
from fixpres.linalg import _echelon, inverse, rank, rref

from conftest import (
    MIXED_DENOMINATORS,
    contains,
    imaginary_scalars,
    matrices,
    real_scalars,
    scalars,
    spanned_by_columns,
)
from reference import assert_form


def assert_matches_reference(m: Matrix) -> None:
    rows = reference.rows(m)
    reduced, pivots = reference.rref(rows)
    got, r, got_pivots = rref(m)
    assert (r, got_pivots) == (len(pivots), tuple(pivots))
    assert_form(got, reduced, m.cols)
    assert rank(m) == reference.rank(rows)
    if not m.is_square:
        with pytest.raises(NotSquare):
            inverse(m)
        return
    basis = fixed_space(m + Matrix.identity(m.rows)).basis
    assert_form(basis, reference.kernel(rows, m.cols), m.cols - len(pivots))
    if len(pivots) < m.rows:
        with pytest.raises(SingularMatrix):
            inverse(m)
    else:
        assert_form(inverse(m), reference.inverse(rows), m.rows)


# ---------------------------------------------------------------------------
# inputs

@st.composite
def rank_deficient_products(draw):
    """A(r x k) @ B(k x c) with k < min(r, c)."""
    r, c = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    k = draw(st.integers(0, min(r, c) - 1))
    return draw(matrices(rows=r, cols=k)) @ draw(matrices(rows=k, cols=c))


@given(st.sampled_from([scalars, real_scalars, imaginary_scalars]).flatmap(
    lambda entries: matrices(max_side=5, entries=entries, min_side=0)
))
@example(MIXED_DENOMINATORS)
def test_random_matrices_match_reference(m):
    assert_matches_reference(m)


@given(rank_deficient_products())
def test_rank_deficient_products_match_reference(m):
    assert_matches_reference(m)


@pytest.mark.parametrize("rows,cols", [(0, 0), (0, 3), (3, 0)])
def test_empty_shapes_match_reference(rows, cols):
    assert_matches_reference(Matrix.zeros(rows, cols))


# ---------------------------------------------------------------------------
# subspaces

def test_fixed_spaces_of_one_line_are_equal_entrywise():
    """The swap and the idempotent x (x) e1, x = (1, 1), both fix the line
    of x alone; their fixed spaces have the one canonical basis."""
    a = fixed_space(Matrix.from_rows([[0, 1], [1, 0]]))
    b = fixed_space(Matrix.from_rows([[1, 0], [1, 0]]))
    assert a == b
    assert a.basis == b.basis == Matrix.column([1, 1])


def test_subspace_contains():
    space = spanned_by_columns(Matrix.from_rows([[1], [1], [0]]))
    assert contains(space, Matrix.column([2, 2, 0]))
    assert not contains(space, Matrix.column([1, 0, 0]))


def test_zero_subspace_contains_only_zero():
    z = Subspace.zero(3)
    assert z.dim == 0
    assert contains(z, Matrix.column([0, 0, 0]))
    assert not contains(z, Matrix.column([1, 0, 0]))


# ---------------------------------------------------------------------------
# the one common pivot of a Gauss-Jordan pass, which rref, inverse and the
# kernel divide by once

gaussian_digits = st.integers(-9, 9)


@st.composite
def gaussian_integer_rows(draw):
    """Gaussian-integer rows at sides 1..6, some rows Gaussian-integer
    combinations of two earlier ones and some columns zero."""
    r, c = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    row = st.lists(gaussian_digits, min_size=c, max_size=c)
    re = [draw(row) for _ in range(r)]
    im = [draw(row) for _ in range(r)]
    for k in range(2, r):
        if draw(st.booleans()):
            i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
            ar, ai, br, bi = (draw(gaussian_digits) for _ in range(4))
            # row k = (ar + ai*i) * row i + (br + bi*i) * row j
            re[k] = [ar * x - ai * y + br * u - bi * v
                     for x, y, u, v in zip(re[i], im[i], re[j], im[j])]
            im[k] = [ar * y + ai * x + br * v + bi * u
                     for x, y, u, v in zip(re[i], im[i], re[j], im[j])]
    for col in draw(st.sets(st.integers(0, c - 1), max_size=c)):
        for values in re + im:
            values[col] = 0
    return re, im, c


@given(gaussian_integer_rows())
def test_gauss_jordan_pivots_all_equal_the_last(case):
    re, im, c = case
    before = ([list(v) for v in re], [list(v) for v in im])
    out_re, out_im, pivots = _echelon(re, im, c, reduce=True)
    assert (re, im) == before
    entries = [(out_re[k][col], out_im[k][col]) for k, col in enumerate(pivots)]
    assert entries == entries[-1:] * len(pivots)
    assert all(not any(v) for v in out_re[len(pivots):] + out_im[len(pivots):])


def test_inverse_and_completion_read_their_rows_from_rref(monkeypatch):
    """Gauss-Jordan rows are read over their common pivot in one place:
    inverse and completion_idempotent each call rref by the module-level
    name a tracer rebinds, and give what they gave before."""
    calls = []

    def counted(m):
        calls.append((m.rows, m.cols))
        return rref(m)

    monkeypatch.setattr(linalg, "rref", counted)
    a = Matrix.from_rows([[2, 1, 0], [0, 3, 1], [1, 0, 1]])
    assert_form(inverse(a), reference.inverse(reference.rows(a)), 3)
    assert calls == [(3, 6)]
    calls.clear()
    x = Matrix.column([1, 0, 0])
    p = completion_idempotent(a, x)
    assert calls == [(3, 5)]
    assert (a + p) @ x == x and p @ p == p
