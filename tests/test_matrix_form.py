"""Every Matrix builder and operation returns canonical Gaussian-integer rows.

A Matrix stores (re + i*im) / d with gcd(d, every entry) = 1. Each
builder and operation below, at sides 1..4, must return rows in that form
whose values equal an entrywise GaussianRational reference computed on
plain lists of scalars, and must equal the Matrix that the constructor
builds from those reference entries. The constructor itself coerces ints
and Fractions and rejects any other entry.
"""

from fractions import Fraction
from itertools import chain
from math import gcd

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from fixpres import GaussianRational, Matrix, SuperOp, derive_rng, fixed_space, random_matrix
from fixpres.linalg import inverse, kron, rank, rref
from fixpres.sampling import DENOMINATORS
from fixpres.scalars import ONE, ZERO
from fixpres.superop import precompose_transpose

from conftest import scalars

Rows = list[list[GaussianRational]]

sides = st.integers(1, 4)


def values(m: Matrix) -> Rows:
    """The entries of m read straight off its stored integers."""
    return [
        [GaussianRational(Fraction(x, m.d), Fraction(y, m.d)) for x, y in zip(xs, ys)]
        for xs, ys in zip(m.re, m.im)
    ]


def assert_form(m: Matrix, reference: Rows, cols: int) -> None:
    """m holds canonical rows of the values in reference, an r x cols list."""
    assert (m.rows, m.cols) == (len(reference), cols)
    assert type(m.re) is tuple and type(m.im) is tuple
    assert len(m.re) == len(m.im) == m.rows
    assert all(type(row) is tuple and len(row) == cols for row in m.re + m.im)
    assert m.d > 0
    assert gcd(m.d, *chain.from_iterable(m.re), *chain.from_iterable(m.im)) == 1
    assert values(m) == reference
    assert m == Matrix(m.rows, cols, [z for row in reference for z in row])


@st.composite
def grids(draw, rows=None, cols=None) -> Rows:
    r = draw(sides) if rows is None else rows
    c = draw(sides) if cols is None else cols
    return [draw(st.lists(scalars, min_size=c, max_size=c)) for _ in range(r)]


@st.composite
def dependent_grids(draw, square: bool = False) -> Rows:
    """A rank-deficient grid: 2 or 3 drawn rows and the sum of the first
    two, with one column per row when square."""
    r = draw(st.integers(2, 3))
    rows = draw(grids(rows=r, cols=r + 1 if square else None))
    return rows + [[x + y for x, y in zip(rows[0], rows[1])]]


def matrix(rows: Rows) -> Matrix:
    return Matrix.from_rows(rows)


# ---------------------------------------------------------------------------
# entrywise references

def ref_matmul(a: Rows, b: Rows) -> Rows:
    return [[sum((x * y for x, y in zip(row, col)), ZERO) for col in zip(*b)] for row in a]


def ref_rref(a: Rows) -> tuple[Rows, list[int]]:
    data = [list(row) for row in a]
    pivots: list[int] = []
    for col in range(len(data[0]) if data else 0):
        p = len(pivots)
        hit = next((r for r in range(p, len(data)) if data[r][col]), None)
        if hit is None:
            continue
        data[p], data[hit] = data[hit], data[p]
        lead = data[p][col]
        data[p] = [x / lead for x in data[p]]
        for r in range(len(data)):
            if r != p and data[r][col]:
                f = data[r][col]
                data[r] = [x - f * y for x, y in zip(data[r], data[p])]
        pivots.append(col)
    return data, pivots


def ref_kernel(a: Rows, cols: int) -> Rows:
    """The kernel basis as columns whose transpose is in RREF."""
    reduced, pivots = ref_rref(a)
    vectors = []
    for free in (c for c in range(cols) if c not in pivots):
        v = [ZERO] * cols
        v[free] = ONE
        for k, piv in enumerate(pivots):
            v[piv] = -reduced[k][free]
        vectors.append(v)
    if not vectors:
        return [[] for _ in range(cols)]
    canonical, pivots = ref_rref(vectors)
    return [list(col) for col in zip(*canonical[: len(pivots)])]


def ref_kron(a: Rows, b: Rows) -> Rows:
    return [[x * y for x in a_row for y in b_row] for a_row in a for b_row in b]


def ref_vec(a: Rows) -> list[GaussianRational]:
    return [z for col in zip(*a) for z in col]


# ---------------------------------------------------------------------------
# builders

@given(grids())
def test_from_rows(rows):
    assert_form(matrix(rows), rows, len(rows[0]))


@given(sides)
def test_identity(n):
    expected = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    assert_form(Matrix.identity(n), expected, n)


@given(sides, st.data())
def test_unit(n, data):
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    expected = [[ONE if (r, c) == (i, j) else ZERO for c in range(n)] for r in range(n)]
    assert_form(Matrix.unit(n, i, j), expected, n)


@given(st.lists(scalars, min_size=1, max_size=4))
def test_column(column):
    assert_form(Matrix.column(column), [[z] for z in column], 1)


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 2**32))
@example(16, 16, 7)
def test_random_matrix(rows, cols, seed):
    # each part is randint(-9, 9) / choice(DENOMINATORS), drawn in that order
    rng = derive_rng(seed, "form")

    def part() -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))

    expected = [GaussianRational(part(), part()) for _ in range(rows * cols)]
    grid = [expected[k * cols : (k + 1) * cols] for k in range(rows)]
    assert_form(random_matrix(derive_rng(seed, "form"), rows, cols), grid, cols)


# ---------------------------------------------------------------------------
# operations

@given(st.data())
def test_sum_difference_and_negation(data):
    a = data.draw(grids())
    b = data.draw(grids(len(a), len(a[0])))
    cols = len(a[0])
    pairs = [list(zip(p, q)) for p, q in zip(a, b)]
    assert_form(matrix(a) + matrix(b), [[x + y for x, y in row] for row in pairs], cols)
    assert_form(matrix(a) - matrix(b), [[x - y for x, y in row] for row in pairs], cols)
    assert_form(-matrix(a), [[-x for x in row] for row in a], cols)
    # a - a cancels to the zero matrix, whose only canonical scale is 1
    assert_form(matrix(a) - matrix(a), [[ZERO] * cols for _ in a], cols)


@given(grids(), st.one_of(scalars, st.integers(-9, 9), st.fractions(max_denominator=12)))
def test_scalar_product(a, s):
    z = s if isinstance(s, GaussianRational) else GaussianRational(Fraction(s))
    expected = [[z * x for x in row] for row in a]
    assert_form(s * matrix(a), expected, len(a[0]))
    assert_form(matrix(a) * s, expected, len(a[0]))


@given(st.data())
def test_matmul(data):
    a = data.draw(grids())
    b = data.draw(grids(rows=len(a[0])))
    assert_form(matrix(a) @ matrix(b), ref_matmul(a, b), len(b[0]))


@given(grids())
def test_transpose(a):
    assert_form(matrix(a).transpose(), [list(col) for col in zip(*a)], len(a))


@given(st.data())
def test_hstack(data):
    a = data.draw(grids())
    b = data.draw(grids(rows=len(a)))
    expected = [p + q for p, q in zip(a, b)]
    assert_form(matrix(a).hstack(matrix(b)), expected, len(a[0]) + len(b[0]))


@given(st.one_of(grids(), dependent_grids()))
def test_rref(a):
    reduced, pivots = ref_rref(a)
    m, r, got_pivots = rref(matrix(a))
    assert (r, got_pivots) == (len(pivots), tuple(pivots))
    assert_form(m, reduced, len(a[0]))


@given(sides.flatmap(lambda n: grids(n, n)))
def test_inverse(a):
    n = len(a)
    assume(len(ref_rref(a)[1]) == n)
    identity = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    reduced, _ = ref_rref([p + q for p, q in zip(a, identity)])
    assert_form(inverse(matrix(a)), [row[n:] for row in reduced], n)


@given(st.one_of(sides.flatmap(lambda n: grids(n, n)), dependent_grids(square=True)))
def test_kernel_basis(a):
    """The kernel basis of a square matrix, read as the fixed space of a + I."""
    cols = len(a)
    basis = fixed_space(matrix(a) + Matrix.identity(cols)).basis
    expected = ref_kernel(a, cols)
    assert_form(basis, expected, len(expected[0]))


@given(grids(), grids())
def test_kron(a, b):
    assert_form(kron(matrix(a), matrix(b)), ref_kron(a, b), len(a[0]) * len(b[0]))


@given(sides.flatmap(lambda n: st.tuples(st.just(n), grids(n * n, n * n))))
def test_precompose_transpose(case):
    n, l = case
    side = n * n
    # column c of L @ K is column (c % n)*n + c // n of L
    expected = [[row[(c % n) * n + c // n] for c in range(side)] for row in l]
    assert_form(precompose_transpose(matrix(l), n), expected, side)


@given(sides.flatmap(lambda n: st.tuples(grids(n * n, n * n), grids(n, n))))
def test_apply(case):
    l, a = case
    n = len(a)
    image = [sum((x * y for x, y in zip(row, ref_vec(a))), ZERO) for row in l]
    expected = [[image[j * n + i] for j in range(n)] for i in range(n)]
    assert_form(SuperOp(n, matrix(l)).apply(matrix(a)), expected, n)


# ---------------------------------------------------------------------------
# the constructor coerces exact entries and rejects the rest

@pytest.mark.parametrize("one", [1, Fraction(1), Fraction(2, 2), ONE])
def test_constructor_coerces_exact_entries(one):
    m = Matrix(1, 1, (one,))
    assert rank(m) == 1
    assert (m.re, m.im, m.d) == (((1,),), ((0,),), 1)
    assert Matrix(2, 2, (one, 0, 0, one)) == Matrix.identity(2)
    assert hash(Matrix(2, 2, (one, 0, 0, one))) == hash(Matrix.identity(2))


def test_superop_of_an_int_matrix():
    phi = SuperOp(1, Matrix(1, 1, (2,)))
    assert phi.apply(Matrix(1, 1, (Fraction(3, 4),))) == Matrix(1, 1, (Fraction(3, 2),))


@pytest.mark.parametrize("entry", [1.5, "1", None, 1j])
def test_constructor_rejects_inexact_entries(entry):
    with pytest.raises(TypeError):
        Matrix(1, 1, (entry,))
    with pytest.raises(TypeError):
        Matrix.from_rows([[0, entry]])


def test_repr_shows_the_entries():
    """repr names the entries, as when a Matrix stored them, each as a
    GaussianRational call that evaluates back to it."""
    m = Matrix.from_rows([[1, Fraction(-1, 2)], [GaussianRational(0, 3), 0]])
    assert repr(m) == (
        "Matrix(rows=2, cols=2, entries=(GaussianRational(1), GaussianRational(Fraction(-1, 2)), "
        "GaussianRational(0, 3), GaussianRational(0)))"
    )
