"""Every Matrix builder and operation returns canonical Gaussian-integer rows.

A Matrix stores (re + i*im) / d with gcd(d, every entry) = 1. Each
builder and operation below, at sides 1..4, must return rows in that form
whose values equal the independent reference's (reference.py), computed
on plain rows of Fraction pairs. The constructor itself coerces ints and
Fractions and rejects any other entry; the reference imports nothing from
the package.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import reference
from fixpres import GaussianRational, Matrix, SuperOp, derive_rng, fixed_space, random_matrix
from fixpres.linalg import inverse, kron, rank, rref
from fixpres.sampling import DENOMINATORS
from fixpres.scalars import ONE
from fixpres.superop import precompose_transpose

from conftest import pair, pairs, scalars
from reference import ZERO, assert_form

Rows = list[list[GaussianRational]]

sides = st.integers(1, 4)


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
# builders

@given(grids())
def test_from_rows(rows):
    assert_form(matrix(rows), pairs(rows), len(rows[0]))


@given(sides)
def test_identity(n):
    assert_form(Matrix.identity(n), reference.identity(n), n)


@given(sides, st.data())
def test_unit(n, data):
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    expected = [[reference.ONE if (r, c) == (i, j) else ZERO for c in range(n)] for r in range(n)]
    assert_form(Matrix.unit(n, i, j), expected, n)


@given(st.lists(scalars, min_size=1, max_size=4))
def test_column(column):
    assert_form(Matrix.column(column), pairs([[z] for z in column]), 1)


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 2**32))
@example(16, 16, 7)
def test_random_matrix(rows, cols, seed):
    # each part is randint(-9, 9) / choice(DENOMINATORS), drawn in that order
    rng = derive_rng(seed, "form")

    def part() -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))

    expected = [(part(), part()) for _ in range(rows * cols)]
    grid = [expected[k * cols : (k + 1) * cols] for k in range(rows)]
    assert_form(random_matrix(derive_rng(seed, "form"), rows, cols), grid, cols)


# ---------------------------------------------------------------------------
# operations

@given(st.data())
def test_sum_difference_and_negation(data):
    a = data.draw(grids())
    b = data.draw(grids(len(a), len(a[0])))
    cols = len(a[0])
    zipped = [list(zip(p, q)) for p, q in zip(pairs(a), pairs(b))]
    assert_form(matrix(a) + matrix(b), [[reference.add(*xy) for xy in row] for row in zipped], cols)
    assert_form(matrix(a) - matrix(b), [[reference.sub(*xy) for xy in row] for row in zipped], cols)
    assert_form(-matrix(a), [[reference.sub(ZERO, x) for x in row] for row in pairs(a)], cols)
    # a - a cancels to the zero matrix, whose only canonical scale is 1
    assert_form(matrix(a) - matrix(a), [[ZERO] * cols for _ in a], cols)


@given(grids(), st.one_of(scalars, st.integers(-9, 9), st.fractions(max_denominator=12)))
def test_scalar_product(a, s):
    expected = [[reference.mul(pair(s), x) for x in row] for row in pairs(a)]
    assert_form(s * matrix(a), expected, len(a[0]))
    assert_form(matrix(a) * s, expected, len(a[0]))


@given(st.data())
def test_matmul(data):
    a = data.draw(grids())
    b = data.draw(grids(rows=len(a[0])))
    assert_form(matrix(a) @ matrix(b), reference.matmul(pairs(a), pairs(b), len(b[0])), len(b[0]))


@given(grids())
def test_transpose(a):
    assert_form(matrix(a).transpose(), [list(col) for col in zip(*pairs(a))], len(a))


@given(st.data())
def test_hstack(data):
    a = data.draw(grids())
    b = data.draw(grids(rows=len(a)))
    expected = [p + q for p, q in zip(pairs(a), pairs(b))]
    assert_form(matrix(a).hstack(matrix(b)), expected, len(a[0]) + len(b[0]))


@given(st.one_of(grids(), dependent_grids()))
def test_rref(a):
    reduced, pivots = reference.rref(pairs(a))
    m, r, got_pivots = rref(matrix(a))
    assert (r, got_pivots) == (len(pivots), tuple(pivots))
    assert_form(m, reduced, len(a[0]))


@given(sides.flatmap(lambda n: grids(n, n)))
def test_inverse(a):
    n = len(a)
    assume(reference.rank(pairs(a)) == n)
    assert_form(inverse(matrix(a)), reference.inverse(pairs(a)), n)


@given(st.one_of(sides.flatmap(lambda n: grids(n, n)), dependent_grids(square=True)))
def test_kernel_basis(a):
    """The kernel basis of a square matrix, read as the fixed space of a + I."""
    cols = len(a)
    basis = fixed_space(matrix(a) + Matrix.identity(cols)).basis
    expected = reference.kernel(pairs(a), cols)
    assert_form(basis, expected, len(expected[0]))


@given(grids(), grids())
def test_kron(a, b):
    expected = reference.kron(pairs(a), pairs(b))
    assert_form(kron(matrix(a), matrix(b)), expected, len(a[0]) * len(b[0]))


@given(sides.flatmap(lambda n: st.tuples(st.just(n), grids(n * n, n * n))))
def test_precompose_transpose(case):
    n, l = case
    expected = reference.precompose_transpose(pairs(l), n)
    assert_form(precompose_transpose(matrix(l), n), expected, n * n)


@given(sides.flatmap(lambda n: st.tuples(grids(n * n, n * n), grids(n, n))))
def test_apply(case):
    l, a = case
    n = len(a)
    assert_form(SuperOp(n, matrix(l)).apply(matrix(a)), reference.apply(pairs(l), pairs(a)), n)


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


def test_reference_imports_nothing_from_the_package():
    """The reference stays independent: no import in reference.py names fixpres."""
    tree = ast.parse(Path(reference.__file__).read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert "importlib.util" in modules
    assert not [name for name in modules if name.split(".")[0] == "fixpres"]
