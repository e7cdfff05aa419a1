"""Every Matrix builder and operation returns canonical Gaussian-integer
rows, and every exact-layer call rejects bad input.

A Matrix stores (re + i*im) / d with gcd(d, every entry) = 1. The
builders, the sum, difference, negation, scalar product, transpose,
hstack, precompose_transpose (at every supported side) and SuperOp.apply
(at sides 1..8) must return rows in that form whose values equal the
independent reference's (reference.py), computed on plain rows of
Fraction pairs. The product is compared in test_product, the
eliminations in test_elimination and kron, vec/unvec and realign in
test_layout. The constructor coerces ints and Fractions and rejects any
other entry; test_bad_input_raises holds the exact layer's bad sizes,
shapes, indices and operands in one table; the reference imports
nothing from the package.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import reference
from fixpres import (
    GaussianRational,
    Matrix,
    NotSquare,
    SingularMatrix,
    SizeMismatch,
    Subspace,
    SuperOp,
    completion_idempotent,
    derive_rng,
    random_matrix,
    similarity_superop,
)
from fixpres.linalg import rank, rank_one
from fixpres.preserver import structured_probes
from fixpres.sampling import DENOMINATORS
from fixpres.scalars import ONE
from fixpres.superop import precompose_transpose

from conftest import labelled, matrices, pair, pairs, scalars
from reference import ZERO, assert_form, rows

# ---------------------------------------------------------------------------
# builders

@given(matrices())
def test_from_rows(m):
    grid = m.to_rows()
    assert_form(Matrix.from_rows(grid), pairs(grid), m.cols)


def test_from_rows_and_indexing():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    assert m[0, 1] == GaussianRational(2)
    assert m[1, 0] == GaussianRational(3)


def test_zero_dimensional_matrices_allowed():
    empty = Matrix(3, 0, ())
    assert empty.cols == 0
    assert empty.transpose().rows == 0


@given(st.integers(1, 4))
def test_identity(n):
    assert_form(Matrix.identity(n), reference.identity(n), n)


@given(st.integers(1, 4), st.data())
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
    a = data.draw(matrices())
    b = data.draw(matrices(a.rows, a.cols))
    zipped = [list(zip(p, q)) for p, q in zip(rows(a), rows(b))]
    assert_form(a + b, [[reference.add(*xy) for xy in row] for row in zipped], a.cols)
    assert_form(a - b, [[reference.sub(*xy) for xy in row] for row in zipped], a.cols)
    assert_form(-a, [[reference.sub(ZERO, x) for x in row] for row in rows(a)], a.cols)
    # a - a cancels to the zero matrix, whose only canonical scale is 1
    assert_form(a - a, [[ZERO] * a.cols for _ in range(a.rows)], a.cols)


@given(matrices(), st.one_of(scalars, st.integers(-9, 9), st.fractions(max_denominator=12)))
def test_scalar_product(a, s):
    expected = [[reference.mul(pair(s), x) for x in row] for row in rows(a)]
    assert_form(s * a, expected, a.cols)
    assert_form(a * s, expected, a.cols)


@given(matrices())
def test_transpose(a):
    assert_form(a.transpose(), [list(col) for col in zip(*rows(a))], a.rows)


@given(st.data())
def test_hstack(data):
    a = data.draw(matrices())
    b = data.draw(matrices(rows=a.rows))
    assert_form(a.hstack(b), [p + q for p, q in zip(rows(a), rows(b))], a.cols + b.cols)


def test_precompose_transpose():
    """At every supported side, on the labelled L over 12: its entries are
    distinct, so a gather, which keeps L's scale, is pinned integer by
    integer."""
    for n in range(1, 17):
        l = labelled(n * n, 12)
        got = precompose_transpose(l, n)
        expected = [tuple(map(tuple, reference.precompose_transpose(part, n)))
                    for part in (l.re, l.im)]
        assert [got.re, got.im, got.d] == [*expected, 12]


def test_apply():
    """At sides 1..8, the labelled L over 12 applied to the labelled A over
    35: no two products of an entry of L with one of A are equal, so each
    image entry is pinned term by term."""
    for n in range(1, 9):
        l, a = labelled(n * n, 12), labelled(n, 35)
        assert_form(SuperOp(n, l).apply(a), reference.apply(rows(l), rows(a)), n)


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


# ---------------------------------------------------------------------------
# bad sizes, shapes, indices and operands

@pytest.mark.parametrize("call,error", [
    pytest.param(lambda: Matrix(2, 2, (0,)), ValueError, id="entry-count"),
    pytest.param(lambda: Matrix(-1, 2, ()), ValueError, id="negative-size"),
    pytest.param(lambda: Matrix.zeros(-1, 2), ValueError, id="zeros-negative-size"),
    pytest.param(lambda: Matrix.identity(-1), ValueError, id="identity-negative-size"),
    pytest.param(lambda: Matrix.unit(-1, 0, 0), ValueError, id="unit-negative-size"),
    pytest.param(lambda: Matrix.unit(3, -1, 0), IndexError, id="unit-negative-index"),
    pytest.param(lambda: Matrix.unit(3, 0, 3), IndexError, id="unit-index-past-side"),
    pytest.param(lambda: Matrix.from_rows([[1], [1, 2]]), ValueError, id="ragged-rows"),
    pytest.param(lambda: Matrix.zeros(2, 2)[2, 0], IndexError, id="index-out-of-range"),
    pytest.param(lambda: Matrix.zeros(2, 3) + Matrix.zeros(3, 2), SizeMismatch, id="sum-shape"),
    pytest.param(lambda: Matrix.zeros(2, 3) @ Matrix.zeros(2, 3), SizeMismatch, id="matmul-shape"),
    pytest.param(lambda: Matrix.zeros(2, 1).hstack(Matrix.zeros(3, 1)), SizeMismatch,
                 id="hstack-rows"),
    pytest.param(lambda: Matrix.zeros(1, 1) + 1, TypeError, id="sum-operand"),
    pytest.param(lambda: Matrix.zeros(1, 1) - 1, TypeError, id="difference-operand"),
    pytest.param(lambda: Matrix.zeros(1, 1) @ 1, TypeError, id="matmul-operand"),
    pytest.param(lambda: ONE + "1", TypeError, id="scalar-sum-operand"),
    pytest.param(lambda: ONE - "1", TypeError, id="scalar-difference-operand"),
    pytest.param(lambda: "1" - ONE, TypeError, id="scalar-reflected-difference-operand"),
    pytest.param(lambda: ONE / "1", TypeError, id="scalar-quotient-operand"),
    pytest.param(lambda: "1" / ONE, TypeError, id="scalar-reflected-quotient-operand"),
    pytest.param(lambda: Subspace(3, Matrix.zeros(2, 0)), ValueError, id="subspace-basis"),
    pytest.param(lambda: rank_one(Matrix.column([1]), Matrix.column([1, 2])), SizeMismatch,
                 id="rank-one-f-not-a-row"),
    pytest.param(lambda: completion_idempotent(Matrix.zeros(2, 3), Matrix.column([1, 0])),
                 NotSquare, id="completion-not-square"),
    pytest.param(lambda: completion_idempotent(Matrix.identity(2), Matrix.column([1, 0, 0])),
                 SizeMismatch, id="completion-x-shape"),
    pytest.param(lambda: SuperOp(0, Matrix.zeros(0, 0)), ValueError, id="superop-side-0"),
    pytest.param(lambda: SuperOp(17, Matrix.zeros(0, 0)), ValueError, id="superop-side-17"),
    pytest.param(lambda: similarity_superop(Matrix.zeros(2, 3), 1), SingularMatrix,
                 id="similarity-s-not-square"),
    pytest.param(lambda: precompose_transpose(Matrix.zeros(3, 3), 2), SizeMismatch,
                 id="precompose-transpose-shape"),
    pytest.param(lambda: structured_probes(0), ValueError, id="structured-probes-side-0"),
])
def test_bad_input_raises(call, error):
    with pytest.raises(error):
        call()


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
