"""The fraction-free product kernel against the independent reference.

Matrix @ and SuperOp.apply, which share the one kernel linalg._products,
must give exactly what the reference (reference.py), the oracle's sum
of Fraction-pair products per entry, gives. This is the one comparison
of Matrix @ with the reference; its drawn operands span the entry
families below, and test_matrix_form compares SuperOp.apply at sides
1..8.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import reference
from fixpres import (
    GaussianRational,
    Matrix,
    SuperOp,
    derive_rng,
    random_matrix,
)
from fixpres.linalg import _FAST, _fields, inverse, kron, rank
from fixpres.superop import _image_mod_p

from conftest import (
    MIXED_DENOMINATORS,
    assert_image_matches_reference,
    imaginary_scalars,
    matrices,
    prime_row_random,
    real_scalars,
    scalars,
    vec_mod_p,
)
from reference import assert_form


def assert_matches_reference(a: Matrix, b: Matrix) -> None:
    expected = reference.matmul(reference.rows(a), reference.rows(b), b.cols)
    assert_form(a @ b, expected, b.cols)


# ---------------------------------------------------------------------------
# inputs

wide_fractions = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=97
)
wide_scalars = st.builds(GaussianRational, wide_fractions, wide_fractions)


@st.composite
def operands(draw):
    """A pair (a, b) with a.cols == b.rows: any sides 0..5 with complex,
    real or imaginary entries; a matrix unit on either side, or both, of a
    square product; or the L of a similarity, kron(inverse(S).T, S) for S
    over wide denominators, times vec(A) or a square."""
    kind = draw(st.sampled_from(["dense", "unit", "similarity"]))
    if kind == "dense":
        entries = draw(st.sampled_from([scalars, real_scalars, imaginary_scalars]))
        r, k, c = (draw(st.integers(0, 5)) for _ in range(3))
        return draw(matrices(r, k, entries=entries)), draw(matrices(k, c, entries=entries))
    if kind == "unit":
        n = draw(st.integers(1, 4))
        index = st.integers(0, n - 1)
        unit = st.builds(Matrix.unit, st.just(n), index, index)
        a, b = draw(unit), draw(st.one_of(unit, matrices(n, n)))
        return draw(st.sampled_from([(a, b), (b, a)]))
    n = draw(st.integers(1, 3))
    s = draw(matrices(n, n, entries=wide_scalars))
    assume(rank(s) == n)
    side = n * n
    b = draw(matrices(side, draw(st.sampled_from([1, side])), entries=wide_scalars))
    return kron(inverse(s).transpose(), s), b


@given(operands())
@example((MIXED_DENOMINATORS, MIXED_DENOMINATORS))
@example((MIXED_DENOMINATORS.transpose(), MIXED_DENOMINATORS))
def test_random_products_match_reference(pair):
    assert_matches_reference(*pair)


@pytest.mark.parametrize(
    "left,right", [((0, 3), (3, 2)), ((2, 0), (0, 3)), ((3, 2), (2, 0)), ((0, 0), (0, 0))]
)
def test_empty_shapes_match_reference(left, right):
    a, b = Matrix.zeros(*left), Matrix.zeros(*right)
    assert_matches_reference(a, b)
    assert a @ b == Matrix.zeros(left[0], right[1])


# ---------------------------------------------------------------------------
# superoperator application

@pytest.mark.parametrize("seed", range(5))
def test_apply_each_matches_apply(seed):
    """apply gives the reference product's image of each of several
    matrices, and _image_mod_p, from L's packed residue columns made once,
    the residues of that exact image brought back to its scale l.d * m.d."""
    rng = derive_rng(seed, "apply-each")
    n = 3
    phi = SuperOp(n, random_matrix(rng, n * n, n * n))
    ms = [random_matrix(rng, n, n) for _ in range(4)] + [Matrix.zeros(n, n)]
    l = phi.matrix
    columns = phi._residue_columns
    for m in ms:
        image = phi.apply(m)
        scale = l.d * m.d
        assert scale % image.d == 0
        # the image's Gaussian integers over the scale l.d * m.d
        b = image * scale
        assert b.d == 1
        fields = _fields(_image_mod_p(columns, vec_mod_p(m, _FAST)), n * n, _FAST)
        assert [x % _FAST.p for x in fields] == vec_mod_p(b, _FAST)
    assert phi._residue_columns is columns
    for m in ms:
        assert_image_matches_reference(phi, m)


def test_apply_over_a_common_scale_matches_reference():
    # Row r of L is over the r-th prime, so L's common scale is far above
    # each row's own, and every image row is over that common scale.
    phi = prime_row_random(3)
    for k in range(3):
        assert_image_matches_reference(phi, random_matrix(derive_rng(k, "common-scale"), 3, 3))
