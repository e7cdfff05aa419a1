"""The rows a Matrix stores and the image SuperOp.apply gives, against
references that share no code with the package.

The rows (re, im, d) that the L of each kind of map and each kind of
probe hold must be the canonical rows of the entries they read out
(to_rows; reference.assert_form: one scale d > 0 with gcd 1; the other
builders are compared in test_matrix_form), and SuperOp.apply must be
in that form, on drawn maps and probes, the image of
the independent reference (reference.py), a plain sum over the Fraction
pairs of L and vec(A), not linalg._products, the product kernel that
SuperOp.apply runs. superop._image_mod_p, a sum of L's packed residue
columns with unreduced fields, must give the residues of that image over
its scale d * e; at the carry limit it is compared with the reference
image of the residues, as Gaussian integers, mod p, and it goes with the
diagonal shift through superop._regular_mod_p.

Eliminations divide each row by its content, so rows over one common
scale reach Bareiss no larger than rows over their own scales would.
"""

import random
from itertools import chain
from math import gcd

from hypothesis import given
from hypothesis import strategies as st

import reference
from fixpres import (
    Matrix,
    SuperOp,
    derive_rng,
    fixed_space,
    random_invertible,
    random_matrix,
    similarity_superop,
    transpose_similarity_superop,
)
from fixpres import linalg
from fixpres.linalg import (
    _FAST,
    _fields,
    _packed,
    _regular_rows_mod_p,
    _residues,
    inverse,
    rank,
    rref,
)
from fixpres.preserver import structured_probes
from fixpres.superop import _image_mod_p, _regular_mod_p

from conftest import (
    MIXED_DENOMINATORS,
    assert_image_matches_reference,
    colliding,
    full_rank_mod,
    matrices,
    nonzero_scalars,
    pairs,
    prime_row_random,
    prime_row_similarity,
    vec_mod_p,
)
from reference import assert_form


# ---------------------------------------------------------------------------
# inputs

MAP_KINDS = (
    "random",
    "similarity",
    "transpose-similarity",
    "prime-row-similarity",
    "prime-row-random",
)


@st.composite
def maps(draw, max_side=4):
    """Random maps, similarities and transpose-similarities with a drawn
    scale, and the conftest maps whose rows of L sit over distinct primes;
    n = 1 gives 1 x 1 inputs."""
    kind = draw(st.sampled_from(MAP_KINDS))
    n = draw(st.integers(1, max_side))
    seed = draw(st.integers(0, 2**32))
    if kind == "random":
        return SuperOp(n, random_matrix(derive_rng(seed, "integer-rows", n), n * n, n * n))
    if kind == "prime-row-similarity":
        return prime_row_similarity(n, seed)
    if kind == "prime-row-random":
        return prime_row_random(n, seed)
    s = random_invertible(derive_rng(seed, "integer-rows-s", n), n)
    build = similarity_superop if kind == "similarity" else transpose_similarity_superop
    return build(s, draw(nonzero_scalars))


# Entries that vanish mod the fast prime p: p, and r - i with i -> r.
_COLLIDING = colliding(_FAST)[:2]


@st.composite
def probes(draw, n):
    """An n x n probe: the zero matrix, a matrix unit, a structured probe,
    a probe from the random stream, one from the shared strategy, or a
    random probe with some entries replaced by colliding ones."""
    kind = draw(st.sampled_from(["zero", "unit", "structured", "stream", "drawn", "colliding"]))
    if kind == "zero":
        return Matrix.zeros(n, n)
    if kind == "unit":
        index = st.integers(0, n - 1)
        return Matrix.unit(n, draw(index), draw(index))
    if kind == "structured":
        return draw(st.sampled_from(structured_probes(n)))
    if kind == "drawn":
        return draw(matrices(rows=n, cols=n))
    rng = random.Random(draw(st.integers(0, 2**32)))
    a = random_matrix(rng, n, n)
    if kind == "stream":
        return a
    entries = list(a.entries)
    for _ in range(draw(st.integers(1, n * n))):
        entries[rng.randrange(n * n)] = rng.choice(_COLLIDING)
    return Matrix(n, n, tuple(entries))


# ---------------------------------------------------------------------------
# scaling: a Matrix holds the canonical rows of the entries it reads out

@given(maps())
def test_scaling_of_l_matches_reference(phi):
    assert_form(phi.matrix, pairs(phi.matrix.to_rows()), phi.n * phi.n)


@given(st.data())
def test_scaling_of_probes_matches_reference(data):
    a = data.draw(probes(data.draw(st.integers(1, 5))))
    assert_form(a, pairs(a.to_rows()), a.cols)


# ---------------------------------------------------------------------------
# the exact image

@given(maps(), st.data())
def test_gathered_image_matches_reference(phi, data):
    assert_image_matches_reference(phi, data.draw(probes(phi.n)))


@given(maps(max_side=3))
def test_gathered_image_of_every_structured_probe_and_unit_matches_reference(phi):
    n = phi.n
    units = [Matrix.unit(n, i, j) for i in range(n) for j in range(n)]
    for a in [Matrix.zeros(n, n), *units, *structured_probes(n)]:
        assert_image_matches_reference(phi, a)


# ---------------------------------------------------------------------------
# the packed image mod p

@given(maps(), st.data())
def test_packed_image_mod_p_is_the_exact_image_mod_p(phi, data):
    n = phi.n
    a = data.draw(probes(n))
    packed = _image_mod_p(phi._residue_columns, vec_mod_p(a, _FAST))
    fields = [x % _FAST.p for x in _fields(packed, n * n, _FAST)]
    # the reference image's Gaussian integers over the scale of L times a's
    scale = phi.matrix.d * a.d
    image = reference.apply(reference.rows(phi.matrix), reference.rows(a))
    re = [[x * scale for x, _ in row] for row in image]
    im = [[y * scale for _, y in row] for row in image]
    assert all(x.denominator == 1 for row in re + im for x in row)
    assert [fields[i::n] for i in range(n)] == _residues(re, im, _FAST)


def test_packed_image_mod_p_carries_at_n_16():
    """Every residue of L and of the probe is p - 1, so each of the 256
    fields of the packed sum takes 256 products (p - 1)**2, the most it
    can hold; the image is 256 * (p - 1)**2 = 256 mod p in every entry.

    Cut into columns with the diagonal shift p - e % p added, the
    unreduced fields go through the kernel as they are: the matrix mod p
    is 256 - e on the diagonal and 256 elsewhere, of full rank unless e is
    16 * 256 or 0 mod p. At e = p the shift is p itself, so each diagonal
    field starts at 256 * (p - 1)**2 + p. p is the fast prime, whose
    32-bit fields hold the probe certificates."""
    n, side, p = 16, 256, _FAST.p
    residues = [[p - 1] * side for _ in range(side)]
    a = [[p - 1] * n for _ in range(n)]
    image = _image_mod_p([_packed(column, _FAST) for column in zip(*residues)], [p - 1] * side)
    assert _fields(image, side, _FAST) == (side * (p - 1) ** 2,) * side
    fields = [x % p for x in _fields(image, side, _FAST)]
    # the reference image of the residues, as Gaussian integers, mod p
    l_pairs, a_pairs = ([[(x, 0) for x in row] for row in m] for m in (residues, a))
    expected = [[x % p for x, _ in row] for row in reference.apply(l_pairs, a_pairs)]
    assert [fields[i::n] for i in range(n)] == expected
    assert expected == [[side] * n] * n
    for e, full in ((1, True), (n * side, False), (p, False), (p + 1, True)):
        shifted = Matrix.from_rows([[side - e * (i == j) for j in range(n)] for i in range(n)])
        assert full_rank_mod(shifted, _FAST) == full
        assert _regular_mod_p(image, n, e) == full
    # 256 rows is the widest layout of a field: a wider matrix is not
    # tried, and the answer False proves nothing, even for the identity
    eye = Matrix.identity(side + 1)
    assert not _regular_rows_mod_p(eye.re, eye.im)


# ---------------------------------------------------------------------------
# what Bareiss receives

def _bits(re: list[list[int]], im: list[list[int]]) -> int:
    return max((abs(x).bit_length() for rows in (re, im) for row in rows for x in row), default=0)


def _reference_bits(m: Matrix) -> int:
    """The largest bit length of the rows of m, each over its own scale
    (the reference's integers of that row alone) and divided by its
    content."""
    rows = [reference.integers([row])[0][0] for row in reference.rows(m)]
    contents = [gcd(*chain(*row)) or 1 for row in rows]
    return max((abs(x // g).bit_length() for row, g in zip(rows, contents)
                for z in row for x in z), default=0)


def test_bareiss_rows_over_a_common_scale_are_no_larger_than_per_row(monkeypatch):
    """Row 0 of the mixed-denominator matrix is over an lcm near 10**240
    and rows 1 and 2 are integers, so the common scale multiplies them by
    about 2**800; the content division takes that off again. rank and
    fixed_space run Bareiss only on what the test mod p cannot prove
    invertible, so they take the singular matrix whose row 2 is twice
    row 1, over the same scale."""
    m = MIXED_DENOMINATORS
    rows = m.to_rows()
    singular = Matrix.from_rows([rows[0], rows[1], [2 * x for x in rows[1]]])
    assert (singular.d, rank(m), rank(singular)) == (m.d, 3, 2)
    received = []
    bareiss = linalg._bareiss

    def recorded(re, im, n_cols, reduce):
        received.append(_bits(re, im))
        return bareiss(re, im, n_cols, reduce)

    monkeypatch.setattr(linalg, "_bareiss", recorded)
    for op, arg, eliminated in (
        (rank, singular, singular),
        (rref, m, m),
        # the fixed space of a + I eliminates the shifted rows, which are a's
        (lambda a: fixed_space(a + Matrix.identity(3)), singular, singular),
        (inverse, m, m.hstack(Matrix.identity(3))),
    ):
        received.clear()
        op(arg)
        assert len(received) == 1
        assert received[0] <= _reference_bits(eliminated)
