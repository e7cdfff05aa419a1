"""The rows a Matrix stores and the image SuperOp.apply gives, against
references that share no code with the package.

reference_common_integer_rows scales each row over its own lcm with
reference_integer_rows and then rescales every row to the lcm of those
scales. reference_image dots every row of L with all of vec(A), zero
entries included, as a plain sum, not through linalg._products, the
product kernel that SuperOp.apply runs. The rows (re, im, d) that a
Matrix holds must be exactly what these give, scales included, and
SuperOp.apply must be the reference image put on its canonical scale.
superop._image_mod_p, a sum of L's packed residue columns with
unreduced fields, must give the residues of the reference image over
its scale d * e; at the carry limit it is compared with
reference_image_mod_p, one dense dot product per row of residues, and
it goes with the diagonal shift through superop._regular_mod_p.

Eliminations divide each row by its content, so rows over one common
scale reach Bareiss no larger than rows over their own scales would.
"""

import random
from math import gcd, lcm
from operator import mul

from hypothesis import given
from hypothesis import strategies as st

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
    _over,
    _packed,
    _residues,
    inverse,
    rank,
    rref,
)
from fixpres.preserver import structured_probes
from fixpres.superop import _image_mod_p, _regular_mod_p

from conftest import (
    MIXED_DENOMINATORS,
    colliding,
    matrices,
    nonzero_scalars,
    prime_row_random,
    prime_row_similarity,
    reference_full_rank_mod_p,
    vec_mod_p,
)


# ---------------------------------------------------------------------------
# references

def reference_integer_rows(m: Matrix) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """Real and imaginary parts of m with each row scaled to Gaussian
    integers by the lcm of its own denominators, and those scales."""
    re_rows, im_rows, scales = [], [], []
    c = m.cols
    for i in range(m.rows):
        row = m.entries[i * c : (i + 1) * c]
        scale = lcm(*(q.denominator for z in row for q in (z.re, z.im)))
        re_rows.append([z.re.numerator * (scale // z.re.denominator) for z in row])
        im_rows.append([z.im.numerator * (scale // z.im.denominator) for z in row])
        scales.append(scale)
    return re_rows, im_rows, scales


def reference_common_integer_rows(a: Matrix) -> tuple[list[list[int]], list[list[int]], int]:
    re, im, scales = reference_integer_rows(a)
    e = lcm(*scales)
    return (
        [row if s == e else [x * (e // s) for x in row] for row, s in zip(re, scales)],
        [row if s == e else [x * (e // s) for x in row] for row, s in zip(im, scales)],
        e,
    )


def reference_image(phi: SuperOp, a_re: list[list[int]], a_im: list[list[int]], e: int):
    n = phi.n
    digits = range(n)
    # vec(A)[j*n + i] = A[i][j]
    u = [a_re[i][j] for j in digits for i in digits]
    v = [a_im[i][j] for j in digits for i in digits]
    l = phi.matrix
    b_re = [sum(p * x - q * y for p, q, x, y in zip(*row, u, v)) for row in zip(l.re, l.im)]
    b_im = [sum(p * y + q * x for p, q, x, y in zip(*row, u, v)) for row in zip(l.re, l.im)]
    return [b_re[i::n] for i in digits], [b_im[i::n] for i in digits], l.d * e


def reference_image_mod_p(residues: list[list[int]], a: list[list[int]]):
    """The image mod the fast prime, in which the probe certificates run,
    of the probe residues a through the residue rows of L."""
    n = len(a)
    digits = range(n)
    u = [a[i][j] for j in digits for i in digits]
    b = [sum(map(mul, row, u)) % _FAST.p for row in residues]
    return [b[i::n] for i in digits]


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
# scaling

def stored_rows(m: Matrix) -> tuple[list[list[int]], list[list[int]], int]:
    """The rows (re, im) and scale d that m holds, as lists."""
    return list(map(list, m.re)), list(map(list, m.im)), m.d


@given(maps())
def test_scaling_of_l_matches_reference(phi):
    assert stored_rows(phi.matrix) == reference_common_integer_rows(phi.matrix)


@given(matrices())
def test_scaling_of_drawn_matrices_matches_reference(m):
    assert stored_rows(m) == reference_common_integer_rows(m)


@given(matrices(rows=1, cols=1))
def test_scaling_of_one_by_one_matches_reference(m):
    assert stored_rows(m) == reference_common_integer_rows(m)


@given(st.data())
def test_scaling_of_probes_matches_reference(data):
    a = data.draw(probes(data.draw(st.integers(1, 5))))
    assert stored_rows(a) == reference_common_integer_rows(a)


# ---------------------------------------------------------------------------
# the exact image

@given(maps(), st.data())
def test_gathered_image_matches_reference(phi, data):
    a = data.draw(probes(phi.n))
    assert phi.apply(a) == _over(*reference_image(phi, *stored_rows(a)), phi.n)


@given(maps(max_side=3))
def test_gathered_image_of_every_structured_probe_and_unit_matches_reference(phi):
    n = phi.n
    units = [Matrix.unit(n, i, j) for i in range(n) for j in range(n)]
    for a in [Matrix.zeros(n, n), *units, *structured_probes(n)]:
        assert phi.apply(a) == _over(*reference_image(phi, *stored_rows(a)), n)


# ---------------------------------------------------------------------------
# the packed image mod p

@given(maps(), st.data())
def test_packed_image_mod_p_is_the_exact_image_mod_p(phi, data):
    n = phi.n
    a = data.draw(probes(n))
    re, im, e = stored_rows(a)
    image = _image_mod_p(phi._residue_columns, vec_mod_p(a, _FAST))
    fields = [x % _FAST.p for x in _fields(image, n * n, _FAST)]
    expected = _residues(*reference_image(phi, re, im, e)[:2], _FAST)
    assert [fields[i::n] for i in range(n)] == expected


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
    assert [fields[i::n] for i in range(n)] == reference_image_mod_p(residues, a)
    assert reference_image_mod_p(residues, a) == [[side] * n] * n
    for e, full in ((1, True), (n * side, False), (p, False), (p + 1, True)):
        shifted = Matrix.from_rows([[side - e * (i == j) for j in range(n)] for i in range(n)])
        assert reference_full_rank_mod_p(shifted, _FAST) == full
        assert _regular_mod_p(image, n, e) == full


# ---------------------------------------------------------------------------
# what Bareiss receives

def _bits(re: list[list[int]], im: list[list[int]]) -> int:
    return max((abs(x).bit_length() for rows in (re, im) for row in rows for x in row), default=0)


def _reference_bits(m: Matrix) -> int:
    """The largest bit length of the rows of m, each over its own scale
    and divided by its content."""
    re, im, _ = reference_integer_rows(m)
    contents = [gcd(*row_re, *row_im) or 1 for row_re, row_im in zip(re, im)]
    return _bits(
        [[x // g for x in row] for row, g in zip(re, contents)],
        [[x // g for x in row] for row, g in zip(im, contents)],
    )


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
