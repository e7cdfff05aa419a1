"""SuperOp holds L as a Matrix in canonical Gaussian-integer rows, from
every builder.

The builders make those rows with integer Matrix operations:
identity_superop, kron in similarity_superop, precompose_transpose in
transpose_similarity_superop, the integer parts of the CLI reader over
their canonical scale, and random_matrix. Each must give the map that
SuperOp(n, m) gives for the matrix m of the same map built by the
independent reference (reference.py) where there is one, with equal
hashes; phi.matrix must be m entrywise, and the CLI's document must
round-trip.
"""

import random
from fractions import Fraction
from math import lcm

from hypothesis import given
from hypothesis import strategies as st

import reference
from fixpres import cli
from fixpres import (
    GaussianRational,
    Matrix,
    SuperOp,
    derive_rng,
    identity_superop,
    parse_scalar,
    random_invertible,
    random_matrix,
    similarity_superop,
    transpose_similarity_superop,
)
from fixpres.cli import matrix_to_doc, superop_from_doc, superop_to_doc
from fixpres.linalg import _canonical_integers

from conftest import matrix_of, similarity_rows
from reference import assert_form

SCALES = (1, -1, GaussianRational(0, 1))


def noncanonical_doc(n: int, m: Matrix, rng: random.Random) -> dict:
    """A superoperator document of m whose every part is written over a
    denominator multiplied by a drawn factor, so no string is canonical
    unless the factor is 1."""

    def write(q: Fraction) -> str:
        k = rng.choice((1, 2, 3, 7, 10**40 + 3))
        return f"{q.numerator * k}/{q.denominator * k}"

    texts = [f"{write(z.re)}{'+' if z.im >= 0 else '-'}{write(abs(z.im))}i" for z in m.entries]
    side = n * n
    return {
        "n": n,
        "vec_convention": "column",
        "L": {
            "n_rows": side,
            "n_cols": side,
            "entries": [texts[r * side : (r + 1) * side] for r in range(side)],
        },
    }


@st.composite
def built_maps(draw):
    """(phi, m): a map from one of the builders and the matrix of the same
    map from the reference (similarities) or the package (the rest)."""
    n = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32))
    kind = draw(st.sampled_from(["identity", "similarity", "transpose", "random", "cli"]))
    if kind == "identity":
        return identity_superop(n), Matrix.identity(n * n)
    if kind in ("similarity", "transpose"):
        s = random_invertible(derive_rng(seed, "canonical-s", n), n)
        scale = draw(st.sampled_from(SCALES))
        rows = similarity_rows(s, scale)
        if kind == "similarity":
            return similarity_superop(s, scale), matrix_of(rows, n * n)
        rows = reference.precompose_transpose(rows, n)
        return transpose_similarity_superop(s, scale), matrix_of(rows, n * n)
    m = random_matrix(derive_rng(seed, "canonical-random", n), n * n, n * n)
    if kind == "random":
        return SuperOp(n, m), m
    return superop_from_doc(noncanonical_doc(n, m, random.Random(seed))), m


@given(built_maps())
def test_every_builder_gives_the_map_of_its_matrix(case):
    phi, m = case
    assert phi == SuperOp(phi.n, phi.matrix) == SuperOp(phi.n, m)
    assert hash(phi) == hash(SuperOp(phi.n, m))


@given(built_maps())
def test_matrix_view_is_the_reference_construction(case):
    phi, m = case
    assert phi.matrix.entries == m.entries


@given(built_maps())
def test_rows_are_canonical(case):
    phi, m = case
    assert_form(phi.matrix, reference.rows(m), phi.n * phi.n)


@given(built_maps())
def test_document_round_trips(case):
    phi, m = case
    doc = superop_to_doc(phi)
    assert doc["L"] == matrix_to_doc(m)
    assert superop_from_doc(doc) == phi


def test_reader_takes_the_canonical_rows_of_mixed_denominators():
    """Non-canonical strings and denominators near 10**40 in one document:
    the reader's rows are the ones that scaling the parsed matrix gives."""
    big = 10**40 + 9
    texts = [
        "2/4", "-6/3", "0/7", "4/2i", "1/2-3/6i", f"{2 * big}/{4 * big}", f"3/{big}i", "0", "7"
    ]
    rng = random.Random(0)
    for k in range(20):
        entries = [rng.choices(texts[: 3 + k % 7], k=9) for _ in range(9)]
        doc = {"n": 3, "vec_convention": "column",
               "L": {"n_rows": 9, "n_cols": 9, "entries": entries}}
        m = Matrix(9, 9, tuple(parse_scalar(t) for row in entries for t in row))
        phi = superop_from_doc(doc)
        assert phi == SuperOp(3, m)
        assert phi.matrix == m


def test_reader_never_builds_a_scale_beyond_the_canonical_one(monkeypatch):
    """81 entries k/k over distinct primes k read as the all-ones L with
    scale 1, and the scale the reader builds its Matrix over is already 1,
    not the lcm of the 81 primes as written."""
    sieve = bytearray([1]) * 10**4
    sieve[:2] = b"\0\0"
    for p in range(2, 100):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, 10**4, p)))
    primes = [p for p in range(10**4) if sieve[p]][-81:]
    texts = [f"{p}/{p}" for p in primes]
    doc = {"n": 3, "vec_convention": "column",
           "L": {"n_rows": 9, "n_cols": 9, "entries": [texts[r * 9 : r * 9 + 9] for r in range(9)]}}
    scales = []
    matrix = cli._matrix
    monkeypatch.setattr(
        cli, "_matrix", lambda cols, re, im, d: scales.append(d) or matrix(cols, re, im, d)
    )
    phi = superop_from_doc(doc)
    assert scales == [1]
    assert phi.matrix.d == 1
    assert phi.matrix.re == ((1,) * 9,) * 9 and phi.matrix.im == ((0,) * 9,) * 9


@given(st.lists(st.tuples(
    st.integers(-50, 50), st.integers(1, 12), st.integers(-50, 50), st.integers(1, 12),
    st.sampled_from((1, 2, 7, 10**40 + 3)), st.sampled_from((1, 3, 10**20 + 39)),
), max_size=12))
def test_canonical_integers_match_the_reduced_fractions(draws):
    """However each part is written, the scale is the lcm of the reduced
    denominators and every entry is its value times that scale."""
    parts = [(a * k, b * k, c * h, e * h) for a, b, c, e, k, h in draws]
    re, im, d = _canonical_integers(parts)
    values = [(Fraction(a, b), Fraction(c, e)) for a, b, c, e, _, _ in draws]
    assert d == lcm(1, *(q.denominator for pair in values for q in pair))
    assert [(Fraction(x, d), Fraction(y, d)) for x, y in zip(re, im)] == values


def test_zero_map_has_scale_one():
    doc = {"n": 1, "vec_convention": "column",
           "L": {"n_rows": 1, "n_cols": 1, "entries": [["0/7"]]}}
    phi = superop_from_doc(doc)
    assert (phi.matrix.re, phi.matrix.im, phi.matrix.d) == (((0,),), ((0,),), 1)
    assert similarity_superop(Matrix.identity(2), 0) == SuperOp(2, Matrix.zeros(4, 4))
