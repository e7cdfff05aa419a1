"""Shared strategies for exact-scalar and small-matrix generation, and
test-only helpers: the spans, kernels, ranks mod p, probe runs and
classifications below read the independent reference (reference.py), the
other builders the package's operations, and bareiss_passes records the
exact eliminations a test makes."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from fixpres import (
    GaussianRational,
    Matrix,
    Subspace,
    SuperOp,
    derive_rng,
    random_invertible,
    random_matrix,
    similarity_superop,
)
from fixpres import linalg
from fixpres.cli import matrix_from_doc
from fixpres.linalg import _FAST, _WIDE, _Field, _over, _packed, _residues, kron
from fixpres.preserver import _structured_side, probe_suite
from fixpres.scalars import ONE, ZERO
from fixpres.superop import rank_one_factor, vec

import reference

settings.register_profile(
    "default",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture(autouse=True)
def cold_structured_side():
    """Each test starts with no structured probe's own side kept, so a test
    that patches _structured, _full_rank_mod_p or _bareiss sees the probe
    loop work it out, whatever ran before."""
    _structured_side.cache_clear()


fractions_st = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=4
)

scalars = st.builds(GaussianRational, fractions_st, fractions_st)

nonzero_scalars = scalars.filter(bool)

real_scalars = st.builds(GaussianRational, fractions_st)

imaginary_scalars = st.builds(GaussianRational, st.just(Fraction(0)), fractions_st)


@st.composite
def matrices(draw, rows=None, cols=None, max_side=4, entries=scalars, min_side=1):
    """A rows x cols Matrix of drawn entries; a side not given is drawn
    from min_side..max_side. Either side may be 0."""
    sides = st.integers(min_side, max_side)
    r = draw(sides) if rows is None else rows
    c = draw(sides) if cols is None else cols
    return Matrix(r, c, draw(st.lists(entries, min_size=r * c, max_size=r * c)))


@st.composite
def square_matrices(draw, max_side=4):
    n = draw(st.integers(1, max_side))
    return draw(matrices(rows=n, cols=n))


def labelled(side: int, d: int) -> Matrix:
    """The side x side matrix with entries (k + (k % 5 - 2)i) / d for
    k = 1, 2, ... row by row: distinct, with imaginary parts, over
    denominators that divide d, so that a gather or a product is pinned
    integer by integer."""
    re = [range(r * side + 1, (r + 1) * side + 1) for r in range(side)]
    return _over(re, [[k % 5 - 2 for k in row] for row in re], d, side)


def row_vector(values) -> Matrix:
    """The 1 x len(values) matrix with the given entries."""
    return Matrix.column(values).transpose()


def column_at(m: Matrix, j: int) -> Matrix:
    """Column j of m, as a column vector."""
    return Matrix(m.rows, 1, m.entries[j :: m.cols])


# The two fields of the tests mod p, for tests that take each in turn.
FIELDS = (_FAST, _WIDE)


def packed_rows(m: Matrix, field: _Field) -> list[int]:
    """The Gaussian-integer rows of m as residues mod field.p, each packed
    into the field's fields: what _full_rank_mod_p takes."""
    return [_packed(row, field) for row in _residues(m.re, m.im, field)]


def vec_mod_p(m: Matrix, field: _Field) -> list[int]:
    """vec(m) mod field.p over m's scale, by the reference."""
    vec = reference.vec(reference.rows(m))
    return [x for (x,) in reference.residues(vec, field.p, field.root)]


def full_rank_mod(m: Matrix, field: _Field) -> bool:
    """Whether m's Gaussian-integer rows have full rank mod field.p, by the
    reference's rank_mod."""
    return reference.rank_mod(reference.rows(m), field.p, field.root) == m.rows


@pytest.fixture
def bareiss_passes(monkeypatch) -> list:
    """Each exact elimination (linalg._bareiss pass) the test makes, as
    (rows, columns, reduce)."""
    passes, bareiss = [], linalg._bareiss

    def recorded(re, im, n_cols, reduce):
        passes.append((len(re), n_cols, reduce))
        return bareiss(re, im, n_cols, reduce)

    monkeypatch.setattr(linalg, "_bareiss", recorded)
    return passes


def record_calls(monkeypatch, module, *names: str, calls: list | None = None) -> list:
    """Patch each named function of module to record (name, args) of every
    call, in order, in calls (a new list by default), and then run it."""
    calls = [] if calls is None else calls
    for name in names:

        def recorded(*args, name=name, fn=getattr(module, name)):
            calls.append((name, args))
            return fn(*args)

        monkeypatch.setattr(module, name, recorded)
    return calls


def count_entry_reads(monkeypatch, cols: int) -> list:
    """Record the shape of each read of Matrix.entries, the GaussianRational
    view, on a matrix with cols columns, such as the L of a map."""
    reads = []
    entries = Matrix.entries

    def counted(m):
        if m.cols == cols:
            reads.append((m.rows, m.cols))
        return entries.__get__(m)

    monkeypatch.setattr(Matrix, "entries", property(counted))
    return reads


def pair(z) -> tuple[Fraction, Fraction]:
    """A GaussianRational, int or Fraction as the reference's (re, im) pair."""
    if isinstance(z, GaussianRational):
        return z.re, z.im
    return Fraction(z), Fraction(0)


def pairs(grid) -> list:
    """Rows of scalars as the reference's rows of pairs."""
    return [[pair(z) for z in row] for row in grid]


def matrix_of(rows: list, cols: int) -> Matrix:
    """The Matrix of the reference's rows of (re, im) pairs."""
    return Matrix(len(rows), cols, [GaussianRational(*z) for row in rows for z in row])


def spanned_by_columns(m: Matrix) -> Subspace:
    """The canonical subspace spanned by the columns of m: the nonzero rows
    of the reference RREF of m.T, transposed."""
    reduced, pivots = reference.rref(list(zip(*reference.rows(m))))
    return Subspace(m.rows, matrix_of(reduced[: len(pivots)], m.rows).transpose())


def null_space(m: Matrix) -> Subspace:
    """ker(m), the reference's canonical kernel basis."""
    basis = reference.kernel(reference.rows(m), m.cols)
    return Subspace(m.cols, matrix_of(basis, len(basis[0]) if basis else 0))


def similarity_rows(s: Matrix, scale) -> list:
    """The reference rows of the L of A -> scale * S @ A @ inverse(S):
    scale times the kron of inverse(S).T and S."""
    z, rows = pair(scale), reference.rows(s)
    inverse_t = list(zip(*reference.inverse(rows)))
    return [[reference.mul(z, x) for x in row] for row in reference.kron(inverse_t, rows)]


def assert_image_matches_reference(phi: SuperOp, a: Matrix) -> None:
    """phi.apply(a) is in canonical form the reference image of a."""
    expected = reference.apply(reference.rows(phi.matrix), reference.rows(a))
    reference.assert_form(phi.apply(a), expected, phi.n)


def sandwich(s: Matrix, t: Matrix) -> SuperOp:
    """The map A -> S @ A @ T, whose L is kron(T.T, S)."""
    return SuperOp(s.rows, kron(t.transpose(), s))


def run_rows(phi: SuperOp, trials: int, seed: int, sets: bool) -> tuple:
    """reference.probe_run of phi over probe_suite(phi.n, trials, seed),
    and the seed, as verdict_rows gives a Verdict."""
    probes = map(reference.rows, probe_suite(phi.n, trials, seed))
    return *reference.probe_run(reference.rows(phi.matrix), phi.n, probes, sets), seed


def verdict_rows(v) -> tuple | None:
    """A Verdict's fields, its witness and a set detail's bases as
    reference rows; None for no Verdict."""
    if v is None:
        return None
    detail = v.detail
    if detail and isinstance(detail[0], Subspace):
        detail = tuple(reference.rows(space.basis) for space in detail)
    witness = None if v.witness is None else reference.rows(v.witness)
    return v.outcome, witness, detail, v.probes_run, v.seed


def classification_rows(c) -> tuple | None:
    """A Classification as reference.classify gives it; None for none."""
    if c is None:
        return None
    s = None if c.s is None else reference.rows(c.s)
    return c.tag, s, None if c.scale is None else pair(c.scale)


def contains(space: Subspace, v: Matrix) -> bool:
    """Whether the column v lies in space: adjoining it leaves the span unchanged."""
    return spanned_by_columns(space.basis.hstack(v)) == space


def superop_from_action(n: int, action) -> SuperOp:
    """The superoperator of a linear action, read off its images of the matrix units."""
    side = n * n
    stacked = tuple(
        e for j in range(n) for i in range(n) for e in vec(action(Matrix.unit(n, i, j))).entries
    )
    return SuperOp(n, Matrix(side, side, stacked).transpose())


def factor(m: Matrix) -> tuple[Matrix, Matrix]:
    """rank_one_factor on the Gaussian-integer rows of m over its scale."""
    return rank_one_factor(zip(m.re, m.im), m.d)


def colliding(field: _Field) -> tuple[GaussianRational, ...]:
    """Entries that vanish mod field.p or collide there, next to the
    sampled ones: p, r - i (i -> r, the field's root of -1), and p + 1 and
    r + 1 - i, which the shift by I sends to 0 mod p on the diagonal."""
    p, r = field.p, field.root
    return (
        GaussianRational(p),
        GaussianRational(r, -1),
        GaussianRational(p + 1),
        GaussianRational(r + 1, -1),
        ZERO,
        ONE,
    )


def dependent_row_map(n: int, offset: int, seed: int = 0) -> SuperOp:
    """A random map whose last row of L is the sum of its first two plus
    offset at column 0. det L is offset times the cofactor of that entry,
    nonzero for a random L, so L is singular for offset 0 and otherwise,
    for a random L, singular mod exactly the primes that divide offset;
    the tests that use it check this against the reference."""
    side = n * n
    rows = random_matrix(derive_rng(seed, "dependent-row", n), side, side).to_rows()
    last = [x + y for x, y in zip(rows[0], rows[1])]
    last[0] += offset
    return SuperOp(n, Matrix.from_rows(rows[:-1] + [last]))


# The offsets of dependent_row_map for the four kinds of L that
# is_bijective tells apart: singular mod the fast prime alone, mod the
# wide prime alone, mod both but invertible over Q(i), and singular.
FALLBACK_OFFSETS = {
    "fast-only": _FAST.p,
    "wide-only": _WIDE.p,
    "both": _FAST.p * _WIDE.p,
    "singular": 0,
}


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def prime_rows(m: Matrix) -> Matrix:
    """m with row r divided by the r-th prime, so that the common scale of
    its rows sits far above the scale of any one row."""
    return Matrix(m.rows, m.cols, tuple(
        x / PRIMES[k // m.cols] for k, x in enumerate(m.entries)
    ))


def prime_row_similarity(n: int, seed: int = 0) -> SuperOp:
    """A -> S @ A @ inv(S) for a random S whose row r is over the r-th prime."""
    s = random_invertible(derive_rng(seed, "prime-rows", n), n)
    return similarity_superop(prime_rows(s), 1)


def prime_row_random(n: int, seed: int = 0) -> SuperOp:
    """A random map whose row r of L is divided by the r-th prime."""
    side = n * n
    return SuperOp(n, prime_rows(random_matrix(derive_rng(seed, "prime-rows", n), side, side)))


# Row 0 has six distinct denominators near 10**40 and rows 1 and 2 are
# integers, so one common scale for all three rows sits near 10**240.
MIXED_DENOMINATORS = matrix_from_doc(json.loads(
    (Path(__file__).parent / "fixtures" / "matrix_mixed_denominators_n3.json").read_text()
))
