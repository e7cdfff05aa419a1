"""Probes, falsifier checks, classification, and the two claim verdicts."""

import dataclasses
import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import fixpres
from fixpres import (
    GaussianRational,
    Matrix,
    PreserverReport,
    SuperOp,
    Verdict,
    check_dim_preserving,
    check_set_preserving,
    classify,
    derive_rng,
    dim_fixed,
    dim_preserver_verdict,
    fixed_space,
    identity_superop,
    is_bijective,
    random_invertible,
    random_matrix,
    random_rank_one_idempotent,
    set_preserver_verdict,
    similarity_superop,
    transpose_similarity_superop,
    transpose_superop,
)
from fixpres import fixed_points, preserver, superop
from fixpres.linalg import (
    _FAST,
    _WIDE,
    _fields,
    _full_rank_mod_p,
    _packed,
    _residues,
    inverse,
    rank,
)
from fixpres.preserver import probe_suite, structured_probes
from fixpres.scalars import ONE, ZERO
from fixpres.superop import _image_mod_p, _pair_regular_mod_p, _regular_mod_p

import reference
from conftest import (
    FIELDS,
    classification_rows,
    colliding,
    count_entry_reads,
    fractions_st,
    full_rank_mod,
    matrices,
    packed_rows,
    pair,
    prime_row_similarity,
    record_calls,
    row_vector,
    run_rows,
    sandwich,
    scalars,
    square_matrices,
    superop_from_action,
    vec_mod_p,
    verdict_rows,
)


def _gauge(m: Matrix) -> list:
    """vec(m) scaled so that its first nonzero entry is 1: u of the
    reference's rank-one factor of vec(m)."""
    return reference.rank_one(reference.vec(reference.rows(m)))[0]


# ---------------------------------------------------------------------------
# probe suite

def test_structured_probe_count_and_order():
    probes = structured_probes(3)
    assert len(probes) == 9
    assert probes[0] == Matrix.zeros(3, 3)
    assert probes[1] == -Matrix.identity(3)
    assert probes[2] == Matrix.identity(3)


def test_structured_probe_fixed_dims_cover_full_range():
    dims = {dim_fixed(p) for p in structured_probes(3)}
    assert dims == {0, 1, 2, 3}


def test_probe_suite_is_deterministic():
    a = list(probe_suite(3, trials=5, seed=42))
    b = list(probe_suite(3, trials=5, seed=42))
    assert a == b
    c = list(probe_suite(3, trials=5, seed=43))
    assert a != c


def test_probe_suite_length():
    assert len(list(probe_suite(3, trials=7, seed=0))) == 9 + 7


def _arithmetic_structured_probes(n: int) -> list[Matrix]:
    """The structured probes built by matrix arithmetic, kept as the
    reference for the direct construction."""
    eye = Matrix.identity(n)
    probes = [Matrix.zeros(n, n), -eye, eye]
    partial = Matrix.zeros(n, n)
    for k in range(n - 1):
        partial = partial + Matrix.unit(n, k, k)
        probes.append(partial)
    if n >= 2:
        probes.append(Matrix.unit(n, 0, 1))
    jordan = [[1 if j in (i, i + 1) else 0 for j in range(n)] for i in range(n)]
    probes.append(Matrix.from_rows(jordan))
    ones = Matrix.column([1] * n)
    probes.append(ones @ row_vector([1] + [0] * (n - 1)))
    probes.append(Matrix.unit(n, 0, 0) * 2)
    return probes


@pytest.mark.parametrize("n", range(1, 9))
def test_structured_probes_match_arithmetic_construction(n):
    probes = structured_probes(n)
    reference = _arithmetic_structured_probes(n)
    assert probes == reference
    assert [str(p) for p in probes] == [str(p) for p in reference]


def test_refutation_in_structured_prefix_draws_no_random_probe(monkeypatch):
    # A -> 2A keeps dim F(0) and dim F(-I) but sends I (dim 3) to 2I (dim 0).
    phi = similarity_superop(Matrix.identity(3), 2)
    calls = record_calls(monkeypatch, preserver, "random_matrix")
    verdict = check_dim_preserving(phi, trials=20, seed=0)
    assert (verdict.outcome, verdict.probes_run) == ("counterexample", 3)
    assert calls == []


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("seed", [0, 11, 2**40 + 3])
def test_integer_probe_stream_is_the_probe_suite(n, seed):
    """The lazy probe suite the checks walk is the structured probes, then
    one random_matrix per trial from its own derived generator."""
    drawn = [random_matrix(derive_rng(seed, "probe", k), n, n) for k in range(7)]
    assert list(probe_suite(n, 7, seed)) == structured_probes(n) + drawn


def test_passing_check_sees_the_probe_suite_in_order(monkeypatch):
    seen = []
    stream = preserver.probe_suite

    def recorded(*args):
        for probe in stream(*args):
            seen.append(probe)
            yield probe

    suite = list(probe_suite(3, trials=6, seed=11))
    monkeypatch.setattr(preserver, "probe_suite", recorded)
    for check in (check_dim_preserving, check_set_preserving):
        seen.clear()
        verdict = check(identity_superop(3), trials=6, seed=11)
        assert verdict.outcome == "pass"
        assert verdict.probes_run == len(suite)
        assert seen == suite


def test_probe_stream_is_pinned():
    """The seeded stream depends on random.Random.getrandbits and on how
    sampling._draws maps its bits to entries; a Python release that
    changed getrandbits would change every report."""
    text = str([str(m) for n in (3, 4, 5) for m in probe_suite(n, 30, 7)])
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "a3ac356f6b65c87655a4123da306113b1a1960cdcc02e226edaf7bf31f525417"


# ---------------------------------------------------------------------------
# falsifier checks

def test_identity_passes_both_conditions():
    phi = identity_superop(3)
    for check in (check_dim_preserving, check_set_preserving):
        verdict = check(phi, trials=10, seed=0)
        assert verdict.outcome == "pass"
        assert verdict.probes_run == 19
        assert verdict.witness is None
        assert verdict.seed == 0


def test_negation_dim_counterexample_is_negated_identity():
    phi = similarity_superop(Matrix.identity(3), -1)
    verdict = check_dim_preserving(phi, trials=10, seed=0)
    assert verdict.outcome == "counterexample"
    assert verdict.witness == -Matrix.identity(3)
    assert verdict.detail == (0, 3)
    assert verdict.probes_run == 2


def test_transpose_map_passes_dim_but_fails_set():
    phi = transpose_superop(3)
    assert check_dim_preserving(phi, trials=10, seed=0).outcome == "pass"
    verdict = check_set_preserving(phi, trials=10, seed=0)
    assert verdict.outcome == "counterexample"
    left, right = verdict.detail
    assert left.dim == right.dim  # dims agree; the spaces differ
    assert left.basis != right.basis


def test_counterexamples_carry_reproducible_detail():
    phi = similarity_superop(Matrix.from_rows([[1, 1], [0, 1]]), 1)
    verdict = check_set_preserving(phi, trials=10, seed=3)
    assert verdict.outcome == "counterexample"
    a = verdict.witness
    from fixpres import fixed_space

    left, right = verdict.detail
    assert fixed_space(a) == left
    assert fixed_space(phi.apply(a)) == right
    assert left != right


def test_scaled_similarity_passes_dim_check():
    s = Matrix.from_rows([[1, 2, 0], [0, 1, 1], [1, 0, 1]])
    phi = similarity_superop(s, 1)
    assert check_dim_preserving(phi, trials=10, seed=0).outcome == "pass"


def test_similarity_with_nontrivial_s_fails_set_check_in_structured_prefix():
    s = Matrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 2]])
    phi = similarity_superop(s, 1)
    verdict = check_set_preserving(phi, trials=0, seed=0)
    assert verdict.outcome == "counterexample"
    assert verdict.probes_run <= len(structured_probes(3))


# ---------------------------------------------------------------------------
# the integer probe loop against the reference's probe_run


def _perturbed_identity(rng, n: int) -> SuperOp:
    """The identity map with two entries of its matrix redrawn; such maps
    often survive the first structured probes."""
    side = n * n
    entries = list(Matrix.identity(side).entries)
    for _ in range(2):
        entries[rng.randrange(side * side)] = random_matrix(rng, 1, 1)[0, 0]
    return SuperOp(n, Matrix(side, side, tuple(entries)))


def _family_map(family: str, n: int, rng) -> SuperOp:
    side = n * n
    if family == "random":
        return SuperOp(n, random_matrix(rng, side, side))
    if family == "rank-deficient":
        k = max(1, side // 2)
        return SuperOp(n, random_matrix(rng, side, k) @ random_matrix(rng, k, side))
    if family == "perturbed-identity":
        return _perturbed_identity(rng, n)
    if family == "similarity":
        return similarity_superop(random_invertible(rng, n), 1)
    if family == "scale-2-similarity":
        return similarity_superop(random_invertible(rng, n), 2)
    if family == "transpose-similarity":
        return transpose_similarity_superop(random_invertible(rng, n), 1)
    # A -> A + 2 a_32 E_32 changes dim F on matrices that random probes miss
    return superop_from_action(n, lambda a: a + 2 * a[2, 1] * Matrix.unit(n, 2, 1))


MAP_FAMILIES = (
    "random",
    "rank-deficient",
    "perturbed-identity",
    "similarity",
    "scale-2-similarity",
    "transpose-similarity",
    "shear-32",
)


@pytest.mark.parametrize("family", MAP_FAMILIES)
@given(n=st.integers(1, 4), seed=st.integers(0, 2**32), trials=st.integers(0, 8))
def test_checks_match_reference_loop(family, n, seed, trials):
    if family == "shear-32":
        n = max(n, 3)
    phi = _family_map(family, n, derive_rng(seed, "reference-loop", family, n))
    for check, sets in ((check_dim_preserving, False), (check_set_preserving, True)):
        assert verdict_rows(check(phi, trials, seed)) == run_rows(phi, trials, seed, sets)


@given(n=st.integers(1, 3), data=st.data())
def test_checks_match_reference_loop_on_drawn_maps(n, data):
    """Maps with entries from the shared strategy: imaginary parts and
    denominators up to 4, often zero-heavy after shrinking."""
    side = n * n
    phi = SuperOp(n, data.draw(matrices(rows=side, cols=side)))
    seed = data.draw(st.integers(0, 2**32))
    for check, sets in ((check_dim_preserving, False), (check_set_preserving, True)):
        assert verdict_rows(check(phi, 3, seed)) == run_rows(phi, 3, seed, sets)


def test_random_probe_witness_is_rebuilt_from_its_draw():
    """S fixes the lines of e1 and e1 + e2, so A -> S A inv(S) keeps F of
    every structured probe at n = 2; random probe 1532 of seed 4 is the
    first with a fixed line that S moves."""
    phi = similarity_superop(Matrix.from_rows([[1, 1], [0, 2]]), 1)
    verdict = check_set_preserving(phi, trials=1532, seed=4)
    assert (verdict.outcome, verdict.probes_run) == ("counterexample", 1540)
    assert verdict.witness == list(probe_suite(2, 1532, 4))[-1]
    assert verdict.detail == (fixed_space(verdict.witness), fixed_space(phi.apply(verdict.witness)))
    assert verdict.detail[0].dim == 1
    assert check_dim_preserving(phi, trials=1532, seed=4).outcome == "pass"


# ---------------------------------------------------------------------------
# the certificate mod p: a probe is accepted without Bareiss only when
# A - I and phi(A) - I both have full rank mod p

def _diagonal(*entries) -> Matrix:
    n = len(entries)
    return Matrix.from_rows([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])


# A product of both primes: a probe side that is 0 mod it is singular in
# both fields, so the certificate mod the fast prime misses it and so does
# the test mod the wide prime that dim_fixed and fixed_space run first.
_BOTH = _FAST.p * _WIDE.p

# The action of phi, a probe for which A - I or phi(A) - I is singular mod
# both primes but not over Q(i), and the dim check's outcome on it.
_SINGULAR_MOD_P_ALONE = {
    # A - I = diag(p, 1, 1) on both sides: both dims are 0
    "identity": (lambda a: a, _diagonal(_BOTH + 1, 2, 2), "pass"),
    # phi(A) - I = diag((p - 1) / 2, 0, 0): dims 0 and 2
    "halving": (lambda a: a * Fraction(1, 2), _diagonal(_BOTH + 1, 2, 2), "counterexample"),
    # A - I = I, and phi(A) = diag(p + 1, 2, 2): both dims are 0
    "corner-shear": (
        lambda a: a + (_BOTH - 1) // 2 * a[0, 0] * Matrix.unit(3, 0, 0),
        _diagonal(2, 2, 2),
        "pass",
    ),
}


@pytest.mark.parametrize("case", sorted(_SINGULAR_MOD_P_ALONE))
def test_probe_singular_mod_p_alone_takes_the_exact_path(case, bareiss_passes, monkeypatch):
    action, probe, outcome = _SINGULAR_MOD_P_ALONE[case]
    phi = superop_from_action(3, action)
    eye = Matrix.identity(3)
    shifted = (probe - eye, phi.apply(probe) - eye)
    for field in FIELDS:
        assert not all(_full_rank_mod_p(packed_rows(m, field), field) for m in shifted)
    assert rank(shifted[0]) == 3
    monkeypatch.setattr(preserver, "_structured", lambda n: (probe,))
    bareiss_passes.clear()
    verdict = check_dim_preserving(phi, 0, 0)
    # the image takes an exact pass in every check, and the probe once, the
    # first time, when probe - I is singular mod the wide prime that
    # fixed_space tests first; the probe's F is then kept with its own
    # side, and is {0} where that test proves it
    own_singular = not _full_rank_mod_p(packed_rows(shifted[0], _WIDE), _WIDE)
    assert len(bareiss_passes) == 1 + own_singular
    assert verdict.outcome == outcome
    assert verdict_rows(verdict) == run_rows(phi, 0, 0, False)
    bareiss_passes.clear()
    assert check_dim_preserving(phi, 0, 0) == verdict
    assert len(bareiss_passes) == 1
    assert verdict_rows(check_set_preserving(phi, 0, 0)) == run_rows(phi, 0, 0, True)


def test_image_certificate_is_over_the_scales_of_l_and_the_probe(monkeypatch):
    """A -> A / 2 has L over the scale 2 and sends diag(2, 3, 3), for which
    A - I is invertible, to diag(1, 3/2, 3/2), which fixes e_1. The image's
    residues are over 2 * e, so only a shift by 2 * e, not by e, shows
    that fixed point."""
    phi = superop_from_action(3, lambda a: a * Fraction(1, 2))
    assert phi.matrix.d == 2
    monkeypatch.setattr(preserver, "_structured", lambda n: (_diagonal(2, 3, 3),))
    verdict = check_dim_preserving(phi, 0, 0)
    assert (verdict.outcome, verdict.detail) == ("counterexample", (0, 1))


def test_certified_probes_skip_bareiss(bareiss_passes):
    """On a passing similarity only the structured probes with a fixed
    point reach Bareiss: one pass each on A - I, kept for the process, and
    one on phi(A) - I in every check."""
    n = 4
    phi = similarity_superop(random_invertible(derive_rng(0, "certificate"), n), 1)
    with_fixed_points = [p for p in structured_probes(n) if dim_fixed(p) > 0]
    assert len(with_fixed_points) == 6
    bareiss_passes.clear()
    verdict = check_dim_preserving(phi, trials=50, seed=0)
    assert (verdict.outcome, verdict.probes_run) == ("pass", len(structured_probes(n)) + 50)
    assert len(bareiss_passes) == 2 * len(with_fixed_points)
    bareiss_passes.clear()
    assert check_dim_preserving(phi, trials=50, seed=1).outcome == "pass"
    assert len(bareiss_passes) == len(with_fixed_points)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_cached_structured_rows_survive_checks(n):
    """The structured probes are built once per n and shared by every
    check; no pass or counterexample changes them."""
    phi = similarity_superop(random_invertible(derive_rng(0, "cache", n), n), 1)
    side = n * n
    random_map = SuperOp(n, random_matrix(derive_rng(0, "cache-random", n), side, side))
    assert check_dim_preserving(phi, trials=5).outcome == "pass"
    assert check_dim_preserving(random_map, trials=5).outcome == "counterexample"
    assert check_set_preserving(phi, trials=5).outcome == "counterexample"
    cached = preserver._structured(n)
    assert list(cached) == structured_probes(n) == _arithmetic_structured_probes(n)
    assert [str(p) for p in cached] == [str(p) for p in _arithmetic_structured_probes(n)]


@pytest.mark.parametrize("n", range(1, 17))
def test_structured_side_is_a_fresh_computation(n):
    """After a check, each structured probe's kept own side is vec(A) mod p
    and F(A), whose dim is dim_fixed(A) and is 0 exactly when A - I has
    full rank mod p; equal probes (I three times at n = 1) share one."""
    assert check_set_preserving(identity_superop(n), trials=0).outcome == "pass"
    probes = structured_probes(n)
    assert preserver._structured_side.cache_info().currsize == len(set(probes))
    eye = Matrix.identity(n)
    for a in probes:
        u, space = preserver._structured_side(a)
        assert u == tuple(vec_mod_p(a, _FAST))
        assert space == fixed_space(a)
        assert space.dim == dim_fixed(a)
        assert (space.dim == 0) == full_rank_mod(a - eye, _WIDE)
    assert preserver._structured_side.cache_info().currsize == len(set(probes))


def _kept_side_maps(n: int) -> dict:
    rng = derive_rng(0, "kept-side", n)
    side = n * n
    return {
        "identity": identity_superop(n),
        "similarity": similarity_superop(random_invertible(rng, n), 1),
        "negated-similarity": similarity_superop(random_invertible(rng, n), -1),
        "random": SuperOp(n, random_matrix(rng, side, side)),
    }


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("family", ["identity", "similarity", "negated-similarity", "random"])
def test_cold_and_warm_checks_agree(family, n):
    """A check with no own side kept and the same check again, with every
    structured probe's own side kept, give equal verdicts, equal to the
    reference loop's, for both conditions."""
    phi = _kept_side_maps(n)[family]
    for check, sets in ((check_dim_preserving, False), (check_set_preserving, True)):
        preserver._structured_side.cache_clear()
        cold = check(phi, trials=5, seed=3)
        assert preserver._structured_side.cache_info().currsize > 0
        warm = check(phi, trials=5, seed=3)
        assert cold == warm
        assert verdict_rows(cold) == run_rows(phi, 5, 3, sets)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_second_check_runs_no_own_side_bareiss(n, bareiss_passes, monkeypatch):
    """Once a check at side n has run, a check of another map at n takes
    Bareiss only on the images of the probes with a fixed point."""
    maps = _kept_side_maps(n)
    phi = maps["similarity"]
    with_fixed_points = [a for a in structured_probes(n) if dim_fixed(a) > 0]
    images = [phi.apply(a) for a in with_fixed_points]
    assert check_dim_preserving(maps["identity"], trials=0).outcome == "pass"
    bareiss_passes.clear()
    measured = record_calls(monkeypatch, preserver, "dim_fixed")
    assert check_dim_preserving(phi, trials=0).outcome == "pass"
    assert [a for _, (a,) in measured] == images
    assert len(bareiss_passes) == len(images)


def test_dim_detail_comes_from_the_echelon_rows(bareiss_passes, monkeypatch):
    """A random map changed to send I to M = S @ diag(1, 2, 3) @ inv(S)
    fails at the probe I. Its detail is the loop's two measured values:
    dim F(I) from the kept fixed_space of I, one Gauss-Jordan pass made
    once, and dim_fixed of the image, one forward pass in every check,
    because M - I is singular. The kept fixed spaces of the probes 0 and
    -I before it take no pass: the test mod p proves -I and -2I
    invertible."""
    psi = SuperOp(3, random_matrix(derive_rng(0, "dim-detail"), 9, 9))
    s = random_invertible(derive_rng(0, "dim-detail-s"), 3)
    eye = Matrix.identity(3)
    shift = s @ _diagonal(1, 2, 3) @ inverse(s) - psi.apply(eye)
    phi = superop_from_action(
        3, lambda a: psi.apply(a) + (a[0, 0] + a[1, 1] + a[2, 2]) / 3 * shift
    )
    measured = []
    for module in (fixed_points, fixpres, preserver):
        record_calls(monkeypatch, module, "dim_fixed", "fixed_space", calls=measured)
    bareiss_passes.clear()
    verdict = check_dim_preserving(phi)
    assert (verdict.outcome, verdict.witness, verdict.probes_run) == (
        "counterexample", Matrix.identity(3), 3
    )
    w = verdict.witness
    image = phi.apply(w)
    kept = [("fixed_space", (a,)) for a in structured_probes(3)[:3]]
    assert (len(bareiss_passes), measured) == (2, kept + [("dim_fixed", (image,))])
    assert verdict.detail == (dim_fixed(w), dim_fixed(image)) == (3, 1)
    bareiss_passes.clear()
    measured.clear()
    assert check_dim_preserving(phi) == verdict
    assert (len(bareiss_passes), measured) == (1, [("dim_fixed", (image,))])


def _one_side_singular_mod(q: int) -> dict:
    """A map and a probe for which exactly one of A - I and phi(A) - I is
    singular mod every prime that divides q, though both are invertible
    over Q(i): both dims are 0."""
    return {
        # A - I = diag(q, 1, 1), and phi(A) - I = diag(2q + 1, 3, 3)
        "own": (superop_from_action(3, lambda a: 2 * a), _diagonal(q + 1, 2, 2)),
        # L adds (q + 1) * a_01 at (0, 0): A - I has det -1, and
        # phi(A) - I = [[q, 1, 0], [0, 1, 0], [0, 0, 1]] has det q
        "image": (
            superop_from_action(
                3, lambda a: a + GaussianRational(q + 1) * a[0, 1] * Matrix.unit(3, 0, 0)
            ),
            Matrix.from_rows([[0, 1, 0], [0, 2, 0], [0, 0, 2]]),
        ),
    }


# The side singular mod both primes, so it reaches Bareiss, or mod the
# fast prime alone, so the test mod the wide prime settles it.
_ONE_SIDE_SINGULAR_MOD_P = _one_side_singular_mod(_BOTH)
_ONE_SIDE_SINGULAR_MOD_FAST = _one_side_singular_mod(_FAST.p)


def _measure_one_random_probe(phi, probe, side, singular_in, bareiss_passes, monkeypatch) -> None:
    """Check phi on the random probe alone, drawn twice, for both
    conditions, and require the reference run's verdict, both sides of
    both draws measured through dim_fixed or fixed_space, and one Bareiss
    pass per draw when the singular side is singular mod the wide prime,
    none otherwise. singular_in holds the fields in which that side is
    singular mod p."""
    eye = Matrix.identity(3)
    own, image = probe - eye, phi.apply(probe) - eye
    for field in FIELDS:
        singular = field in singular_in
        assert (full_rank_mod(own, field), full_rank_mod(image, field)) == (
            side == "image" or not singular, side == "own" or not singular
        )
    assert rank(own) == rank(image) == 3
    monkeypatch.setattr(preserver, "_structured", lambda n: ())
    monkeypatch.setattr(preserver, "random_matrix", lambda rng, rows, cols: probe)
    assert list(probe_suite(3, 2, 0)) == [probe, probe]
    for check, sets in ((check_dim_preserving, False), (check_set_preserving, True)):
        measured = record_calls(monkeypatch, preserver, "fixed_space" if sets else "dim_fixed")
        bareiss_passes.clear()
        verdict = check(phi, 2, 0)
        assert [a for _, (a,) in measured] == [probe, phi.apply(probe)] * 2
        assert len(bareiss_passes) == (2 if _WIDE in singular_in else 0)
        assert (verdict.outcome, verdict.probes_run) == ("pass", 2)
        assert verdict_rows(verdict) == run_rows(phi, 2, 0, sets)


@pytest.mark.parametrize("side", sorted(_ONE_SIDE_SINGULAR_MOD_P))
def test_random_probe_singular_mod_p_on_one_side_takes_the_exact_path(
    side, bareiss_passes, monkeypatch
):
    """A random probe that the pair certificate does not settle goes
    through dim_fixed or fixed_space of both sides, as in the reference
    loop. Each of those tests its side mod the wide prime first, so only
    a side singular mod both primes takes a Bareiss pass: one per probe."""
    phi, probe = _ONE_SIDE_SINGULAR_MOD_P[side]
    _measure_one_random_probe(phi, probe, side, FIELDS, bareiss_passes, monkeypatch)


@pytest.mark.parametrize("side", sorted(_ONE_SIDE_SINGULAR_MOD_FAST))
def test_random_probe_singular_mod_the_fast_prime_alone_takes_no_bareiss(
    side, bareiss_passes, monkeypatch
):
    """A side singular mod the fast prime alone makes the pair certificate
    miss, and the test mod the wide prime in dim_fixed and fixed_space
    settles it: both sides are measured, and no Bareiss pass runs."""
    phi, probe = _ONE_SIDE_SINGULAR_MOD_FAST[side]
    _measure_one_random_probe(phi, probe, side, (_FAST,), bareiss_passes, monkeypatch)


@st.composite
def shifted_probes(draw, max_side=6):
    """n x n probes for n <= max_side: drawn from the probe stream with
    some entries replaced by colliding ones, structured probes, and
    I + X @ Y with X n x k, so that dim F >= n - k."""
    n = draw(st.integers(1, max_side))
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["stream", "structured", "fixed-points"]))
    if kind == "structured":
        return rng.choice(structured_probes(n))
    if kind == "fixed-points":
        k = rng.randrange(n)
        return Matrix.identity(n) + random_matrix(rng, n, k) @ random_matrix(rng, k, n)
    entries = list(random_matrix(rng, n, n).entries)
    for _ in range(draw(st.integers(0, n))):
        entries[rng.randrange(n * n)] = rng.choice(colliding(_FAST))
    return Matrix(n, n, tuple(entries))


@given(shifted_probes())
def test_full_rank_mod_p_of_a_shifted_probe_proves_full_rank(a):
    n = a.rows
    if _regular_mod_p(_packed(vec_mod_p(a, _FAST), _FAST), n, a.d):
        assert rank(a - Matrix.identity(n)) == n


@st.composite
def certificate_cases(draw):
    """A probe from shifted_probes for n <= 5 and a map on M_n: the
    identity, a similarity, a random map, or one with colliding entries
    in L."""
    a = draw(shifted_probes(max_side=5))
    n = a.rows
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["identity", "similarity", "random", "colliding"]))
    if kind == "identity":
        return identity_superop(n), a
    if kind == "similarity":
        return similarity_superop(random_invertible(rng, n), rng.choice([1, -1, 2])), a
    l = random_matrix(rng, n * n, n * n)
    if kind == "colliding":
        entries = list(l.entries)
        for _ in range(n * n):
            entries[rng.randrange(len(entries))] = rng.choice(colliding(_FAST))
        l = Matrix(n * n, n * n, tuple(entries))
    return SuperOp(n, l), a


@given(certificate_cases())
@example((identity_superop(3), _diagonal(_FAST.p + 1, 2, 2)))
@example((superop_from_action(3, lambda a: a * Fraction(1, 2)), _diagonal(_FAST.p + 1, 2, 2)))
@example(_ONE_SIDE_SINGULAR_MOD_P["own"])
@example(_ONE_SIDE_SINGULAR_MOD_P["image"])
@example(_ONE_SIDE_SINGULAR_MOD_FAST["own"])
@example(_ONE_SIDE_SINGULAR_MOD_FAST["image"])
def test_packed_certificate_agrees_with_reference_rank_mod_p(case):
    """The certificate of the probe loop, on packed columns of A - I and
    of phi(A) - I whose image fields arrive unreduced with the diagonal
    shift added, is the per-entry rank mod the fast prime p of
    e * (A - I) and of d * e * (phi(A) - I), e the scale of A and d that
    of L. The pair certificate of a random probe, one elimination of the
    product of the two, has full rank exactly when both have."""
    phi, a = case
    n, e = a.rows, a.d
    de = phi.matrix.d * e
    eye = Matrix.identity(n)
    u = vec_mod_p(a, _FAST)
    image = _image_mod_p(phi._residue_columns, u)
    own = full_rank_mod((a - eye) * e, _FAST)
    other = full_rank_mod((phi.apply(a) - eye) * de, _FAST)
    assert _regular_mod_p(_packed(u, _FAST), n, e) == own
    assert _regular_mod_p(image, n, de) == other
    assert _pair_regular_mod_p(u, phi._residue_columns, n, e, de) == (own and other)


# The cases of the carry test, each named by its values in terms of the
# fast prime p.
_P1 = _FAST.p


@pytest.mark.parametrize(
    "first, e, f, full",
    [
        pytest.param(_P1 - 1, 1, 1, True, id="p-1,1,1,True"),
        pytest.param(_P1 - 1, _P1 + 1, 257, True, id="p-1,p+1,257,True"),
        pytest.param(_P1 - 1, _P1, 1, False, id="p-1,p,1,False"),
        pytest.param(_P1 - 1, _P1 - 16, 1, False, id="p-1,p-16,1,False"),
        pytest.param(_P1 - 1, _P1 + 1, 4096, False, id="p-1,p+1,4096,False"),
        pytest.param(_P1 - 1, 1, _P1, False, id="p-1,1,p,False"),
        pytest.param(256, _P1 + 1, 1, True, id="256,p+1,1,True"),
        pytest.param(256, _P1 + 1, _P1 + 1, True, id="256,p+1,p+1,True"),
        pytest.param(256, 1, _P1 - 16, False, id="256,1,p-16,False"),
    ],
)
def test_pair_certificate_carries_at_n_16(first, e, f, full):
    """Every residue of vec(A) is p - 1, and so is every residue of L
    outside its first column, whose residues are all first. Each image
    field is a sum of 256 products near (p - 1)**2, so the certificate
    starts from fields near their bound: 256 * (p - 1)**2, which is 256
    mod p, when first is p - 1, and (p - 1) * (255 * (p - 1) + 256), which
    is p - 1, when first is 256. The factors mod p are X = -J - e * I and
    Y = c * J - f * I (J all ones, c the image mod p). At e = p + 1 the
    diagonal fields of X are 2p - 2 and the others p - 1, and with
    c = p - 1 those of Y are all near p, so every field of X @ Y is near
    17 * p**2 before the elimination adds to it; no field may carry into
    the next. p is the fast prime, whose 32-bit fields the certificate
    runs in."""
    n, side, p = 16, 256, _FAST.p
    u = [p - 1] * side
    columns = [_packed([first] * side, _FAST)] + [_packed(u, _FAST)] * (side - 1)
    image = _image_mod_p(columns, u)
    c = side if first == p - 1 else p - 1
    assert [x % p for x in _fields(image, side, _FAST)] == [c] * side
    x = Matrix.from_rows([[-1 - e * (i == j) for j in range(n)] for i in range(n)])
    y = Matrix.from_rows([[c - f * (i == j) for j in range(n)] for i in range(n)])
    assert (full_rank_mod(x, _FAST) and full_rank_mod(y, _FAST)) == full
    assert _pair_regular_mod_p(u, columns, n, e, f) == full


# ---------------------------------------------------------------------------
# the rank lemma: ker X = ker Y iff rank X = rank Y = rank [X; Y]; the set
# check compares canonical kernels, which must be equal exactly then


def _ranks_agree(a: Matrix, b: Matrix, compare_sets: bool) -> bool:
    """The lemma's side for X = A - I and Y = B - I: rank X = rank Y and,
    with compare_sets, both equal rank [X; Y]."""
    eye = Matrix.identity(a.rows)
    x, y = a - eye, b - eye
    r = rank(x)
    if r != rank(y):
        return False
    return not compare_sets or rank(Matrix.from_rows(x.to_rows() + y.to_rows())) == r


def _with_fixed_points(rng, n: int, k: int) -> Matrix:
    """S diag(1, ..., 1, d_k, ..., d_n) inv(S): dim F is at least k."""
    s = random_invertible(rng, n)
    diag = [ONE] * k + [random_matrix(rng, 1, 1)[0, 0] for _ in range(n - k)]
    d = Matrix(n, n, tuple(diag[i] if i == j else ZERO for i in range(n) for j in range(n)))
    return s @ d @ inverse(s)


def _assert_lemma(a: Matrix, b: Matrix) -> None:
    """The one-pass kernels of A - I and B - I are equal exactly when F(A)
    and F(B) are one subspace, so fixed_space is canonical."""
    assert _ranks_agree(a, b, compare_sets=True) == (fixed_space(a) == fixed_space(b))
    assert _ranks_agree(a, b, compare_sets=False) == (dim_fixed(a) == dim_fixed(b))


@given(n=st.integers(1, 4), k=st.integers(0, 4), seed=st.integers(0, 2**32))
def test_rank_lemma_on_same_fixed_space(n, k, seed):
    # F(2A - I) = ker(2A - 2I) = F(A)
    a = _with_fixed_points(derive_rng(seed, "lemma-same"), n, min(k, n))
    b = 2 * a - Matrix.identity(n)
    assert _ranks_agree(a, b, compare_sets=True)
    _assert_lemma(a, b)


@given(n=st.integers(2, 4), seed=st.integers(0, 2**32))
def test_rank_lemma_on_transpose(n, seed):
    # P = x f has F(P) = span(x) and F(P.T) = span(f.T): same dim, and
    # different spaces unless x is parallel to f.T
    p, _, _ = random_rank_one_idempotent(derive_rng(seed, "lemma-transpose"), n)
    assert p != p.transpose()
    assert _ranks_agree(p, p.transpose(), compare_sets=False)
    _assert_lemma(p, p.transpose())


def test_rank_lemma_on_transpose_of_a_jordan_block():
    a = Matrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 2]])
    assert not _ranks_agree(a, a.transpose(), compare_sets=True)
    assert _ranks_agree(a, a.transpose(), compare_sets=False)
    _assert_lemma(a, a.transpose())


@given(n=st.integers(1, 4), seed=st.integers(0, 2**32))
def test_rank_lemma_when_both_dims_are_zero(n, seed):
    rng = derive_rng(seed, "lemma-zero")
    a, b = random_matrix(rng, n, n), random_matrix(rng, n, n)
    assume(dim_fixed(a) == dim_fixed(b) == 0)
    assert _ranks_agree(a, b, compare_sets=True)
    _assert_lemma(a, b)


@given(n=st.integers(1, 4), ka=st.integers(0, 4), kb=st.integers(0, 4), seed=st.integers(0, 2**32))
def test_rank_lemma_on_random_pairs(n, ka, kb, seed):
    rng = derive_rng(seed, "lemma-random")
    _assert_lemma(_with_fixed_points(rng, n, min(ka, n)), _with_fixed_points(rng, n, min(kb, n)))


@given(square_matrices(max_side=3), st.data())
def test_rank_lemma_on_drawn_pairs(a, data):
    b = data.draw(matrices(rows=a.rows, cols=a.cols))
    _assert_lemma(a, b)
    _assert_lemma(a, a)


# ---------------------------------------------------------------------------
# classification

def test_classify_identity():
    assert classify(identity_superop(3)).tag == "identity"


@given(st.integers(0, 30), st.integers(2, 4))
def test_classify_similarity_round_trip(seed, n):
    rng = derive_rng(seed, "classify", n)
    s = random_invertible(rng, n)
    result = classify(similarity_superop(s, 1))
    if result.tag == "identity":
        # happens exactly when s is a nonzero multiple of the identity
        assert _gauge(s) == reference.vec(reference.identity(n))
        return
    assert result.tag == "similarity"
    assert result.scale == ONE
    assert _gauge(result.s) == _gauge(s)


@given(st.integers(0, 30))
def test_classify_negated_similarity(seed):
    rng = derive_rng(seed, "classify-neg")
    s = random_invertible(rng, 3)
    result = classify(similarity_superop(s, -1))
    assert result.tag == "similarity"
    assert result.scale == -ONE


@given(st.integers(0, 30))
def test_classify_transpose_similarity(seed):
    rng = derive_rng(seed, "classify-tr")
    s = random_invertible(rng, 3)
    result = classify(transpose_similarity_superop(s, 1))
    assert result.tag == "transpose-similarity"
    assert result.scale == ONE
    assert _gauge(result.s) == _gauge(s)


def test_classify_recovered_s_reproduces_action():
    s = Matrix.from_rows([[1, 2, 0], [0, 1, 1], [1, 0, 1]])
    phi = similarity_superop(s, 1)
    result = classify(phi)
    from fixpres.linalg import inverse

    recovered = result.s
    a = Matrix.from_rows([[1, 0, 0], [2, 1, 0], [0, 0, 5]])
    assert recovered @ a @ inverse(recovered) == phi.apply(a)


def test_classify_sandwich_with_non_scalar_ts_is_unstructured():
    s = Matrix.from_rows([[1, 1], [0, 1]])
    t = Matrix.from_rows([[1, 2], [3, 4]])
    phi = sandwich(s, t)
    assert classify(phi).tag == "unstructured"


def test_classify_random_is_unstructured():
    rng = derive_rng(5, "unstructured")
    phi = SuperOp(3, random_matrix(rng, 9, 9))
    assert classify(phi).tag == "unstructured"


def test_classify_singular_sandwich_is_unstructured():
    # S A T with singular S: realignment is rank one, but no inverse exists
    s = Matrix.from_rows([[1, 0], [0, 0]])
    t = Matrix.from_rows([[1, 0], [0, 1]])
    phi = sandwich(s, t)
    assert classify(phi).tag == "unstructured"


def test_classify_scaled_identity_superop():
    # A -> 2A realigns to rank one with T S = 2 I: similarity with scale 2
    phi = similarity_superop(Matrix.identity(3), 2)
    result = classify(phi)
    assert result.tag == "similarity"
    assert result.scale == GaussianRational(2)


def _first_off_identity(l: list) -> tuple[int, int] | None:
    """The first entry (i, j) of the reference rows l, row by row, that is
    not the identity's, or None when l is the identity."""
    one, zero = reference.ONE, reference.ZERO
    cells = ((i, j, z) for i, row in enumerate(l) for j, z in enumerate(row))
    return next(((i, j) for i, j, z in cells if z != (one if i == j else zero)), None)


@st.composite
def _near_identity_maps(draw):
    """(n, L) for n = 1..4: the identity, a random L, the identity with one
    entry moved in its real or imaginary part or off the diagonal, or a map
    over a scale d != 1 whose first rows are the identity's (d * e_r)."""
    kind = draw(st.sampled_from(["identity", "random", "real", "imaginary", "off-diagonal", "early-rows"]))
    n = draw(st.integers(2 if kind == "off-diagonal" else 1, 4))
    side = n * n
    eye = Matrix.identity(side)
    if kind == "identity":
        return n, eye
    if kind == "random":
        return n, draw(matrices(rows=side, cols=side))
    if kind == "early-rows":
        k = draw(st.integers(0, side - 1))
        rows = [[ONE if j == i else ZERO for j in range(side)] for i in range(k)]
        rows += [draw(st.lists(scalars, min_size=side, max_size=side)) for _ in range(k, side)]
        rows[-1][draw(st.integers(0, side - 1))] = GaussianRational(Fraction(1, draw(st.integers(2, 4))))
        return n, Matrix.from_rows(rows)
    i = draw(st.integers(0, side - 1))
    j = i
    if kind == "off-diagonal":
        j = draw(st.integers(0, side - 2))
        j += j >= i
    delta = draw(fractions_st.filter(bool))
    scalar = GaussianRational(0, delta) if kind == "imaginary" else GaussianRational(delta)
    return n, eye + scalar * Matrix.unit(side, i, j)


@given(_near_identity_maps())
def test_identity_discrepancy_matches_both_former_tests(case):
    n, l = case
    rows = reference.rows(l)
    identity, first = rows == reference.identity(n * n), _first_off_identity(rows)
    assert preserver._identity_discrepancy(l) == first
    assert (first is None) == identity
    assert (classify(SuperOp(n, l)).tag == "identity") == identity


@pytest.mark.parametrize(
    "build, first",
    [
        (lambda eye: eye, None),
        (lambda eye: eye + GaussianRational(Fraction(1, 2)) * Matrix.unit(256, 255, 255), (255, 255)),
        (lambda eye: eye + GaussianRational(0, 1) * Matrix.unit(256, 200, 3), (200, 3)),
        (lambda eye: random_matrix(derive_rng(0, "identity-test"), 256, 256), (0, 0)),
    ],
    ids=["identity", "half-in-last-row", "imaginary-off-diagonal", "random"],
)
def test_identity_discrepancy_at_n16(build, first):
    l = build(Matrix.identity(256))
    rows = reference.rows(l)
    assert preserver._identity_discrepancy(l) == _first_off_identity(rows) == first


# ---------------------------------------------------------------------------
# verdicts

def test_set_verdict_identity_consistent():
    report = set_preserver_verdict(identity_superop(3), trials=5, seed=0)
    assert report.claim == 1
    assert report.status == "consistent"
    assert report.discrepancy is None


def test_set_verdict_similarity_counterexample():
    s = Matrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    report = set_preserver_verdict(similarity_superop(s, 1), trials=5, seed=0)
    assert report.status == "counterexample"


def _entry_doubling_map() -> SuperOp:
    """Double the (0, 2) entry; every structured probe at n = 3 has a zero
    there, so the structured prefix cannot distinguish this from the identity."""
    return superop_from_action(
        3, lambda a: a + a[0, 2] * Matrix.unit(3, 0, 2)
    )


def test_set_verdict_flags_passing_non_identity():
    phi = _entry_doubling_map()
    for probe in structured_probes(3):
        assert phi.apply(probe) == probe
    report = set_preserver_verdict(phi, trials=0, seed=0)
    assert report.status == "violation-candidate"
    assert report.verdict.outcome == "pass"
    i, j, found, expected = report.discrepancy
    assert (i, j) == (6, 6)  # vec index of entry (0, 2) at n = 3
    assert found == GaussianRational(2)
    assert expected == ONE


def test_dim_verdict_flags_passing_unstructured():
    report = dim_preserver_verdict(_entry_doubling_map(), trials=0, seed=0)
    assert report.status == "violation-candidate"
    assert report.classification.tag == "unstructured"


def test_dim_verdict_identity_consistent():
    report = dim_preserver_verdict(identity_superop(3), trials=5, seed=0)
    assert report.claim == 2
    assert report.status == "consistent"
    assert report.classification.tag == "identity"


def test_dim_verdict_similarity_consistent():
    s = Matrix.from_rows([[1, 1, 0], [0, 1, 0], [2, 0, 1]])
    report = dim_preserver_verdict(similarity_superop(s, 1), trials=5, seed=0)
    assert report.status == "consistent"
    assert report.classification.tag == "similarity"
    assert report.classification.scale == ONE


def test_dim_verdict_negation_counterexample_names_unrealizable_branch():
    report = dim_preserver_verdict(
        similarity_superop(Matrix.identity(3), -1), trials=5, seed=0
    )
    assert report.status == "counterexample"
    assert report.verdict.witness == -Matrix.identity(3)
    assert report.verdict.detail == (0, 3)
    assert any("-I probe" in note for note in report.notes)


def test_dim_verdict_transpose_family_outside_conclusion():
    s = Matrix.from_rows([[1, 1, 0], [0, 1, 0], [2, 0, 1]])
    report = dim_preserver_verdict(transpose_similarity_superop(s, 1), trials=5, seed=0)
    assert report.status == "form-outside-conclusion"
    assert report.classification.tag == "transpose-similarity"


def test_dim_verdict_scaled_similarity_outside_conclusion():
    # With scale c != 1 the probe I (dim F = n) maps to cI (dim F = 0), so
    # the structured prefix refutes the map by probe 3 whatever trials is.
    s = random_invertible(derive_rng(0, "scaled-similarity"), 3)
    for build, tag in (
        (similarity_superop, "similarity"),
        (transpose_similarity_superop, "transpose-similarity"),
    ):
        for scale in (GaussianRational(-1), GaussianRational(2), GaussianRational(0, 1)):
            report = dim_preserver_verdict(build(s, scale), trials=0, seed=0)
            assert report.status == "counterexample"
            assert (report.classification.tag, report.classification.scale) == (tag, scale)
            assert report.verdict.probes_run <= 3


def test_dim_verdict_non_bijective_hypothesis_not_met():
    phi = superop_from_action(3, lambda a: a[0, 0] * Matrix.unit(3, 0, 0))
    report = dim_preserver_verdict(phi, trials=5, seed=0)
    assert report.status == "hypothesis-not-met"
    assert report.verdict is None


def test_dim_verdict_small_side_warns():
    report = dim_preserver_verdict(identity_superop(2), trials=5, seed=0)
    assert report.status == "consistent"
    assert any("n >= 3" in note for note in report.notes)


def test_dim_verdict_random_bijective_usually_counterexample():
    rng = derive_rng(8, "random-verdict")
    while True:
        l = random_matrix(rng, 9, 9)
        if rank(l) == 9:
            break
    report = dim_preserver_verdict(SuperOp(3, l), trials=10, seed=0)
    assert report.status in ("counterexample", "violation-candidate")


def test_dim_verdict_runs_each_step_through_its_public_name(monkeypatch):
    """The verdict calls is_bijective, then check_dim_preserving, which walks
    probe_suite, each by the module-level name a tracer rebinds; L is
    reduced mod p once per SuperOp, and a second is_bijective reuses it."""
    phi = SuperOp(3, random_matrix(derive_rng(8, "public-steps"), 9, 9))
    names = ("is_bijective", "check_dim_preserving", "probe_suite")
    calls = record_calls(monkeypatch, preserver, *names)
    reductions = []

    def reduced(re, im, field):
        # only L's reductions, of N rows; vec(A) mod p of a probe is one row
        if len(re) == 9:
            reductions.append(len(re))
        return _residues(re, im, field)

    monkeypatch.setattr(superop, "_residues", reduced)
    report = dim_preserver_verdict(phi, trials=5, seed=0)
    assert report.status == "counterexample"
    assert [name for name, _ in calls] == list(names)
    assert reductions == [9]
    assert superop.is_bijective(phi)
    assert reductions == [9]


# The note each verdict adds, by claim and status; claim 2 notes a
# counterexample only on a negated similarity.
_NOTES = {
    (1, "counterexample"): "the map does not preserve every probed fixed-point set",
    (1, "violation-candidate"): "all probes passed but the map is not the identity; "
    "treat as a probe-suite gap until re-checked",
    (2, "hypothesis-not-met"): "hypothesis not met: the map is not surjective",
    (2, "counterexample"): "the map is a negated similarity A -> -S @ A @ inv(S); the -I probe "
    "shows this branch of the claimed conclusion never preserves fixed-point dimensions",
    (2, "form-outside-conclusion"): "transpose-similarity form passed every dimension probe "
    "but is not among the claimed conclusion forms",
    (2, "violation-candidate"): "no structured form recovered although all probes passed; "
    "treat as a probe-suite gap until re-checked",
}


def _expected_report(phi: SuperOp, form: tuple, claim: int, trials: int, seed: int) -> tuple:
    """The fields of claim's report by the decision chain of its verdict's
    docstring, from the reference's bijectivity and probe_run, and form,
    the reference's classify of phi."""
    n, l = phi.n, reference.rows(phi.matrix)
    tag, _, scale = form
    # claim 1 has no hypothesis; claim 2's is that L is bijective
    met = claim == 1 or reference.oracle.is_full_rank(l)
    run = run_rows(phi, trials, seed, claim == 1) if met else None
    if not met:
        status = "hypothesis-not-met"
    elif run[0] == "counterexample":
        status = "counterexample"
    elif tag == "identity" or (claim, tag, scale) == (2, "similarity", reference.ONE):
        status = "consistent"
    elif (claim, tag) == (2, "transpose-similarity"):
        status = "form-outside-conclusion"
    else:
        status = "violation-candidate"
    small = f"n = {n} is below the claim's range (n >= 3); results are exploratory"
    notes = [small] if claim == 2 and n < 3 else []
    negated = (tag, scale) == ("similarity", reference.oracle.NEG_ONE)
    if (claim, status) in _NOTES and ((claim, status) != (2, "counterexample") or negated):
        notes.append(_NOTES[claim, status])
    discrepancy = None
    if (claim, status) == (1, "violation-candidate"):
        i, j = _first_off_identity(l)
        discrepancy = i, j, l[i][j], reference.ONE if i == j else reference.ZERO
    shown = None if not met or (claim, status) == (1, "counterexample") else form
    return claim, status, run, shown, tuple(notes), discrepancy


def _verdict_chain_map(kind: str, n: int, rng) -> SuperOp:
    if kind == "identity":
        return identity_superop(n)
    if kind == "random":
        return SuperOp(n, random_matrix(rng, n * n, n * n))
    if kind == "singular":
        return superop_from_action(n, lambda a: a[0, 0] * Matrix.unit(n, 0, 0))
    if kind == "entry-doubling":
        return _entry_doubling_map()
    s = random_invertible(rng, n)
    if kind == "two-sided":
        # T @ S = diag(1, ..., n), not scalar for n >= 2
        t = _diagonal(*range(1, n + 1)) @ inverse(s)
        return sandwich(s, t)
    family, scale = kind.split(":")
    build = similarity_superop if family == "similarity" else transpose_similarity_superop
    return build(s, GaussianRational(0, 1) if scale == "i" else int(scale))


VERDICT_CHAIN_MAPS = (
    "identity",
    "similarity:1",
    "similarity:-1",
    "similarity:2",
    "similarity:i",
    "transpose-similarity:1",
    "transpose-similarity:-1",
    "random",
    "singular",
    "entry-doubling",
    "two-sided",
)


@pytest.mark.parametrize("kind", VERDICT_CHAIN_MAPS)
@given(n=st.integers(1, 4), trials=st.integers(0, 3), seed=st.integers(0, 2**32))
def test_verdicts_match_one_report_per_status(kind, n, trials, seed):
    """Each verdict's one decision chain gives the report, field by field,
    that its docstring's chain gives on the reference's answers."""
    if kind in ("singular", "two-sided"):
        n = max(n, 2)
    phi = _verdict_chain_map(kind, n, derive_rng(seed, "verdict-chain", kind, n))
    names = [field.name for field in dataclasses.fields(PreserverReport)]
    form = reference.classify(reference.rows(phi.matrix), phi.n)
    for claim, verdict in ((1, set_preserver_verdict), (2, dim_preserver_verdict)):
        r = verdict(phi, trials, seed)
        d = r.discrepancy and (*r.discrepancy[:2], *map(pair, r.discrepancy[2:]))
        got = r.claim, r.status, verdict_rows(r.verdict), classification_rows(r.classification)
        got += r.notes, d
        expected = _expected_report(phi, form, claim, trials, seed)
        for name, field, want in zip(names, got, expected, strict=True):
            assert field == want, name


# ---------------------------------------------------------------------------
# Verdicts whose classification proves every probe passes build that pass
# without the probe run; check_* still evaluate every probe.

def _decided_map(kind: str, n: int, seed: int) -> SuperOp:
    if kind == "identity":
        return identity_superop(n)
    if kind == "prime-row-similarity":
        return prime_row_similarity(n, seed)
    s = random_invertible(derive_rng(seed, "decided", kind, n), n)
    build = similarity_superop if kind == "similarity" else transpose_similarity_superop
    return build(s, 1)


def _assert_same_verdict(verdict: Verdict, expected: Verdict) -> None:
    for field in dataclasses.fields(Verdict):
        assert getattr(verdict, field.name) == getattr(expected, field.name), field.name


@pytest.mark.parametrize(
    "kind", ["identity", "similarity", "transpose-similarity", "prime-row-similarity"]
)
@given(n=st.integers(1, 5), trials=st.integers(-1, 25), seed=st.integers(-(2**63), 2**63))
@example(n=3, trials=-1, seed=0)
@example(n=1, trials=0, seed=-1)
@example(n=5, trials=25, seed=2**63)
def test_decided_verdicts_equal_the_probe_run(kind, n, trials, seed):
    """Claim 2's decided pass is the pass check_dim_preserving returns, and
    claim 1's decided pass on the identity is check_set_preserving's."""
    phi = _decided_map(kind, n, seed)
    report = dim_preserver_verdict(phi, trials, seed)
    _assert_same_verdict(report.verdict, check_dim_preserving(phi, trials, seed))
    if kind == "identity":
        report = set_preserver_verdict(phi, trials, seed)
        assert (report.status, report.classification) == ("consistent", classify(phi))
        _assert_same_verdict(report.verdict, check_set_preserving(phi, trials, seed))


@pytest.mark.parametrize("verdict", [set_preserver_verdict, dim_preserver_verdict])
def test_decided_verdict_raises_the_runs_type_error(verdict):
    phi = identity_superop(3)
    with pytest.raises(TypeError):
        list(probe_suite(3, 2.0, 0))
    with pytest.raises(TypeError):
        verdict(phi, 2.0, 0)


_ROUTING_S = random_invertible(derive_rng(0, "routing"), 4)
_RUN_DIM = ["check_dim_preserving", "probe_suite"]
_RUN_SET = ["check_set_preserving", "probe_suite"]


@pytest.mark.parametrize(
    "verdict, build, run",
    [
        (dim_preserver_verdict, lambda: identity_superop(4), []),
        (dim_preserver_verdict, lambda: similarity_superop(_ROUTING_S, 1), []),
        (dim_preserver_verdict, lambda: transpose_similarity_superop(_ROUTING_S, 1), []),
        (set_preserver_verdict, lambda: identity_superop(4), []),
        (dim_preserver_verdict, lambda: similarity_superop(_ROUTING_S, -1), _RUN_DIM),
        (dim_preserver_verdict, lambda: similarity_superop(_ROUTING_S, 2), _RUN_DIM),
        (dim_preserver_verdict, lambda: transpose_similarity_superop(_ROUTING_S, -1), _RUN_DIM),
        (set_preserver_verdict, lambda: similarity_superop(_ROUTING_S, 1), _RUN_SET),
    ],
    ids=[
        "dim-identity",
        "dim-similarity",
        "dim-transpose-similarity",
        "set-identity",
        "dim-negated-similarity",
        "dim-similarity-scale-2",
        "dim-transpose-similarity-scale-minus-1",
        "set-similarity",
    ],
)
def test_only_undecided_verdicts_run_the_probes(verdict, build, run, monkeypatch):
    """A verdict decided by its classification calls no check and draws no
    probe suite; every other map runs its check over the suite, each by the
    module-level name a tracer rebinds."""
    names = ("check_dim_preserving", "check_set_preserving", "probe_suite")
    calls = record_calls(monkeypatch, preserver, *names)
    report = verdict(build(), trials=5, seed=0)
    assert [name for name, _ in calls] == run
    if not run:
        assert report.verdict == Verdict("pass", None, None, len(structured_probes(4)) + 5, 0)


# ---------------------------------------------------------------------------
# L is put on its canonical scale once: when its Matrix is built. The
# builders make the canonical rows with integer operations, and no call
# reads L as GaussianRational entries (Matrix.entries) after that.

_S3 = random_invertible(derive_rng(0, "scale-once"), 3)


@pytest.mark.parametrize(
    "build",
    [
        lambda: identity_superop(3),
        lambda: similarity_superop(_S3, 1),
        lambda: similarity_superop(_S3, -1),
        lambda: transpose_similarity_superop(_S3, 1),
        lambda: SuperOp(3, random_matrix(derive_rng(0, "scale-once-random"), 9, 9)),
    ],
    ids=["identity", "similarity", "negated-similarity", "transpose-similarity", "random"],
)
def test_dim_verdict_scales_l_once(build, monkeypatch):
    reads = count_entry_reads(monkeypatch, 9)
    phi = build()
    dim_preserver_verdict(phi)
    assert reads == []


def test_set_verdict_scales_l_once(monkeypatch):
    reads = count_entry_reads(monkeypatch, 9)
    assert set_preserver_verdict(identity_superop(3)).status == "consistent"
    assert reads == []


_PUBLIC_CALLS = {
    "is_bijective": is_bijective,
    "classify": classify,
    "check_dim_preserving": check_dim_preserving,
    "check_set_preserving": check_set_preserving,
    "dim_preserver_verdict": dim_preserver_verdict,
    "set_preserver_verdict": set_preserver_verdict,
    "apply": lambda phi: phi.apply(Matrix.unit(3, 0, 1)),
}


@pytest.mark.parametrize("call", list(_PUBLIC_CALLS))
def test_each_public_call_scales_l_once(call, monkeypatch):
    """The map's L is a Matrix, put on its canonical scale once; the call
    never reads it as GaussianRational entries."""
    phi = SuperOp(3, transpose_similarity_superop(_S3, 1).matrix)
    reads = count_entry_reads(monkeypatch, 9)
    _PUBLIC_CALLS[call](phi)
    assert reads == []
