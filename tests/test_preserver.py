"""Probes, falsifier checks, classification, and the two claim verdicts."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fixpres import (
    GaussianRational,
    Matrix,
    NotRankOneIdempotent,
    SuperOp,
    check_dim_preserving,
    check_set_preserving,
    classify,
    derive_rng,
    dim_fixed,
    dim_preserver_verdict,
    identity_superop,
    idempotent_shift_ratio,
    random_invertible,
    random_matrix,
    set_preserver_verdict,
    similarity_superop,
    transpose_similarity_superop,
    transpose_superop,
)
from fixpres.linalg import rank
from fixpres.preserver import probe_suite, structured_probes
from fixpres.scalars import ONE

from conftest import superop_from_action


def _first_nonzero_gauge(m: Matrix) -> Matrix:
    """Scale so the first nonzero entry in column-major order is 1."""
    for j in range(m.cols):
        for i in range(m.rows):
            if m[i, j]:
                pivot = m[i, j]
                return (ONE / pivot) * m
    raise AssertionError("zero matrix has no gauge")


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
    a = probe_suite(3, trials=5, seed=42)
    b = probe_suite(3, trials=5, seed=42)
    assert a == b
    c = probe_suite(3, trials=5, seed=43)
    assert a != c


def test_probe_suite_length():
    assert len(probe_suite(3, trials=7, seed=0)) == 9 + 7


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
# shift ratio

def test_shift_ratio_identity_map_is_one():
    phi = identity_superop(3)
    rng = derive_rng(0, "ratio")
    from fixpres import random_rank_one_idempotent

    p, _, _ = random_rank_one_idempotent(rng, 3)
    a = random_matrix(rng, 3, 3)
    assert idempotent_shift_ratio(phi, p, a) == ONE


def test_shift_ratio_doubling_map_on_p_is_three_halves():
    phi = similarity_superop(Matrix.identity(3), 2)
    p = Matrix.unit(3, 0, 0)
    assert idempotent_shift_ratio(phi, p, p) == GaussianRational(3) / GaussianRational(2)


def test_shift_ratio_absent_for_transpose_probe():
    phi = transpose_superop(3)
    p = Matrix.unit(3, 0, 0)
    a = Matrix.unit(3, 0, 1)
    assert idempotent_shift_ratio(phi, p, a) is None


def test_shift_ratio_validates_idempotent():
    phi = identity_superop(2)
    with pytest.raises(NotRankOneIdempotent):
        idempotent_shift_ratio(phi, Matrix.identity(2), Matrix.zeros(2, 2))
    with pytest.raises(NotRankOneIdempotent):
        idempotent_shift_ratio(phi, 2 * Matrix.unit(2, 0, 0), Matrix.zeros(2, 2))


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
        assert _first_nonzero_gauge(s) == Matrix.identity(n)
        return
    assert result.tag == "similarity"
    assert result.scale == ONE
    assert _first_nonzero_gauge(result.s) == _first_nonzero_gauge(s)


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
    assert _first_nonzero_gauge(result.s) == _first_nonzero_gauge(s)


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
    phi = superop_from_action(2, lambda a: s @ a @ t)
    assert classify(phi).tag == "unstructured"


def test_classify_random_is_unstructured():
    rng = derive_rng(5, "unstructured")
    phi = SuperOp(3, random_matrix(rng, 9, 9))
    assert classify(phi).tag == "unstructured"


def test_classify_singular_sandwich_is_unstructured():
    # S A T with singular S: realignment is rank one, but no inverse exists
    s = Matrix.from_rows([[1, 0], [0, 0]])
    t = Matrix.from_rows([[1, 0], [0, 1]])
    phi = superop_from_action(2, lambda a: s @ a @ t)
    assert classify(phi).tag == "unstructured"


def test_classify_scaled_identity_superop():
    # A -> 2A realigns to rank one with T S = 2 I: similarity with scale 2
    phi = similarity_superop(Matrix.identity(3), 2)
    result = classify(phi)
    assert result.tag == "similarity"
    assert result.scale == GaussianRational(2)


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
    phi = similarity_superop(Matrix.identity(3), 2)
    report = dim_preserver_verdict(phi, trials=5, seed=0)
    # A -> 2A changes fixed dims (I maps to 2I), so this is a counterexample
    assert report.status == "counterexample"


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
