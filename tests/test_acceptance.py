"""Acceptance gate: eleven exact criteria, zero tolerance.

Each test covers one numbered criterion and prints a single
"ACCEPTANCE <k>: PASS" line on success (visible under pytest -s; under
plain pytest the per-test PASSED line carries the same information).
Corpus sizes and bounds are part of the contract — do not shrink them.
"""

import json
import time
from fractions import Fraction
from pathlib import Path

from fixpres import (
    GaussianRational,
    Matrix,
    SuperOp,
    check_dim_preserving,
    check_set_preserving,
    classify,
    derive_rng,
    dim_fixed,
    dim_preserver_verdict,
    fixed_space,
    identity_superop,
    random_invertible,
    random_matrix,
    random_rank_one_idempotent,
    rank_one,
    completion_idempotent,
    set_preserver_verdict,
    similarity_superop,
    Subspace,
    transpose_similarity_superop,
)
from fixpres.linalg import kernel_basis, rank
from fixpres.preserver import probe_suite, structured_probes
from fixpres.rank_one import is_idempotent
from fixpres.sampling import (
    random_nonzero_column,
    random_nonzero_row,
    random_orthogonal_idempotent_pair,
)
from fixpres.scalars import ONE
from fixpres.cli import matrix_from_doc, matrix_to_doc, run, superop_from_doc

FIXTURES = Path(__file__).parent / "fixtures"

SIDES = (3, 4, 5)
PER_SIDE = 200


def _corpus(n: int):
    """The shared 200-matrix corpus for criteria 1-3 at side n."""
    return [
        random_matrix(derive_rng(17, "corpus", n, k), n, n) for k in range(PER_SIDE)
    ]


def _gauge(m: Matrix) -> Matrix:
    for j in range(m.cols):
        for i in range(m.rows):
            if m[i, j]:
                return (ONE / m[i, j]) * m
    raise AssertionError("zero matrix")


def _is_scalar_multiple_of_identity(s: Matrix) -> bool:
    return _gauge(s) == Matrix.identity(s.rows) if not s.is_zero else False


def test_acceptance_01_fixed_point_dimension_agreement():
    """dim via rank of A - I always equals the emitted basis column count."""
    for n in SIDES:
        eye = Matrix.identity(n)
        for a in _corpus(n):
            by_rank = n - rank(a - eye)
            assert dim_fixed(a) == by_rank
            assert fixed_space(a).dim == by_rank
    print("ACCEPTANCE 1: PASS")


def test_acceptance_02_kernel_equals_fixed_space_of_shift():
    """ker(A) coincides with the fixed space of A + I, exactly."""
    for n in SIDES:
        targets = list(probe_suite(n, trials=20, seed=0)) + _corpus(n)
        for a in targets:
            assert kernel_basis(a) == fixed_space(a + Matrix.identity(n))
    print("ACCEPTANCE 2: PASS")


def test_acceptance_03_rank_bounds_fixed_dimension():
    for n in SIDES:
        for a in _corpus(n):
            assert rank(a) >= dim_fixed(a)
    print("ACCEPTANCE 3: PASS")


def test_acceptance_04_idempotent_completion():
    """100 seeded (A, x) with x, Ax independent: P is a rank-one idempotent
    moving x back onto the fixed space of A + P."""
    built = 0
    k = 0
    while built < 100:
        n = 3 + (k % 2)
        rng = derive_rng(23, "completion", k)
        k += 1
        a = random_matrix(rng, n, n)
        x = random_nonzero_column(rng, n)
        if rank(x.hstack(a @ x)) != 2:
            continue
        p = completion_idempotent(a, x)
        assert rank(p) == 1
        assert is_idempotent(p)
        assert (a + p) @ x == x
        built += 1
    print("ACCEPTANCE 4: PASS")


def test_acceptance_05_rank_one_idempotent_calculus():
    """x (x) f is idempotent exactly when f(x) = 1; its fixed space is the
    line through x when idempotent and the zero space otherwise."""
    checked_idempotent = 0
    for k in range(100):
        n = 3 + (k % 2)
        rng = derive_rng(29, "outer", k)
        x = random_nonzero_column(rng, n)
        f = random_nonzero_row(rng, n)
        value = (f @ x)[0, 0]
        if k % 2 == 0 and value:
            f = (ONE / value) * f       # normalize half the corpus to f(x) = 1
            value = ONE
        m = rank_one(x, f)
        assert is_idempotent(m) == (value == ONE)
        if value == ONE:
            assert fixed_space(m) == Subspace.spanned_by_columns(x)
            checked_idempotent += 1
        else:
            assert fixed_space(m).dim == 0
    assert checked_idempotent >= 40
    print("ACCEPTANCE 5: PASS")


def _similarity_corpus():
    for k in range(100):
        n = 3 + (k % 2)
        s = random_invertible(derive_rng(31, "recover", k), n)
        if _is_scalar_multiple_of_identity(s):
            continue
        yield k, n, s


def test_acceptance_06_similarity_recovery_round_trip():
    """classify recovers S up to gauge with scale 1, under 1 second a case."""
    cases = 0
    for k, n, s in _similarity_corpus():
        started = time.perf_counter()
        result = classify(similarity_superop(s, 1))
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"case {k} took {elapsed:.3f}s"
        assert result.tag == "similarity"
        assert result.scale == ONE
        assert _gauge(result.s) == _gauge(s)
        cases += 1
    assert cases >= 95
    print("ACCEPTANCE 6: PASS")


def test_acceptance_07_transpose_family_recovery():
    """Same corpus through the transpose-similarity constructor; the maps
    pass every dimension probe."""
    for k, n, s in _similarity_corpus():
        phi = transpose_similarity_superop(s, 1)
        result = classify(phi)
        assert result.tag == "transpose-similarity"
        assert result.scale == ONE
        assert _gauge(result.s) == _gauge(s)
        if k < 20:
            verdict = check_dim_preserving(phi, trials=10, seed=k)
            assert verdict.outcome == "pass"
    print("ACCEPTANCE 7: PASS")


def test_acceptance_08_negation_falsifier():
    """Negated similarity always dies at the -I probe with detail (0, n),
    and the claim-2 verdict names the negated branch as unrealizable."""
    for k in range(20):
        n = 3 + (k % 2)
        s = random_invertible(derive_rng(37, "negation", k), n)
        verdict = check_dim_preserving(similarity_superop(s, -1), trials=5, seed=k)
        assert verdict.outcome == "counterexample"
        assert verdict.witness == -Matrix.identity(n)
        assert verdict.detail == (0, n)

        report = dim_preserver_verdict(similarity_superop(s, -1), trials=5, seed=k)
        assert report.status == "counterexample"
        assert report.classification.tag == "similarity"
        assert report.classification.scale == -ONE
        assert any("-I probe" in note for note in report.notes)
    print("ACCEPTANCE 8: PASS")


def test_acceptance_09_set_preserver_harness():
    """Identity is consistent; rank-one perturbations of the identity and
    nontrivial similarities are refuted inside the structured probe prefix."""
    n = 3
    assert set_preserver_verdict(identity_superop(n), trials=10, seed=0).status == "consistent"

    prefix = len(structured_probes(n))
    for k in range(50):
        rng = derive_rng(41, "perturb", k)
        u = random_nonzero_column(rng, n * n)
        v = random_nonzero_column(rng, n * n)
        perturbed = SuperOp(n, identity_superop(n).matrix + u @ v.transpose())
        verdict = check_set_preserving(perturbed, trials=0, seed=k)
        assert verdict.outcome == "counterexample"
        assert verdict.probes_run <= prefix

    for k in range(50):
        s = random_invertible(derive_rng(43, "simset", k), n)
        if _is_scalar_multiple_of_identity(s):
            continue
        verdict = check_set_preserving(similarity_superop(s, 1), trials=0, seed=k)
        assert verdict.outcome == "counterexample"
        assert verdict.probes_run <= prefix
    print("ACCEPTANCE 9: PASS")


def test_acceptance_10_similarity_forward_behavior():
    """Similarity maps send rank-one idempotents to rank-one idempotents,
    preserve orthogonality, and give the orthogonal image pair a
    two-dimensional joint fixed space."""
    for k in range(100):
        n = 3 + (k % 2)
        rng = derive_rng(47, "forward", k)
        s = random_invertible(rng, n)
        phi = similarity_superop(s, 1)

        p, _, _ = random_rank_one_idempotent(rng, n)
        image = phi.apply(p)
        assert rank(image) == 1
        assert is_idempotent(image)

        p1, p2 = random_orthogonal_idempotent_pair(rng, n)
        q1, q2 = phi.apply(p1), phi.apply(p2)
        assert is_idempotent(q1) and is_idempotent(q2)
        assert (q1 @ q2).is_zero and (q2 @ q1).is_zero
        assert dim_fixed(q1 + q2) == 2
    print("ACCEPTANCE 10: PASS")


def _random_matrix_document(rng) -> dict:
    """A matrix document whose scalar strings may be non-canonical."""
    r = rng.randint(1, 4)
    c = rng.randint(1, 4)
    entries = []
    for _ in range(r):
        row = []
        for _ in range(c):
            num = rng.randint(-12, 12)
            den = rng.randint(1, 6)
            factor = rng.choice([1, 1, 2, 3])      # unreduced forms like 4/6
            re_text = f"{num * factor}/{den * factor}"
            if rng.random() < 0.4:
                im_num = rng.randint(-9, 9)
                sign = "+" if im_num >= 0 else "-"
                row.append(f"{re_text}{sign}{abs(im_num)}/{den}i")
            else:
                row.append(re_text)
        entries.append(row)
    return {"n_rows": r, "n_cols": c, "entries": entries}


def test_acceptance_11_cli_round_trip_and_self_verification(capsys):
    # (a) parse -> emit stabilizes after one canonicalization pass
    for k in range(50):
        rng = derive_rng(53, "docs", k)
        doc = _random_matrix_document(rng)
        emitted_once = matrix_to_doc(matrix_from_doc(doc))
        emitted_twice = matrix_to_doc(matrix_from_doc(emitted_once))
        assert json.dumps(emitted_once) == json.dumps(emitted_twice)

    # (b) every emitted counterexample report re-verifies from its payload
    counterexample_runs = [
        ("check", "--superop", str(FIXTURES / "superop_negation_n3.json"),
         "--condition", "dim", "--trials", "5", "--seed", "0"),
        ("check", "--superop", str(FIXTURES / "superop_similarity_n3.json"),
         "--condition", "set", "--trials", "5", "--seed", "0"),
    ]
    for argv in counterexample_runs:
        code = run(list(argv))
        out = capsys.readouterr().out
        assert code == 1
        doc = json.loads(out)
        phi = superop_from_doc(doc["superop"])
        witness = matrix_from_doc(doc["verdict"]["witness"])
        detail = doc["verdict"]["detail"]
        if argv[4] == "dim":
            assert dim_fixed(witness) == detail["dim_fixed_input"]
            assert dim_fixed(phi.apply(witness)) == detail["dim_fixed_image"]
            assert detail["dim_fixed_input"] != detail["dim_fixed_image"]
        else:
            before = fixed_space(witness)
            after = fixed_space(phi.apply(witness))
            assert matrix_from_doc(detail["fixed_space_input"]["basis"]) == before.basis
            assert matrix_from_doc(detail["fixed_space_image"]["basis"]) == after.basis
            assert before != after

    # (c) exit codes on the golden fixture set
    golden = [
        (("fixdim", "--matrix", str(FIXTURES / "matrix_jordan_n3.json")), 0),
        (("verdict", "--superop", str(FIXTURES / "superop_identity_n3.json"),
          "--theorem", "1"), 0),
        (("verdict", "--superop", str(FIXTURES / "superop_transpose_sim_n3.json"),
          "--theorem", "2"), 0),
        (("check", "--superop", str(FIXTURES / "superop_negation_n3.json"),
          "--condition", "dim"), 1),
        (("verdict", "--superop", str(FIXTURES / "superop_rank_one_n3.json"),
          "--theorem", "2"), 1),
        (("classify", "--superop", str(FIXTURES / "bad_convention.json")), 2),
        (("classify", "--superop", str(FIXTURES / "truncated.json")), 2),
        (("fixdim", "--matrix", str(FIXTURES / "bad_scalar.json")), 2),
    ]
    for argv, expected in golden:
        assert run(list(argv)) == expected, f"exit code mismatch for {argv}"
        capsys.readouterr()
    print("ACCEPTANCE 11: PASS")
