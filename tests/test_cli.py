"""CLI contract: JSON reports, 0/1/2 exit codes, byte determinism."""

import argparse
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import fixpres
from fixpres import (
    Matrix,
    SingularMatrix,
    derive_rng,
    dim_fixed,
    fixed_space,
    linalg,
    parse_scalar,
    random_invertible,
    similarity_superop,
)
from fixpres.cli import (
    EXIT_INTERNAL,
    InputError,
    matrix_from_doc,
    matrix_to_doc,
    report_to_doc,
    run,
    superop_from_doc,
    superop_to_doc,
)
from fixpres.linalg import InexactDivision

from conftest import count_entry_reads, superop_from_action

FIXTURES = Path(__file__).parent / "fixtures"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# document layer

def test_matrix_doc_round_trip():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    assert matrix_from_doc(matrix_to_doc(m)) == m


def test_matrix_doc_repeated_strings_parse_to_their_scalars():
    doc = {"n_rows": 2, "n_cols": 3, "entries": [["1/2", "3-1i", "1/2"], ["3-1i", "0", "1/2"]]}
    assert matrix_from_doc(doc) == Matrix.from_rows(
        [[Fraction(1, 2), fixpres.GaussianRational(3, -1), Fraction(1, 2)],
         [fixpres.GaussianRational(3, -1), 0, Fraction(1, 2)]]
    )


def test_matrix_doc_names_the_first_entry_of_a_repeated_bad_string():
    doc = {"n_rows": 2, "n_cols": 2, "entries": [["1", "x"], ["x", "1/0"]]}
    with pytest.raises(InputError, match=r"entry \(0,1\)"):
        matrix_from_doc(doc)


def test_matrix_doc_rejects_ragged_rows():
    with pytest.raises(InputError):
        matrix_from_doc({"n_rows": 2, "n_cols": 2, "entries": [["1", "0"], ["1"]]})


def test_matrix_doc_rejects_numeric_entries():
    with pytest.raises(InputError):
        matrix_from_doc({"n_rows": 1, "n_cols": 1, "entries": [[1]]})


def test_report_doc_writes_the_discrepancy():
    """A map that doubles entry (0, 2) passes the probes; the report names
    the entry of L that differs from the identity's."""
    phi = superop_from_action(3, lambda a: a + a[0, 2] * Matrix.unit(3, 0, 2))
    doc = report_to_doc(fixpres.set_preserver_verdict(phi, trials=0, seed=0))
    assert doc["discrepancy"] == {"row": 6, "col": 6, "found": "2", "expected": "1"}


def test_superop_doc_rejects_row_convention():
    doc = superop_to_doc(fixpres.identity_superop(2))
    doc["vec_convention"] = "row"
    with pytest.raises(InputError, match="vec_convention"):
        superop_from_doc(doc)


def test_superop_doc_rejects_wrong_block_size():
    doc = superop_to_doc(fixpres.identity_superop(2))
    doc["n"] = 3
    with pytest.raises(InputError):
        superop_from_doc(doc)


# ---------------------------------------------------------------------------
# the input as the report repeats it

def unreduced(text: str) -> str:
    """The value of text written with both fractions over three times
    their denominators, which is never canonical."""
    z = parse_scalar(text)
    sign = "-" if z.im < 0 else "+"
    return (
        f"{3 * z.re.numerator}/{3 * z.re.denominator}"
        f"{sign}{3 * abs(z.im.numerator)}/{3 * z.im.denominator}i"
    )


@pytest.mark.parametrize(
    "path",
    sorted(FIXTURES.glob("superop_*.json")) + sorted(FIXTURES.glob("matrix_*.json")),
    ids=lambda path: path.stem,
)
def test_report_repeats_the_input_as_the_writer_writes_it(capsys, path):
    """The report's copy of the input is the read map (or matrix) written
    by the writer, also for superop_noncanonical_n3.json."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    if "L" in doc:
        _, out, _ = invoke(capsys, "classify", "--superop", str(path))
        assert json.loads(out)["superop"] == superop_to_doc(superop_from_doc(doc))
    else:
        _, out, _ = invoke(capsys, "fixdim", "--matrix", str(path))
        assert json.loads(out)["matrix"] == matrix_to_doc(matrix_from_doc(doc))


@pytest.mark.parametrize(
    "argv",
    [
        ("classify",),
        ("check", "--condition", "dim", "--trials", "2"),
        ("verdict", "--theorem", "2", "--trials", "2"),
    ],
    ids=["classify", "check", "verdict"],
)
def test_report_repeats_a_partly_noncanonical_input_canonically(tmp_path, capsys, argv):
    canonical = superop_to_doc(similarity_superop(random_invertible(derive_rng(5, "echo"), 4), 1))
    doc = json.loads(json.dumps(canonical))
    rows = doc["L"]["entries"]
    for i, row in enumerate(rows):
        for j in range(i % 3, len(row), 3):
            row[j] = unreduced(row[j])
    assert doc != canonical
    target = tmp_path / "partly_noncanonical_n4.json"
    target.write_text(json.dumps(doc))
    _, out, _ = invoke(capsys, argv[0], "--superop", str(target), *argv[1:])
    assert json.loads(out)["superop"] == superop_to_doc(superop_from_doc(doc)) == canonical


@pytest.mark.parametrize(
    "rows,message",
    [
        # a bad scalar in an earlier row than an entry that is no string
        ([["1", "0", "0"], ["0", "1", "1/"], [5, "0", "1"]],
         "entry (1,2): expected digits after '/' (at position 2)"),
        # within a row, the first bad entry, whatever its kind
        ([["1", "0", "0"], [["0"], "1", "x"], ["0", "0", "1"]], "entry (1,0) must be a string"),
        ([["1", "0", "0"], ["0", "x", ["0"]], ["0", "0", "1"]],
         "entry (1,1): expected digits (at position 0)"),
    ],
    ids=["bad-scalar-before-non-string", "unhashable-first", "bad-scalar-first"],
)
def test_input_error_names_the_first_bad_entry(tmp_path, capsys, rows, message):
    target = tmp_path / "bad.json"
    target.write_text(json.dumps({"n_rows": 3, "n_cols": 3, "entries": rows}))
    code, out, err = invoke(capsys, "fixdim", "--matrix", str(target))
    assert (code, out, err) == (2, "", f"error: matrix: {message}\n")


def test_numeral_over_the_digit_limit_names_its_entry(tmp_path, capsys):
    huge = "7" * 5000
    with pytest.raises(ValueError) as refused:
        int(huge)
    rows = [["1", "0", "0"], ["0", "1", "0"], ["0", huge, "1"]]
    target = tmp_path / "huge.json"
    target.write_text(json.dumps({"n_rows": 3, "n_cols": 3, "entries": rows}))
    code, out, err = invoke(capsys, "fixdim", "--matrix", str(target))
    assert (code, out, err) == (2, "", f"error: matrix: entry (2,1): {refused.value}\n")


# ---------------------------------------------------------------------------
# subcommands on golden fixtures

def test_fixdim_reports_jordan_block(capsys):
    code, out, _ = invoke(capsys, "fixdim", "--matrix", str(FIXTURES / "matrix_jordan_n3.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "fixdim"
    assert doc["dim_fixed"] == 1
    assert doc["fixed_space"]["dim"] == 1
    assert doc["tool_version"] == fixpres.__version__


def test_fixdim_identity_has_full_fixed_space(tmp_path, capsys):
    target = tmp_path / "identity.json"
    target.write_text(json.dumps(matrix_to_doc(Matrix.identity(3))))
    code, out, _ = invoke(capsys, "fixdim", "--matrix", str(target))
    assert code == 0
    doc = json.loads(out)
    assert doc["dim_fixed"] == 3
    assert doc["fixed_space"]["basis"]["n_cols"] == 3


def test_fixdim_rejects_rectangular(tmp_path, capsys):
    target = tmp_path / "rect.json"
    target.write_text(json.dumps(matrix_to_doc(Matrix.zeros(2, 3))))
    code, out, err = invoke(capsys, "fixdim", "--matrix", str(target))
    assert code == 2
    assert out == ""
    assert "square" in err


def test_classify_identity(tmp_path, capsys):
    """The identity has no S of its own; --emit-s writes I."""
    s_path = tmp_path / "s.json"
    code, out, _ = invoke(
        capsys,
        "classify",
        "--superop", str(FIXTURES / "superop_identity_n3.json"),
        "--emit-s", str(s_path),
    )
    assert code == 0
    assert json.loads(out)["classification"]["tag"] == "identity"
    assert matrix_from_doc(json.loads(s_path.read_text())) == Matrix.identity(3)


def test_classify_similarity_emits_s(tmp_path, capsys):
    s_path = tmp_path / "s.json"
    code, out, _ = invoke(
        capsys,
        "classify",
        "--superop", str(FIXTURES / "superop_similarity_n3.json"),
        "--emit-s", str(s_path),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["classification"]["tag"] == "similarity"
    assert doc["classification"]["lambda"] == "1"
    emitted = matrix_from_doc(json.loads(s_path.read_text()))
    assert emitted.rows == 3
    # the emitted S must reproduce the map on a probe
    phi = superop_from_doc(json.loads((FIXTURES / "superop_similarity_n3.json").read_text()))
    a = Matrix.from_rows([[1, 0, 2], [0, 1, 0], [3, 0, 1]])
    assert emitted @ a @ linalg.inverse(emitted) == phi.apply(a)


def test_classify_unstructured_skips_emit(tmp_path, capsys):
    code, out, _ = invoke(
        capsys,
        "classify",
        "--superop", str(FIXTURES / "superop_rank_one_n3.json"),
        "--emit-s", str(tmp_path / "unused.json"),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["classification"]["tag"] == "unstructured"
    assert not (tmp_path / "unused.json").exists()
    assert any("emit-s" in note for note in doc["notes"])


def test_classify_unwritable_emit_target_is_input_error(tmp_path, capsys):
    """--emit-s naming a directory cannot be written: exit 2, not an internal error."""
    code, out, err = invoke(
        capsys,
        "classify",
        "--superop", str(FIXTURES / "superop_similarity_n3.json"),
        "--emit-s", str(tmp_path),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write")


def test_check_negation_exit_one(capsys):
    code, out, _ = invoke(
        capsys,
        "check",
        "--superop", str(FIXTURES / "superop_negation_n3.json"),
        "--condition", "dim",
        "--trials", "5",
        "--seed", "0",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"]["outcome"] == "counterexample"
    assert doc["verdict"]["detail"] == {"dim_fixed_input": 0, "dim_fixed_image": 3}
    assert doc["seed"] == 0


def test_check_identity_set_passes(capsys):
    code, out, _ = invoke(
        capsys,
        "check",
        "--superop", str(FIXTURES / "superop_identity_n3.json"),
        "--condition", "set",
        "--trials", "5",
        "--seed", "7",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"]["outcome"] == "pass"
    assert doc["verdict"]["probes_run"] == 14
    assert doc["verdict"]["seed"] == 7


def test_counterexample_report_reverifies_from_payload(capsys):
    """The report alone must contain enough to re-run the violated check."""
    code, out, _ = invoke(
        capsys,
        "check",
        "--superop", str(FIXTURES / "superop_similarity_n3.json"),
        "--condition", "set",
        "--trials", "5",
        "--seed", "0",
    )
    assert code == 1
    doc = json.loads(out)
    phi = superop_from_doc(doc["superop"])
    witness = matrix_from_doc(doc["verdict"]["witness"])
    before = fixed_space(witness)
    after = fixed_space(phi.apply(witness))
    assert before != after
    detail = doc["verdict"]["detail"]
    assert matrix_from_doc(detail["fixed_space_input"]["basis"]) == before.basis
    assert matrix_from_doc(detail["fixed_space_image"]["basis"]) == after.basis


def test_dim_counterexample_report_reverifies(capsys):
    code, out, _ = invoke(
        capsys,
        "check",
        "--superop", str(FIXTURES / "superop_negation_n3.json"),
        "--condition", "dim",
        "--trials", "3",
        "--seed", "0",
    )
    assert code == 1
    doc = json.loads(out)
    phi = superop_from_doc(doc["superop"])
    witness = matrix_from_doc(doc["verdict"]["witness"])
    assert dim_fixed(witness) == doc["verdict"]["detail"]["dim_fixed_input"]
    assert dim_fixed(phi.apply(witness)) == doc["verdict"]["detail"]["dim_fixed_image"]


def test_verdict_theorem_one_identity(capsys):
    code, out, _ = invoke(
        capsys,
        "verdict",
        "--superop", str(FIXTURES / "superop_identity_n3.json"),
        "--theorem", "1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["theorem"] == 1
    assert doc["status"] == "consistent"


def test_verdict_theorem_two_negation(capsys):
    code, out, _ = invoke(
        capsys,
        "verdict",
        "--superop", str(FIXTURES / "superop_negation_n3.json"),
        "--theorem", "2",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "counterexample"
    assert doc["classification"]["lambda"] == "-1"
    assert any("-I probe" in note for note in doc["notes"])


def test_verdict_theorem_two_transpose_family(capsys):
    code, out, _ = invoke(
        capsys,
        "verdict",
        "--superop", str(FIXTURES / "superop_transpose_sim_n3.json"),
        "--theorem", "2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "form-outside-conclusion"
    assert doc["classification"]["tag"] == "transpose-similarity"


def test_verdict_hypothesis_not_met(capsys):
    code, out, _ = invoke(
        capsys,
        "verdict",
        "--superop", str(FIXTURES / "superop_rank_one_n3.json"),
        "--theorem", "2",
    )
    assert code == 1
    assert json.loads(out)["status"] == "hypothesis-not-met"


def test_fuzz_similarity_family_passes(capsys):
    code, out, _ = invoke(
        capsys,
        "fuzz", "--n", "3", "--family", "similarity", "--trials", "3", "--seed", "11",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"] == {"passes": 3, "counterexamples": 0}
    assert all(r["classification"]["tag"] == "similarity" for r in doc["results"])


def test_fuzz_neg_similarity_family_fails(capsys):
    code, out, _ = invoke(
        capsys,
        "fuzz", "--n", "3", "--family", "neg-similarity", "--trials", "3", "--seed", "11",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["summary"]["counterexamples"] == 3


def test_fuzz_scales_each_map_once(capsys, monkeypatch):
    """No fuzz trial reads L as GaussianRational entries: the random family
    builds its canonical rows straight from the drawn integers, and the
    probe check and classify read those rows."""
    reads = count_entry_reads(monkeypatch, 9)  # L of an n = 3 map, not an n x n probe
    for family, code in (("similarity", 0), ("random", 1)):
        assert invoke(
            capsys,
            "fuzz", "--n", "3", "--family", family, "--trials", "2", "--seed", "0",
        )[0] == code
    assert reads == []


def test_fuzz_echoes_seed_per_trial(capsys):
    code, out, _ = invoke(
        capsys,
        "fuzz", "--n", "2", "--family", "random", "--trials", "2", "--seed", "40",
    )
    doc = json.loads(out)
    assert [r["seed"] for r in doc["results"]] == [40, 41]


# ---------------------------------------------------------------------------
# exit code 2 paths

def _superop_doc(l) -> dict:
    return {"n": 1, "vec_convention": "column", "L": l}


@pytest.mark.parametrize(
    "fixture,message_part",
    [
        ("bad_convention.json", "vec_convention"),
        ("truncated.json", "invalid JSON"),
        # a document, not a fixture name, is written to a file first
        pytest.param([], "superop: expected an object", id="not-an-object"),
        pytest.param({"n": 1, "vec_convention": "column"}, "missing field 'L'", id="no-L"),
        pytest.param(_superop_doc([]), "superop.L: expected an object", id="L-not-an-object"),
        pytest.param(_superop_doc({"n_rows": 1, "n_cols": 1}), "missing field 'entries'",
                     id="L-without-entries"),
        pytest.param(_superop_doc({"n_rows": 1, "n_cols": 1, "entries": []}),
                     "expected 1 entry rows", id="L-with-too-few-rows"),
    ],
)
def test_malformed_superop_inputs_exit_two(tmp_path, capsys, fixture, message_part):
    path = tmp_path / "superop.json"
    if isinstance(fixture, str):
        path = FIXTURES / fixture
    else:
        path.write_text(json.dumps(fixture))
    code, out, err = invoke(capsys, "classify", "--superop", str(path))
    assert code == 2
    assert out == ""
    assert message_part in err


@pytest.mark.parametrize("n", ["0", "17"])
def test_fuzz_side_out_of_range_exit_two(capsys, n):
    argv = ("fuzz", "--n", n, "--family", "random", "--trials", "1", "--seed", "0")
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert "--n must be in 1..16" in err


def test_bad_scalar_matrix_exit_two(capsys):
    code, out, err = invoke(capsys, "fixdim", "--matrix", str(FIXTURES / "bad_scalar.json"))
    assert code == 2
    assert "entry (0,0)" in err


def test_missing_file_exit_two(capsys):
    code, _, err = invoke(capsys, "fixdim", "--matrix", "/nonexistent/file.json")
    assert code == 2
    assert "cannot read" in err


def test_unknown_condition_exit_two(capsys):
    code, _, _ = invoke(
        capsys,
        "check",
        "--superop", str(FIXTURES / "superop_identity_n3.json"),
        "--condition", "bogus",
    )
    assert code == 2


def test_missing_subcommand_exit_two(capsys):
    assert invoke(capsys)[0] == 2


@pytest.mark.parametrize("command", ["fuzz", "check", "verdict"])
def test_negative_trials_exit_two(capsys, command):
    argv = {
        "fuzz": ("fuzz", "--n", "3", "--family", "random", "--seed", "0"),
        "check": ("check", "--superop", str(FIXTURES / "superop_identity_n3.json"),
                  "--condition", "dim"),
        "verdict": ("verdict", "--superop", str(FIXTURES / "superop_identity_n3.json"),
                    "--theorem", "2"),
    }[command]
    code, out, err = invoke(capsys, *argv, "--trials", "-2")
    assert code == 2
    assert out == ""
    assert "--trials" in err


def test_boolean_sizes_exit_two(tmp_path, capsys):
    doc = superop_to_doc(fixpres.identity_superop(1))
    doc["n"] = True
    target = tmp_path / "bool_n.json"
    target.write_text(json.dumps(doc))
    code, out, err = invoke(capsys, "classify", "--superop", str(target))
    assert code == 2
    assert out == ""
    assert "n must be an integer" in err
    with pytest.raises(InputError):
        matrix_from_doc({"n_rows": True, "n_cols": 1, "entries": [["1"]]})


@pytest.mark.parametrize(
    "command,flag,text,message_part",
    [
        # json.load raises a plain ValueError, not JSONDecodeError, here
        ("classify", "--superop",
         '{"n": %s, "vec_convention": "column", "L": {}}' % ("9" * 5000), "invalid JSON"),
        # parse_scalar's int() raises a plain ValueError, not ParseError, here
        ("fixdim", "--matrix",
         json.dumps({"n_rows": 1, "n_cols": 1, "entries": [["7" * 5000]]}), "entry (0,0)"),
    ],
    ids=["json-integer", "scalar-entry"],
)
def test_numerals_over_the_digit_limit_exit_two(
    tmp_path, capsys, command, flag, text, message_part
):
    target = tmp_path / "huge.json"
    target.write_text(text)
    code, out, err = invoke(capsys, command, flag, str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert message_part in err


@pytest.mark.parametrize(
    "argv",
    [
        ("fixdim", "--matrix"),
        ("check", "--condition", "dim", "--superop"),
    ],
    ids=["fixdim", "check"],
)
def test_deeply_nested_json_exits_two(tmp_path, capsys, argv):
    """json.load raises RecursionError, not ValueError, on deep nesting."""
    target = tmp_path / "nested.json"
    target.write_text("[" * 200_000 + "]" * 200_000)
    code, out, err = invoke(capsys, *argv, str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "nested too deeply" in err


def test_result_over_the_digit_limit_exit_two(tmp_path, capsys):
    """Entries under the limit whose exact fixed-space basis is over it."""
    rng = random.Random(1)
    big = [rng.randrange(10**2999, 10**3000) for _ in range(6)]
    rows = [[str(v) for v in big[:3]], [str(v) for v in big[3:]], ["0", "0", "1"]]
    target = tmp_path / "growth.json"
    target.write_text(json.dumps({"n_rows": 3, "n_cols": 3, "entries": rows}))
    code, out, err = invoke(capsys, "fixdim", "--matrix", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: result too large to print")


def test_internal_error_is_not_reported_as_input_error(tmp_path, monkeypatch):
    """A broken elimination invariant must surface, not become exit 2."""

    # A - I is singular (A fixes e_3), so fixed_space takes the exact pass
    m = Matrix.from_rows(
        [[Fraction(1, 2), Fraction(1, 3), 0], [Fraction(1, 5), 1, 0], [0, 0, 1]]
    )
    assert m.d == 30

    bareiss = linalg._bareiss

    def unscaled(re, im, n_cols, reduce):
        # undoes the denominator clearing, so a Bareiss division is inexact
        return bareiss(
            [[Fraction(x, 30) for x in row] for row in re],
            [[Fraction(y, 30) for y in row] for row in im],
            n_cols,
            reduce,
        )

    target = tmp_path / "fractions.json"
    target.write_text(json.dumps(matrix_to_doc(m)))
    monkeypatch.setattr(linalg, "_bareiss", unscaled)
    with pytest.raises(InexactDivision):
        run(["fixdim", "--matrix", str(target)])


def test_main_exits_3_on_internal_error(capsys, monkeypatch):
    """An error escaping run: traceback on stderr, empty stdout, exit 3."""

    def broken(args):
        raise RuntimeError("handler bug")

    monkeypatch.setitem(fixpres.cli._HANDLERS, "fixdim", broken)
    monkeypatch.setattr(sys, "argv", ["fixpres", "fixdim", "--matrix", "unused.json"])
    with pytest.raises(SystemExit) as exc:
        fixpres.cli.main()
    captured = capsys.readouterr()
    assert exc.value.code == EXIT_INTERNAL == 3
    assert captured.out == ""
    assert "Traceback" in captured.err
    assert "RuntimeError: handler bug" in captured.err


def test_main_exits_3_on_internal_value_error(capsys, monkeypatch):
    """A ValueError raised inside the package is a bug, not an input error."""

    def broken(a):
        raise SingularMatrix("bug in fixed_space")

    monkeypatch.setattr(fixpres.cli, "fixed_space", broken)
    monkeypatch.setattr(
        sys, "argv", ["fixpres", "fixdim", "--matrix", str(FIXTURES / "matrix_jordan_n3.json")]
    )
    with pytest.raises(SystemExit) as exc:
        fixpres.cli.main()
    captured = capsys.readouterr()
    assert exc.value.code == EXIT_INTERNAL
    assert captured.out == ""
    assert "SingularMatrix: bug in fixed_space" in captured.err


# ---------------------------------------------------------------------------
# determinism

def test_reports_are_byte_deterministic(capsys):
    argv = (
        "check",
        "--superop", str(FIXTURES / "superop_negation_n3.json"),
        "--condition", "dim",
        "--trials", "10",
        "--seed", "3",
    )
    _, first, _ = invoke(capsys, *argv)
    _, second, _ = invoke(capsys, *argv)
    assert first == second


GOLDEN = FIXTURES / "golden"
GOLDEN_CASES = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))


def assert_matches_golden(capsys, case):
    argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in case["argv"]]
    code, out, err = invoke(capsys, *argv)
    expected = (GOLDEN / f"{case['name']}.stdout").read_bytes()
    assert (code, err) == (case["exit"], "")
    assert out.encode("utf-8") == expected


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=[c["name"] for c in GOLDEN_CASES])
def test_report_bytes_match_golden(capsys, case):
    """stdout and exit code equal those recorded for the same invocation.

    The recordings were made with `python -m fixpres`; input documents are
    named relative to tests/fixtures, and reports never echo the path.
    """
    assert_matches_golden(capsys, case)


def test_parser_reuse_after_usage_error_and_help(capsys, monkeypatch):
    """One parser serves every run in a process: a usage error and --help
    leave no state behind, and later runs build no parser."""
    fixture = str(FIXTURES / "superop_negation_n3.json")
    code, out, err = invoke(capsys, "verdict", "--superop", fixture, "--theorem", "3")
    assert (code, out) == (2, "")
    assert "invalid choice" in err
    code, out, _ = invoke(capsys, "--help")
    assert code == 0
    assert out.startswith("usage: fixpres")

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    by_name = {case["name"]: case for case in GOLDEN_CASES}
    for name in ("superop_negation_n3.check-dim", "superop_negation_n3.verdict-2"):
        assert_matches_golden(capsys, by_name[name])
    assert built == []


@pytest.mark.parametrize("module", ["fixpres", "fixpres.cli"])
def test_module_runs_as_subprocess(module):
    env = dict(os.environ, PYTHONPATH=str(Path(fixpres.__file__).parents[1]))
    result = subprocess.run(
        [
            sys.executable, "-m", module,
            "verdict",
            "--superop", str(FIXTURES / "superop_negation_n3.json"),
            "--theorem", "2",
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 1
    assert json.loads(result.stdout)["status"] == "counterexample"
    assert result.stderr == ""


def test_console_script_runs_as_subprocess():
    """The installed entry point must agree with in-process invocation."""
    result = subprocess.run(
        [
            sys.executable, "-c",
            "import sys; from fixpres.cli import run; sys.exit(run(sys.argv[1:]))",
            "verdict",
            "--superop", str(FIXTURES / "superop_negation_n3.json"),
            "--theorem", "2",
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 1
    doc = json.loads(result.stdout)
    assert doc["status"] == "counterexample"
