"""CLI contract: JSON reports, 0/1/2 exit codes, byte determinism."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import fixpres
from fixpres import Matrix, SingularMatrix, dim_fixed, fixed_space, linalg
from fixpres.cli import (
    EXIT_INTERNAL,
    InputError,
    matrix_from_doc,
    matrix_to_doc,
    run,
    superop_from_doc,
    superop_to_doc,
)
from fixpres.linalg import InexactDivision

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


def test_matrix_doc_rejects_ragged_rows():
    with pytest.raises(InputError):
        matrix_from_doc({"n_rows": 2, "n_cols": 2, "entries": [["1", "0"], ["1"]]})


def test_matrix_doc_rejects_numeric_entries():
    with pytest.raises(InputError):
        matrix_from_doc({"n_rows": 1, "n_cols": 1, "entries": [[1]]})


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


def test_classify_identity(capsys):
    code, out, _ = invoke(
        capsys, "classify", "--superop", str(FIXTURES / "superop_identity_n3.json")
    )
    assert code == 0
    assert json.loads(out)["classification"]["tag"] == "identity"


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


def test_fuzz_echoes_seed_per_trial(capsys):
    code, out, _ = invoke(
        capsys,
        "fuzz", "--n", "2", "--family", "random", "--trials", "2", "--seed", "40",
    )
    doc = json.loads(out)
    assert [r["seed"] for r in doc["results"]] == [40, 41]


# ---------------------------------------------------------------------------
# exit code 2 paths

@pytest.mark.parametrize(
    "fixture,message_part",
    [
        ("bad_convention.json", "vec_convention"),
        ("truncated.json", "invalid JSON"),
    ],
)
def test_malformed_superop_inputs_exit_two(capsys, fixture, message_part):
    code, out, err = invoke(
        capsys, "classify", "--superop", str(FIXTURES / fixture)
    )
    assert code == 2
    assert out == ""
    assert message_part in err


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

    def unscaled(m):
        # skips the denominator clearing, so a Bareiss division is inexact
        rows = m.to_rows()
        return (
            [[z.re for z in row] for row in rows],
            [[z.im for z in row] for row in rows],
            [1] * len(rows),
        )

    target = tmp_path / "fractions.json"
    target.write_text(json.dumps(matrix_to_doc(Matrix.from_rows(
        [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), 1]]
    ))))
    monkeypatch.setattr(linalg, "_integer_rows", unscaled)
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
