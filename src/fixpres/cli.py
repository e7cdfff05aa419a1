"""Command-line front door: JSON in, JSON report out, stable exit codes.

Interchange formats (all scalars are exact strings, never floats):

* matrix document: {"n_rows": R, "n_cols": C, "entries": [[str, ...], ...]}
* superoperator document: {"n": N, "vec_convention": "column",
  "L": <matrix document of side N*N>}
* report document: written to stdout; diagnostics go to stderr.

Exit codes: 0 = pass/classified/computed, 1 = counterexample or
hypothesis failure found, 2 = input or parse error, 3 = internal error
(a bug in fixpres, never a property of the input).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from . import __version__
from .fixed_points import fixed_space
from .linalg import Matrix, Subspace, rank
from .preserver import (
    Classification,
    IDENTITY,
    OUTCOME_COUNTEREXAMPLE,
    OUTCOME_PASS,
    PreserverReport,
    Verdict,
    check_dim_preserving,
    check_set_preserving,
    classify,
    dim_preserver_verdict,
    set_preserver_verdict,
)
from .sampling import derive_rng, random_invertible, random_matrix
from .scalars import GaussianRational, format_scalar, parse_scalar
from .superop import (
    MAX_SIDE,
    SuperOp,
    similarity_superop,
    transpose_similarity_superop,
)

FUZZ_PROBE_TRIALS = 8

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class InputError(ValueError):
    """Malformed input file or document; reported on stderr with exit 2."""


def _is_int(value) -> bool:
    """True for JSON integers; bool is an int subclass but not a size."""
    return isinstance(value, int) and not isinstance(value, bool)


# ---------------------------------------------------------------------------
# documents

def _scalar_text(z: GaussianRational) -> str:
    """format_scalar; an exact result over the interpreter's int digit
    limit depends on the input alone, so it is an input error (exit 2)."""
    try:
        return format_scalar(z)
    except ValueError as exc:
        raise InputError(f"result too large to print: {exc}") from exc


def matrix_to_doc(m: Matrix) -> dict:
    return {
        "n_rows": m.rows,
        "n_cols": m.cols,
        "entries": [
            [_scalar_text(m[i, j]) for j in range(m.cols)] for i in range(m.rows)
        ],
    }


def matrix_from_doc(doc, where: str = "matrix") -> Matrix:
    if not isinstance(doc, dict):
        raise InputError(f"{where}: expected an object, got {type(doc).__name__}")
    try:
        n_rows = doc["n_rows"]
        n_cols = doc["n_cols"]
        entries = doc["entries"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"{where}: missing field {exc}") from exc
    if not (_is_int(n_rows) and _is_int(n_cols)) or n_rows < 0 or n_cols < 0:
        raise InputError(f"{where}: n_rows and n_cols must be nonnegative integers")
    if not isinstance(entries, list) or len(entries) != n_rows:
        raise InputError(f"{where}: expected {n_rows} entry rows")
    parsed: list[GaussianRational] = []
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != n_cols:
            raise InputError(f"{where}: row {i} must hold {n_cols} entries")
        for j, text in enumerate(row):
            if not isinstance(text, str):
                raise InputError(f"{where}: entry ({i},{j}) must be a string")
            try:
                parsed.append(parse_scalar(text))
            except ValueError as exc:
                # ParseError, or int() refusing a numeral over the digit limit
                raise InputError(f"{where}: entry ({i},{j}): {exc}") from exc
    return Matrix(n_rows, n_cols, tuple(parsed))


def superop_to_doc(phi: SuperOp) -> dict:
    return {"n": phi.n, "vec_convention": "column", "L": matrix_to_doc(phi.matrix)}


def superop_from_doc(doc, where: str = "superop") -> SuperOp:
    if not isinstance(doc, dict):
        raise InputError(f"{where}: expected an object, got {type(doc).__name__}")
    n = doc.get("n")
    if not _is_int(n) or not 1 <= n <= MAX_SIDE:
        raise InputError(f"{where}: n must be an integer in 1..{MAX_SIDE}")
    convention = doc.get("vec_convention")
    if convention != "column":
        raise InputError(
            f"{where}: vec_convention must be \"column\", got {convention!r}"
        )
    if "L" not in doc:
        raise InputError(f"{where}: missing field 'L'")
    l = matrix_from_doc(doc["L"], where=f"{where}.L")
    if l.rows != n * n or l.cols != n * n:
        raise InputError(f"{where}: L must be {n * n}x{n * n}, got {l.rows}x{l.cols}")
    return SuperOp(n, l)


def subspace_to_doc(space: Subspace) -> dict:
    return {
        "ambient_dim": space.ambient_dim,
        "dim": space.dim,
        "basis": matrix_to_doc(space.basis),
    }


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        # JSONDecodeError, bad UTF-8, or an integer over the digit limit
        raise InputError(f"{path}: invalid JSON: {exc}") from exc


def verdict_to_doc(verdict: Verdict, condition: str) -> dict:
    doc = {
        "outcome": verdict.outcome,
        "probes_run": verdict.probes_run,
        "seed": verdict.seed,
    }
    if verdict.outcome == OUTCOME_COUNTEREXAMPLE:
        doc["witness"] = matrix_to_doc(verdict.witness)
        left, right = verdict.detail
        if condition == "dim":
            doc["detail"] = {"dim_fixed_input": left, "dim_fixed_image": right}
        else:
            doc["detail"] = {
                "fixed_space_input": subspace_to_doc(left),
                "fixed_space_image": subspace_to_doc(right),
            }
    return doc


def classification_to_doc(classification: Classification) -> dict:
    doc: dict = {"tag": classification.tag}
    if classification.s is not None:
        doc["s"] = matrix_to_doc(classification.s)
    if classification.scale is not None:
        doc["lambda"] = _scalar_text(classification.scale)
    return doc


def report_to_doc(report: PreserverReport) -> dict:
    doc: dict = {"claim": report.claim, "status": report.status}
    if report.verdict is not None:
        condition = "set" if report.claim == 1 else "dim"
        doc["verdict"] = verdict_to_doc(report.verdict, condition)
    if report.classification is not None:
        doc["classification"] = classification_to_doc(report.classification)
    doc["notes"] = list(report.notes)
    if report.discrepancy is not None:
        i, j, found, expected = report.discrepancy
        doc["discrepancy"] = {
            "row": i,
            "col": j,
            "found": _scalar_text(found),
            "expected": _scalar_text(expected),
        }
    return doc


# ---------------------------------------------------------------------------
# subcommands

def _cmd_fixdim(args) -> tuple[dict, int]:
    matrix = matrix_from_doc(_load_json(args.matrix))
    if not matrix.is_square:
        raise InputError(f"fixdim needs a square matrix, got {matrix.rows}x{matrix.cols}")
    space = fixed_space(matrix)
    report = {
        "command": "fixdim",
        "tool_version": __version__,
        "matrix": matrix_to_doc(matrix),
        "n": matrix.rows,
        "dim_fixed": space.dim,
        "rank": rank(matrix),
        "fixed_space": subspace_to_doc(space),
    }
    return report, EXIT_OK


def _cmd_classify(args) -> tuple[dict, int]:
    phi = superop_from_doc(_load_json(args.superop))
    classification = classify(phi)
    report = {
        "command": "classify",
        "tool_version": __version__,
        "superop": superop_to_doc(phi),
        "classification": classification_to_doc(classification),
    }
    if args.emit_s:
        if classification.s is not None:
            emitted = classification.s
        elif classification.tag == IDENTITY:
            emitted = Matrix.identity(phi.n)
        else:
            emitted = None
            report["notes"] = ["no similarity form recovered; --emit-s wrote nothing"]
        if emitted is not None:
            doc = matrix_to_doc(emitted)
            try:
                with open(args.emit_s, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh, indent=2)
                    fh.write("\n")
            except OSError as exc:
                raise InputError(f"cannot write {args.emit_s}: {exc}") from exc
    return report, EXIT_OK


def _cmd_check(args) -> tuple[dict, int]:
    phi = superop_from_doc(_load_json(args.superop))
    if args.condition == "dim":
        verdict = check_dim_preserving(phi, trials=args.trials, seed=args.seed)
    else:
        verdict = check_set_preserving(phi, trials=args.trials, seed=args.seed)
    report = {
        "command": "check",
        "tool_version": __version__,
        "condition": args.condition,
        "seed": args.seed,
        "trials": args.trials,
        "superop": superop_to_doc(phi),
        "verdict": verdict_to_doc(verdict, args.condition),
    }
    code = EXIT_OK if verdict.outcome == OUTCOME_PASS else EXIT_FINDING
    return report, code


def _cmd_verdict(args) -> tuple[dict, int]:
    phi = superop_from_doc(_load_json(args.superop))
    if args.theorem == 1:
        result = set_preserver_verdict(phi, trials=args.trials, seed=args.seed)
    else:
        result = dim_preserver_verdict(phi, trials=args.trials, seed=args.seed)
    report = {
        "command": "verdict",
        "tool_version": __version__,
        "theorem": args.theorem,
        "seed": args.seed,
        "trials": args.trials,
        "superop": superop_to_doc(phi),
    }
    report.update(report_to_doc(result))
    code = EXIT_FINDING if result.status in ("counterexample", "hypothesis-not-met") else EXIT_OK
    return report, code


def _fuzz_instance(family: str, n: int, trial_seed: int) -> SuperOp:
    rng = derive_rng(trial_seed, "fuzz", family)
    if family == "similarity":
        return similarity_superop(random_invertible(rng, n), 1)
    if family == "neg-similarity":
        return similarity_superop(random_invertible(rng, n), -1)
    if family == "transpose":
        return transpose_similarity_superop(random_invertible(rng, n), 1)
    return SuperOp(n, random_matrix(rng, n * n, n * n))


def _cmd_fuzz(args) -> tuple[dict, int]:
    if not 1 <= args.n <= MAX_SIDE:
        raise InputError(f"--n must be in 1..{MAX_SIDE}")
    results = []
    counterexamples = 0
    for trial in range(args.trials):
        trial_seed = args.seed + trial
        phi = _fuzz_instance(args.family, args.n, trial_seed)
        verdict = check_dim_preserving(phi, trials=FUZZ_PROBE_TRIALS, seed=trial_seed)
        classification = classify(phi)
        entry = {
            "trial": trial,
            "seed": trial_seed,
            "classification": classification_to_doc(classification),
            "verdict": verdict_to_doc(verdict, "dim"),
        }
        if verdict.outcome == OUTCOME_COUNTEREXAMPLE:
            counterexamples += 1
        results.append(entry)
    report = {
        "command": "fuzz",
        "tool_version": __version__,
        "n": args.n,
        "family": args.family,
        "trials": args.trials,
        "seed": args.seed,
        "results": results,
        "summary": {
            "passes": args.trials - counterexamples,
            "counterexamples": counterexamples,
        },
    }
    code = EXIT_FINDING if counterexamples else EXIT_OK
    return report, code


# ---------------------------------------------------------------------------
# dispatch

def _nonnegative_int(text: str) -> int:
    """argparse type for --trials: a nonnegative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fixpres",
        description="Exact fixed-point subspaces and preserver classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fixdim", help="dimension and basis of the fixed-point space")
    p.add_argument("--matrix", required=True, help="matrix document (JSON)")

    p = sub.add_parser("classify", help="recover the structured form of a map")
    p.add_argument("--superop", required=True, help="superoperator document (JSON)")
    p.add_argument("--emit-s", help="write the recovered S as a matrix document")

    p = sub.add_parser("check", help="probe a preserving condition")
    p.add_argument("--superop", required=True)
    p.add_argument("--condition", required=True, choices=["dim", "set"])
    p.add_argument("--trials", type=_nonnegative_int, default=20)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("verdict", help="full claim check with classification")
    p.add_argument("--superop", required=True)
    p.add_argument("--theorem", required=True, type=int, choices=[1, 2])
    p.add_argument("--trials", type=_nonnegative_int, default=20)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("fuzz", help="seeded campaign over a map family")
    p.add_argument("--n", required=True, type=int)
    p.add_argument(
        "--family",
        required=True,
        choices=["similarity", "neg-similarity", "transpose", "random"],
    )
    p.add_argument("--trials", required=True, type=_nonnegative_int)
    p.add_argument("--seed", required=True, type=int)

    return parser


_HANDLERS = {
    "fixdim": _cmd_fixdim,
    "classify": _cmd_classify,
    "check": _cmd_check,
    "verdict": _cmd_verdict,
    "fuzz": _cmd_fuzz,
}


def run(argv: list[str]) -> int:
    """Execute one CLI invocation; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        report, code = _HANDLERS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return code


def main() -> None:
    """Console entry point: an error that run lets escape exits 3.

    The traceback goes to stderr and nothing is written to stdout, so an
    internal error is never mistaken for a finding (1) or an input error (2).
    """
    try:
        code = run(sys.argv[1:])
    except Exception:
        traceback.print_exc()
        code = EXIT_INTERNAL
    sys.exit(code)


if __name__ == "__main__":
    main()
