"""The benchmark's three workloads: seeded inputs, operations and oracle checks.

A workload is a fixed operation schedule (one *cycle*) that repeats. Cycle
c of seed s is generated from ``derive_rng(s, workload, c, position)``, so
every operation gets fresh inputs and the same seed always gives the same
inputs. All fixpres functions are looked up on their module at call time,
so the traced run sees the wrappers it installs.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import fixpres
import fixpres.cli
import oracle


@dataclass(frozen=True)
class Op:
    """One timed call on one superoperator plus the untimed check of its answer.

    call returns the answer; check returns the oracle's problems with it;
    record returns the bytes that go into the run's output digest.
    """

    kind: str
    subject: object
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    record: Callable[[object], bytes]


@dataclass(frozen=True)
class Workload:
    name: str
    min_cycles: int
    tail_pct: int
    make_cycle: Callable[[int, int, Path], list[Op]]


def _rng(seed: int, workload: str, cycle: int, pos: int):
    return fixpres.sampling.derive_rng(seed, workload, cycle, pos)


def _verdict_bytes(v) -> bytes:
    return repr((v.outcome, v.probes_run, v.seed, str(v.witness), repr(v.detail))).encode()


def _report_bytes(r) -> bytes:
    c = r.classification
    verdict = r.verdict and _verdict_bytes(r.verdict)
    return repr((r.status, verdict, c and (c.tag, str(c.s), str(c.scale)))).encode()


# ---------------------------------------------------------------------------
# random-maps: claim-2 verdicts on unstructured maps (large-N elimination)

RANDOM_SIZES = (4, 5, 4, 5, 4, 5, 4, 6, 5, 4, 5, 4, 5, 4, 5, 6)


def _check_random(phi, report) -> list[str]:
    l = oracle.from_matrix(phi.matrix)
    if not oracle.is_full_rank(l):
        if report.status == "hypothesis-not-met":
            return []
        return [f"status {report.status} on a singular map"]
    if report.status != "counterexample":
        return [f"status {report.status}, expected counterexample"]
    v = report.verdict
    problems = oracle.dim_counterexample(l, oracle.from_matrix(v.witness), v.detail)
    if report.classification.tag != "unstructured":
        problems.append(f"classified {report.classification.tag}")
    return problems + oracle.unstructured(l, phi.n)


def random_maps_cycle(seed: int, cycle: int, workdir: Path) -> list[Op]:
    ops = []
    for pos, n in enumerate(RANDOM_SIZES):
        rng = _rng(seed, "random-maps", cycle, pos)
        phi = fixpres.superop.SuperOp(n, fixpres.sampling.random_matrix(rng, n * n, n * n))
        ops.append(
            Op(
                f"n{n}",
                phi,
                lambda phi=phi: fixpres.preserver.dim_preserver_verdict(phi),
                lambda r, phi=phi: _check_random(phi, r),
                _report_bytes,
            )
        )
    return ops


# ---------------------------------------------------------------------------
# structured-cli: both claims through the CLI on the paper's map families

STRUCTURED_SIZES = (3, 4, 5)
FAMILIES = ("identity", "similarity", "neg-similarity", "transpose")
# The identity maps at n = 3 and n = 4 run twice per cycle, which puts the
# median in the middle of the n = 4 identity cluster, not between two.
EXTRA_IDENTITY = (3, 4)

EXPECTED = {
    # family: (claim-1 status, claim-2 status, claim-2 tag, claim-2 lambda)
    "identity": ("consistent", "consistent", "identity", None),
    "similarity": ("counterexample", "consistent", "similarity", "1"),
    "neg-similarity": ("counterexample", "counterexample", "similarity", "-1"),
    "transpose": ("counterexample", "form-outside-conclusion", "transpose-similarity", "1"),
}


def _structured_map(family: str, n: int, rng):
    if family == "identity":
        return fixpres.superop.identity_superop(n)
    s = fixpres.sampling.random_invertible(rng, n)
    if family == "transpose":
        return fixpres.superop.transpose_similarity_superop(s, 1)
    return fixpres.superop.similarity_superop(s, -1 if family == "neg-similarity" else 1)


def _run_cli(path: str, theorem: int) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = fixpres.cli.run(["verdict", "--superop", path, "--theorem", str(theorem)])
    return code, out.getvalue()


def check_cli_report(family: str, n: int, theorem: int, doc_in: dict, result) -> list[str]:
    code, stdout = result
    doc = json.loads(stdout)
    status, status2, tag2, lam2 = EXPECTED[family]
    want = status if theorem == 1 else status2
    problems = []
    if doc["status"] != want:
        problems.append(f"status {doc['status']}, expected {want}")
    if code != (1 if want == "counterexample" else 0):
        problems.append(f"exit code {code} for status {want}")
    if doc["superop"] != doc_in:
        problems.append("report does not embed the input superoperator")
    l = oracle.from_doc(doc_in["L"])
    verdict = doc["verdict"]
    if verdict["outcome"] == "counterexample":
        witness = oracle.from_doc(verdict["witness"])
        detail = verdict["detail"]
        if theorem == 2:
            dims = (detail["dim_fixed_input"], detail["dim_fixed_image"])
            problems += oracle.dim_counterexample(l, witness, dims)
            if family == "neg-similarity":
                if witness != oracle.scalar_matrix(n, oracle.NEG_ONE):
                    problems.append("negated similarity not refuted at -I")
                if dims != (0, n):
                    problems.append(f"negated similarity detail {dims}, expected (0, {n})")
        else:
            problems += oracle.set_counterexample(
                l,
                witness,
                oracle.from_doc(detail["fixed_space_input"]["basis"]),
                oracle.from_doc(detail["fixed_space_image"]["basis"]),
            )
    elif verdict["probes_run"] != len(fixpres.preserver.structured_probes(n)) + 20:
        problems.append(f"pass after {verdict['probes_run']} probes")
    cls = doc.get("classification")
    if theorem == 2 or family == "identity":
        if cls is None or cls["tag"] != tag2:
            problems.append(f"classification {cls and cls['tag']}, expected {tag2}")
        elif tag2 == "identity":
            if not oracle.is_identity_map(l):
                problems.append("identity tag on a non-identity map")
        else:
            if cls["lambda"] != lam2:
                problems.append(f"lambda {cls['lambda']}, expected {lam2}")
            problems += oracle.similarity_matches(
                l, oracle.from_doc(cls["s"]), oracle.parse(cls["lambda"]), tag2 != "similarity"
            )
    return problems


def structured_cli_cycle(seed: int, cycle: int, workdir: Path) -> list[Op]:
    maps = [(f, n) for n in STRUCTURED_SIZES for f in FAMILIES]
    maps += [("identity", n) for n in EXTRA_IDENTITY]
    ops = []
    for pos, (family, n) in enumerate(maps):
        phi = _structured_map(family, n, _rng(seed, "structured-cli", cycle, pos))
        doc = fixpres.cli.superop_to_doc(phi)
        path = workdir / f"c{cycle}-{pos}-{family}-n{n}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for theorem in (1, 2):
            ops.append(
                Op(
                    f"{family}-n{n}-t{theorem}",
                    phi,
                    lambda p=str(path), t=theorem: _run_cli(p, t),
                    lambda r, f=family, n=n, t=theorem, d=doc: check_cli_report(f, n, t, d, r),
                    lambda r: r[1].encode(),
                )
            )
    return ops


# ---------------------------------------------------------------------------
# probe-sweep: full probe suites that pass (many small n x n eliminations)

PROBE_SIZES = (3, 4, 5, 6)
PROBE_TRIALS = 50
# The n = 6 identity set check runs twice per cycle so that the median
# lands inside that cluster, not between two.
EXTRA_SET_CHECK = (6,)


def _check_pass(n: int, verdict) -> list[str]:
    expected = len(fixpres.preserver.structured_probes(n)) + PROBE_TRIALS
    if verdict.outcome != "pass" or verdict.probes_run != expected or verdict.witness is not None:
        return [f"{verdict.outcome} after {verdict.probes_run} probes, want pass after {expected}"]
    return []


def probe_sweep_cycle(seed: int, cycle: int, workdir: Path) -> list[Op]:
    plan = [(f, n) for n in PROBE_SIZES for f in ("set-identity", "similarity", "transpose")]
    plan += [("set-identity", n) for n in EXTRA_SET_CHECK]
    ops = []
    for pos, (family, n) in enumerate(plan):
        rng = _rng(seed, "probe-sweep", cycle, pos)
        probe_seed = rng.getrandbits(32)
        if family == "set-identity":
            phi = fixpres.superop.identity_superop(n)
            check = "check_set_preserving"
        else:
            phi = _structured_map(family, n, rng)
            check = "check_dim_preserving"
        ops.append(
            Op(
                f"{family}-n{n}",
                phi,
                lambda phi=phi, check=check, k=probe_seed: getattr(fixpres.preserver, check)(
                    phi, PROBE_TRIALS, k
                ),
                lambda v, n=n: _check_pass(n, v),
                _verdict_bytes,
            )
        )
    return ops


# min_cycles leaves at least ten operations beyond tail_pct: 32 operations
# put 10.2 beyond p68, 168 put 10.1 beyond p94 and 39 put 10.1 beyond p74.
# Each tail_pct falls inside one size/family cluster of its schedule.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("random-maps", min_cycles=2, tail_pct=68, make_cycle=random_maps_cycle),
        Workload("structured-cli", min_cycles=6, tail_pct=94, make_cycle=structured_cli_cycle),
        Workload("probe-sweep", min_cycles=3, tail_pct=74, make_cycle=probe_sweep_cycle),
    )
}
