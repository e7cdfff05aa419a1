"""Tests of the benchmark itself: oracle, seeding, tracing and BENCHMARK.json.

Run from the repository root with ``python -m pytest bench/tests``.
"""

import dataclasses
import json
from pathlib import Path

import pytest

import fixpres
import oracle
import run
import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def _ops(workload, seed, workdir, kinds):
    workdir.mkdir(exist_ok=True)
    ops = WORKLOADS[workload].make_cycle(seed, 0, workdir)
    return {op.kind: op for op in ops if op.kind in kinds}


def _tampered(result, edit):
    code, stdout = result
    doc = json.loads(stdout)
    edit(doc)
    return code, json.dumps(doc)


def test_oracle_flags_tampered_cli_reports(tmp_path):
    ops = _ops("structured-cli", 5, tmp_path, {"neg-similarity-n3-t2", "similarity-n3-t2"})
    neg, sim = ops["neg-similarity-n3-t2"], ops["similarity-n3-t2"]
    neg_result, sim_result = neg.call(), sim.call()
    assert neg.check(neg_result) == []
    assert sim.check(sim_result) == []

    def swap_detail(doc):
        d = doc["verdict"]["detail"]
        d["dim_fixed_input"], d["dim_fixed_image"] = d["dim_fixed_image"], d["dim_fixed_input"]

    def wrong_status(doc):
        doc["status"] = "consistent"

    def perturb_s(doc):
        entries = doc["classification"]["s"]["entries"]
        entries[1][2] = str(oracle.parse(entries[1][2])[0] + 1)

    assert neg.check(_tampered(neg_result, swap_detail))
    assert neg.check(_tampered(neg_result, wrong_status))
    assert sim.check(_tampered(sim_result, perturb_s))


def test_oracle_flags_tampered_library_verdicts(tmp_path):
    op = WORKLOADS["random-maps"].make_cycle(5, 0, tmp_path)[0]
    report = op.call()
    assert op.check(report) == []
    left, right = report.verdict.detail
    swapped = dataclasses.replace(report.verdict, detail=(right, left))
    assert op.check(dataclasses.replace(report, verdict=swapped))
    assert op.check(dataclasses.replace(report, status="consistent"))

    probe = _ops("probe-sweep", 5, tmp_path, {"similarity-n3"})["similarity-n3"]
    verdict = probe.call()
    assert probe.check(verdict) == []
    assert probe.check(dataclasses.replace(verdict, probes_run=verdict.probes_run - 1))
    assert probe.check(dataclasses.replace(verdict, outcome="counterexample"))


@pytest.mark.parametrize(
    "workload, kinds",
    [
        ("structured-cli", {"identity-n3-t1", "similarity-n3-t1", "transpose-n3-t2"}),
        ("probe-sweep", {"set-identity-n3", "similarity-n3", "transpose-n3"}),
    ],
)
def test_other_seed_gives_other_inputs_and_same_verdicts(tmp_path, workload, kinds):
    inputs, verdicts = [], []
    for seed in (1, 2):
        ops = _ops(workload, seed, tmp_path / str(seed), kinds)
        answers = {kind: op.call() for kind, op in ops.items()}
        assert {kind: ops[kind].check(a) for kind, a in answers.items()} == {k: [] for k in kinds}
        # the digest bytes of an answer do not change when it is computed again
        assert {k: op.record(op.call()) for k, op in ops.items()} == {
            k: ops[k].record(a) for k, a in answers.items()
        }
        inputs.append({k: op.subject.matrix for k, op in ops.items() if "identity" not in k})
        verdicts.append(
            {
                k: json.loads(a[1])["status"] if isinstance(a, tuple) else (a.outcome, a.probes_run)
                for k, a in answers.items()
            }
        )
    assert all(inputs[0][k] != inputs[1][k] for k in inputs[0])
    assert verdicts[0] == verdicts[1]


def test_traced_counts_repeat_and_wrappers_are_removed(tmp_path):
    originals = {
        "rref": fixpres.linalg.rref,
        "dim_fixed": fixpres.preserver.dim_fixed,
        "matmul": fixpres.linalg.Matrix.__dict__["__matmul__"],
        "mul": fixpres.scalars.GaussianRational.__dict__["__mul__"],
    }
    kinds = {"similarity-n3-t2", "neg-similarity-n3-t1"}
    ops = list(_ops("structured-cli", 4, tmp_path, kinds).values())

    tracers = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            # names that other modules imported are rebound too
            assert fixpres.preserver.dim_fixed is not originals["dim_fixed"]
            assert fixpres.dim_fixed is not originals["dim_fixed"]
            assert fixpres.linalg.rref is not originals["rref"]
            for op in ops:
                op.call()
        finally:
            assert tracer.uninstall() == []
        tracers.append(tracer.metrics())

    assert fixpres.linalg.rref is originals["rref"]
    assert fixpres.preserver.dim_fixed is originals["dim_fixed"]
    assert fixpres.linalg.Matrix.__dict__["__matmul__"] is originals["matmul"]
    assert fixpres.scalars.GaussianRational.__dict__["__mul__"] is originals["mul"]
    assert tracing.leftover_wrappers() == []

    first, second = tracers
    assert {k: first[k] for k in tracing.EXACT} == {k: second[k] for k in tracing.EXACT}
    assert first["scalars.mul.calls"] > 0
    assert first["cli.run.calls"] == len(ops)
    assert first["linalg.rref.large.calls"] > 0


def test_benchmark_json_matches_what_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
