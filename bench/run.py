"""fixpres benchmark: seeded verdict workloads, checked answers, metrics as JSON.

Usage, from the repository root:

    python3 bench/run.py --workload random-maps --seed 1 --seconds 30 --trace 0

One caller runs the workload's operation schedule in a closed loop, one
operation after another, in this single process. Whole cycles of the
schedule run, stopping at the cycle boundary nearest to --seconds but
never before the workload's minimum number of cycles, which leaves at
least ten operations beyond its tail percentile. Every answer is checked
against the independent oracle in bench/oracle.py outside the timed
region. Every timing is scaled to a reference machine speed by the
calibration kernel interleaved with the operations (bench/calibration.py);
the unscaled figures are printed too.

--trace 0 prints the end-to-end metrics. --trace 1 runs one cycle
untraced, then twice with every layer wrapped (bench/tracing.py), checks
that both traced passes give identical exact counts and that no wrapper
is left behind, and prints the per-layer metrics plus the tracing
overhead. The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = HERE / "out"

SETUP_REPEATS = 3
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import fixpres; print(time.perf_counter() - t)"
)

sys.path.insert(0, str(SRC))
import fixpres  # noqa: E402

if Path(fixpres.__file__).resolve().parent != (SRC / "fixpres").resolve():
    raise SystemExit(f"fixpres was imported from {fixpres.__file__}, not from {SRC}")

import calibration  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def time_import() -> float:
    """Seconds for `import fixpres` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout)


def setup(workload, seed: int, workdir: Path, clock):
    """Median over repeats of scaled import plus generation time; returns (s, cycles)."""
    times = []
    for _ in range(SETUP_REPEATS):
        clock.sample()
        start = time.perf_counter()
        imported = time_import()
        generating = time.perf_counter()
        cycles = [workload.make_cycle(seed, c, workdir) for c in range(workload.min_cycles)]
        generated = time.perf_counter() - generating
        clock.sample()
        times.append((imported + generated) * clock.factor(start))
    return statistics.median(times), cycles


def run_op(op):
    """Run one operation; returns (answer, latency in s, oracle problems)."""
    start = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # an operation that raises is a failed attempt
        return None, time.perf_counter() - start, [f"raised {exc!r}"]
    latency = time.perf_counter() - start
    return result, latency, check(op, result)


def check(op, result) -> list[str]:
    try:
        return op.check(result)
    except Exception as exc:  # an answer the oracle cannot read is wrong
        return [f"oracle could not read the answer: {exc!r}"]


def report_problems(kind: str, problems: list[str], shown: list[int]) -> None:
    if problems and shown[0] < 10:
        shown[0] += 1
        print(f"FAIL {kind}: {'; '.join(problems)}", file=sys.stderr)


def _another_cycle(start: float, done: int, seconds: float) -> bool:
    """Run whole cycles and stop at the cycle boundary nearest to `seconds`."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done / 2 < seconds


def timed_ops(ops, clock, on_answer):
    """Run ops one after another, calling on_answer(op, result, problems) after each.

    Returns [(start, latency)] per op.
    """
    timings = []
    for op in ops:
        clock.maybe_sample()
        start = time.perf_counter()
        result, latency, problems = run_op(op)
        timings.append((start, latency))
        on_answer(op, result, problems)
    return timings


def timed_run(workload, seed: int, seconds: float, workdir: Path) -> dict:
    clock = calibration.Clock()
    setup_s, pool = setup(workload, seed, workdir, clock)
    # The input pool is a benchmark artefact: keep the collector from
    # rescanning it during every timed operation.
    gc.collect()
    gc.freeze()
    kinds: list[str] = []
    timings: list[tuple[float, float]] = []
    failed = 0
    shown = [0]
    digest = hashlib.sha256()

    def on_answer(op, result, problems):
        nonlocal failed
        kinds.append(op.kind)
        failed += bool(problems)
        report_problems(op.kind, problems, shown)
        if len(kinds) <= digest_ops:
            digest.update(b"error" if result is None else op.record(result))

    digest_ops = sum(len(ops) for ops in pool)
    start = time.perf_counter()
    cycle = 0
    while cycle < workload.min_cycles or _another_cycle(start, cycle, seconds):
        ops = pool[cycle] if cycle < len(pool) else workload.make_cycle(seed, cycle, workdir)
        timings += timed_ops(ops, clock, on_answer)
        cycle += 1
    wall = time.perf_counter() - start
    clock.sample()

    raw = [lat for _, lat in timings]
    latencies = [lat * clock.factor(at) for at, lat in timings]
    metrics = {
        "ops_per_s": (len(latencies) - failed) / sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": _percentile(latencies, workload.tail_pct),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }

    print(f"workload {workload.name} seed {seed}: {len(latencies)} ops in {cycle} cycles, {wall:.1f} s")
    by_kind: dict[str, list[float]] = {}
    for lat, kind in zip(latencies, kinds):
        by_kind.setdefault(kind, []).append(lat)
    for kind, lats in sorted(by_kind.items(), key=lambda kv: statistics.median(kv[1])):
        print(f"  {kind:<28} n={len(lats):<4} median {statistics.median(lats):.4f} s")
    ranked = sorted(zip(latencies, kinds))
    for label, pct in (("p50", 50), (f"p{workload.tail_pct}", workload.tail_pct)):
        print(f"  {label} falls on a {ranked[round(pct / 100 * (len(ranked) - 1))][1]} operation")
    print(
        f"calibration: {len(clock.times)} samples, median kernel {statistics.median(clock.times):.4f} s "
        f"against {calibration.REFERENCE_S} s; unscaled ops_per_s {len(raw) / sum(raw):.6g}, "
        f"op_p50_s {statistics.median(raw):.6g}, op_tail_s {_percentile(raw, workload.tail_pct):.6g}"
    )
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"op_tail_s is p{workload.tail_pct}")
    print(f"error_rate {failed / len(latencies):.6g} ({failed}/{len(latencies)})")
    print(f"digest sha256:{digest.hexdigest()} (first {workload.min_cycles} cycles)")
    return {
        "correct": failed == 0,
        "attempted": len(latencies),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
    }


def _percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def traced_pass(workload, seed: int, workdir: Path, clock):
    """One cycle, inputs included, with every layer wrapped.

    Returns (tracer, [(start, latency)], ops, answers, names left wrapped).
    """
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ops = workload.make_cycle(seed, 0, workdir)
        answers = []
        timings = []
        for i, op in enumerate(ops):
            tracer.op = i
            clock.maybe_sample()
            start = time.perf_counter()
            try:
                answers.append(op.call())
            except Exception as exc:  # checked below, after the wrappers are gone
                answers.append(exc)
            timings.append((start, time.perf_counter() - start))
    finally:
        leftovers = tracer.uninstall()
    for answer in answers:
        # CLI operations answer (exit code, stdout); the others answer objects.
        if isinstance(answer, tuple):
            tracer.counts["cli.stdout_bytes"] += len(answer[1].encode())
    return tracer, timings, ops, answers, leftovers


def traced_run(workload, seed: int, workdir: Path) -> dict:
    clock = calibration.Clock()
    failed = 0
    shown = [0]

    def on_answer(op, result, problems):
        nonlocal failed
        failed += bool(problems)
        report_problems(op.kind, problems, shown)

    gc.collect()
    untraced = timed_ops(workload.make_cycle(seed, 0, workdir), clock, on_answer)
    passes = []
    for _ in range(2):
        gc.collect()
        tracer, timings, ops, answers, leftovers = traced_pass(workload, seed, workdir, clock)
        passes.append((tracer, timings))
        if leftovers:
            failed += 1
            print(f"FAIL wrappers left after a traced run: {leftovers}", file=sys.stderr)
        for op, answer in zip(ops, answers):
            if isinstance(answer, Exception):
                problems = [f"raised {answer!r}"]
            else:
                problems = check(op, answer)
            on_answer(op, answer, problems)
    clock.sample()

    (first, traced), (second, _) = passes
    metrics = first.metrics()
    again = second.metrics()
    for name in tracing.EXACT:
        if metrics[name] != again[name]:
            failed += 1
            print(f"FAIL {name} differs: {metrics[name]} vs {again[name]}", file=sys.stderr)
    untraced_s = sum(lat * clock.factor(at) for at, lat in untraced)
    traced_s = sum(lat * clock.factor(at) for at, lat in traced)
    metrics["trace.overhead_ratio"] = traced_s / untraced_s - 1
    first.write_spans(SPANS_DIR / f"spans-{workload.name}-seed{seed}.json")

    units = tracing.metric_units()
    print(f"workload {workload.name} seed {seed}: one cycle of {len(ops)} ops untraced, then traced twice")
    print(f"scaled op time untraced {untraced_s:.3f} s, traced {traced_s:.3f} s")
    for name in units:
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": 3 * len(ops),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        if args.trace:
            result = traced_run(workload, args.seed, workdir)
        else:
            result = timed_run(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
