"""Per-layer tracing by wrapping fixpres from the outside.

``Tracer.install`` replaces each traced function or method with a wrapper
and rebinds every module-level name in the package that refers to it (for
instance ``rank`` and ``rref`` imported by name into ``superop`` and
``preserver``). ``Tracer.uninstall`` puts the originals back and reports
any name still bound to a wrapper. Spans are kept in memory as tuples
(op id, span id, parent span id, name, start, end, self time) and turned
into metrics named ``<module>.<function>.<stat>`` when the run ends.

Scalar arithmetic and scalar parse/format are only counted: a span per
Fraction operation would dwarf the work it measures.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

import fixpres
import fixpres.cli

MODULES = (
    "scalars", "linalg", "fixed_points", "rank_one", "superop", "sampling", "preserver", "cli"
)

# (module, attribute owner inside it or None, attribute, span name)
SPANS = (
    ("linalg", None, "rref", "linalg.rref"),
    ("linalg", None, "inverse", "linalg.inverse"),
    ("linalg", None, "kron", "linalg.kron"),
    ("linalg", "Matrix", "__matmul__", "linalg.matmul"),
    ("fixed_points", None, "fixed_space", "fixed_points.fixed_space"),
    ("fixed_points", None, "dim_fixed", "fixed_points.dim_fixed"),
    ("superop", "SuperOp", "apply", "superop.apply"),
    ("superop", None, "rank_one_factor", "superop.rank_one_factor"),
    ("superop", None, "realign", "superop.realign"),
    ("superop", None, "precompose_transpose", "superop.precompose_transpose"),
    ("superop", None, "is_bijective", "superop.is_bijective"),
    ("superop", None, "similarity_superop", "superop.similarity_superop"),
    ("superop", None, "transpose_similarity_superop", "superop.transpose_similarity_superop"),
    ("preserver", None, "classify", "preserver.classify"),
    ("preserver", None, "probe_suite", "preserver.probe_suite"),
    ("preserver", None, "check_dim_preserving", "preserver.check_dim_preserving"),
    ("preserver", None, "check_set_preserving", "preserver.check_set_preserving"),
    ("preserver", None, "dim_preserver_verdict", "preserver.dim_preserver_verdict"),
    ("preserver", None, "set_preserver_verdict", "preserver.set_preserver_verdict"),
    ("sampling", None, "random_matrix", "sampling.random_matrix"),
    ("sampling", None, "random_invertible", "sampling.random_invertible"),
    ("cli", None, "run", "cli.run"),
    ("cli", None, "superop_from_doc", "cli.superop_from_doc"),
    ("cli", None, "superop_to_doc", "cli.superop_to_doc"),
    ("cli", None, "report_to_doc", "cli.report_to_doc"),
)

# (module, owner, attribute, counter). __rsub__ and __rtruediv__ delegate
# to __sub__ and __truediv__, which are counted already.
COUNTS = (
    ("scalars", "GaussianRational", "__add__", "scalars.add.calls"),
    ("scalars", "GaussianRational", "__radd__", "scalars.add.calls"),
    ("scalars", "GaussianRational", "__sub__", "scalars.add.calls"),
    ("scalars", "GaussianRational", "__mul__", "scalars.mul.calls"),
    ("scalars", "GaussianRational", "__rmul__", "scalars.mul.calls"),
    ("scalars", "GaussianRational", "__truediv__", "scalars.div.calls"),
    ("scalars", None, "parse_scalar", "scalars.parse_scalar.calls"),
    ("scalars", None, "format_scalar", "scalars.format_scalar.calls"),
)

# rref inputs with at most this many rows are n x n work (n <= 8); larger
# ones are superoperator-sized.
SMALL_RREF_ROWS = 8

SPAN_NAMES = tuple(
    name
    for _, _, _, base in SPANS
    for name in ((base + ".small", base + ".large") if base == "linalg.rref" else (base,))
)

# Counts that depend only on the inputs; two traced runs of one seed must
# agree on them exactly.
EXACT = (
    "scalars.add.calls",
    "scalars.mul.calls",
    "scalars.div.calls",
    "scalars.parse_scalar.calls",
    "scalars.format_scalar.calls",
    "scalars.max_bits",
    "linalg.rref.cells",
    "superop.rank_one_factor.reject_ratio",
    "preserver.probes_run",
    "preserver.probes_per_check",
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[name + ".calls"] = "count"
        units[name + ".total_s"] = "s"
        units[name + ".self_s"] = "s"
    units.update({name: "count" for name in EXACT})
    units["scalars.max_bits"] = "bits"
    units["superop.rank_one_factor.reject_ratio"] = "ratio"
    units["cli.stdout_bytes"] = "bytes"
    units["trace.overhead_ratio"] = "ratio"
    return units


def _max_bits(m) -> int:
    best = 0
    for e in m.entries:
        for q in (e.re, e.im):
            best = max(best, q.numerator.bit_length(), q.denominator.bit_length())
    return best


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op = "setup"
        self._ids = itertools.count()
        self._stack: list[list] = []  # [span id, time covered by children]
        self._patches: list[tuple] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, base: str, fn):
        tracer = self
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = base
            if base == "linalg.rref":
                m = args[0]
                name += ".small" if m.rows <= SMALL_RREF_ROWS else ".large"
                tracer.counts["linalg.rref.cells"] += m.rows * m.cols
            parent = stack[-1] if stack else None
            frame = [next(tracer._ids), 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except fixpres.superop.NotRankOne:
                if base == "superop.rank_one_factor":
                    tracer.counts["superop.rank_one_factor.rejects"] += 1
                raise
            finally:
                end = perf()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
                own = end - start - frame[1]
                tracer.spans.append(
                    (tracer.op, frame[0], parent and parent[0], name, start, end, own)
                )
            tracer._observe(base, result, parent)
            return result

        wrapper.__bench_wrapped__ = fn
        return wrapper

    def _observe(self, base: str, result, parent) -> None:
        """Counts read off a span's result; their cost is hidden from the parent."""
        if base == "linalg.rref":
            start = time.perf_counter()
            bits = _max_bits(result[0])
            if bits > self.counts["scalars.max_bits"]:
                self.counts["scalars.max_bits"] = bits
            if parent is not None:
                parent[1] += time.perf_counter() - start
        elif base in ("preserver.check_dim_preserving", "preserver.check_set_preserving"):
            self.counts["preserver.checks"] += 1
            self.counts["preserver.probes_run"] += result.probes_run

    def _counter(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        wrapper.__bench_wrapped__ = fn
        return wrapper

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for specs, make in ((SPANS, self._span), (COUNTS, self._counter)):
            for module, owner, attr, name in specs:
                mod = getattr(fixpres, module)
                if owner is not None:
                    cls = getattr(mod, owner)
                    original = cls.__dict__[attr]
                    self._patch(cls, attr, original, make(name, original))
                    continue
                original = getattr(mod, attr)
                wrapper = make(name, original)
                for m in _package_modules():
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> list[str]:
        """Restore every original; return the names still wrapped (should be none)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return leftover_wrappers()

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        self_time: defaultdict = defaultdict(float)
        for _, _, _, name, start, end, own in self.spans:
            calls[name] += 1
            total[name] += end - start
            self_time[name] += own
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[name + ".calls"] = calls[name]
            out[name + ".total_s"] = total[name]
            out[name + ".self_s"] = self_time[name]
        c = self.counts
        for name in EXACT:
            out[name] = c[name]
        factor_calls = calls["superop.rank_one_factor"]
        out["superop.rank_one_factor.reject_ratio"] = (
            c["superop.rank_one_factor.rejects"] / factor_calls if factor_calls else 0.0
        )
        checks = c["preserver.checks"]
        out["preserver.probes_per_check"] = c["preserver.probes_run"] / checks if checks else 0.0
        out["cli.stdout_bytes"] = c["cli.stdout_bytes"]
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["op", "span", "parent", "name", "start", "end", "self"],
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )


def _package_modules():
    return [fixpres] + [getattr(fixpres, m) for m in MODULES]


def leftover_wrappers() -> list[str]:
    """Names in fixpres still bound to a tracing wrapper."""
    found = []
    for mod in _package_modules():
        for key, value in vars(mod).items():
            if hasattr(value, "__bench_wrapped__"):
                found.append(f"{mod.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    if hasattr(member, "__bench_wrapped__"):
                        found.append(f"{mod.__name__}.{key}.{attr}")
    return found
