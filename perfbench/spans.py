"""Span tracing of ropufsim's layers from outside the package.

``Tracer.install`` replaces public layer functions with wrappers that record
a span (name, start, end, parent span) per call and keep it in memory.  The
wrappers go on the module attribute the caller looks up at call time:
``ropufsim.pipeline`` binds its stages with ``from .x import y``, so they are
wrapped there, and ``lfsr_sequence`` is wrapped on ``ropufsim.puf``, whose
``generate_response`` calls it.  ``summarize`` turns the spans into busy time,
self time (a span minus its child spans) and counts taken from the returned
objects.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time
from collections import Counter, defaultdict

ROOT_SPAN = "run"
WRITE_PREFIX = "pipeline.write."
# Layers attributed in the traced run, besides pipeline (orchestration) and
# pipeline.write (the artifact writer's three emitters).
LAYERS = ("chipmodel", "characterize", "select", "placement", "puf", "metrics", "nist")

# (module, attribute, span name)
WRAPPED = (
    ("ropufsim.pipeline", "run_device", "pipeline.run_device"),
    ("ropufsim.pipeline", "synth_chip", "chipmodel.synth_chip"),
    ("ropufsim.pipeline", "characterize", "characterize.characterize"),
    ("ropufsim.pipeline", "reject_erroneous", "characterize.reject_erroneous"),
    ("ropufsim.pipeline", "improved_kmeans", "select.improved_kmeans"),
    ("ropufsim.pipeline", "relocate_centroids", "select.relocate_centroids"),
    ("ropufsim.pipeline", "assign_groups", "placement.assign_groups"),
    ("ropufsim.pipeline", "randomize_placement", "placement.randomize_placement"),
    ("ropufsim.pipeline", "generate_response", "puf.generate_response"),
    ("ropufsim.puf", "lfsr_sequence", "puf.lfsr_sequence"),
    ("ropufsim.pipeline", "evaluate_population", "metrics.evaluate_population"),
    ("ropufsim.pipeline", "run_suite", "nist.run_suite"),
    ("ropufsim.nist", "run_suite", "nist.run_suite"),
    ("ropufsim.pipeline", "export_profile_csv", WRITE_PREFIX + "export_profile_csv"),
    ("ropufsim.pipeline", "emit_constraints", WRITE_PREFIX + "emit_constraints"),
    ("ropufsim.pipeline", "save_responses", WRITE_PREFIX + "save_responses"),
)


def _count_reject(counts: Counter, clean) -> None:
    counts["characterize.kept"] += clean.z_bar
    counts["characterize.sites"] += clean.z_bar + clean.rejected_count


def _count_kmeans(counts: Counter, sel) -> None:
    trace = list(sel.min_diff_trace)
    counts["select.kmeans_iterations"] += sel.iterations
    # The retained list is the first strict maximum of the trace, whose entry
    # 0 is the snapped seed list and entry i the i-th iteration.
    counts["select.kmeans_useful_iterations"] += trace.index(max(trace)) if trace else 0


def _count_relocate(counts: Counter, sel) -> None:
    counts["select.relocation_iterations"] += sel.iterations


def _count_response(counts: Counter, resp) -> None:
    counts["puf.response_bits"] += int(resp.bits.size)


def _count_suite(counts: Counter, report) -> None:
    counts["nist.sequences"] += report.sequences
    counts["nist.tests_na"] += len(report.not_applicable)


# Per-layer metrics taken from returned objects or outputs; they must repeat
# exactly between traced repetitions, as must every ``.calls``.
COUNT_METRICS = frozenset({
    "characterize.kept_ratio", "select.kmeans_iterations", "select.kmeans_useful_ratio",
    "select.relocation_iterations", "puf.response_bits", "nist.sequences", "nist.tests_na",
    "pipeline.write.bytes", "nist.fail_ratio", "select.min_diff_mhz",
})

COUNTERS = {
    "characterize.reject_erroneous": _count_reject,
    "select.improved_kmeans": _count_kmeans,
    "select.relocate_centroids": _count_relocate,
    "puf.generate_response": _count_response,
    "nist.run_suite": _count_suite,
}


class Tracer:
    """In-memory span recorder; one per traced repetition."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def install(self) -> None:
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            setattr(module, attr, self._wrap(getattr(module, attr), name))

    def _wrap(self, fn, name: str):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, out)
            return out

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)


def _tail(durations: list[float]) -> tuple[float, float]:
    """Highest order statistic with at least ten samples above it, and its
    percentile level; (0, 0) below twenty samples, where it would fall below
    the median."""
    n = len(durations)
    if n < 20:
        return 0.0, 0.0
    return sorted(durations)[n - 11], 100.0 * (n - 10) / n


def summarize(spans, counts: Counter) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of one traced repetition, plus the tail percentile
    levels used (for display)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    busy: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    durations: dict[str, list[float]] = defaultdict(list)
    for i, (name, start, end, _) in enumerate(spans):
        busy[name] += end - start
        own[name] += end - start - child_time[i]
        calls[name] += 1
        durations[name].append(end - start)

    def layer_self(prefix: str) -> float:
        return sum(v for k, v in own.items()
                   if k.startswith(prefix + ".") and not k.startswith(WRITE_PREFIX))

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self(layer)
    for name in dict.fromkeys(n for _, _, n in WRAPPED if n.split(".")[0] in LAYERS):
        m[f"{name}.busy_s"] = busy[name]
        m[f"{name}.calls"] = calls[name]
    m["puf.generate_response.self_s"] = own["puf.generate_response"]

    m["characterize.kept_ratio"] = (
        counts["characterize.kept"] / counts["characterize.sites"]
        if counts["characterize.sites"] else 0.0
    )
    m["select.kmeans_iterations"] = counts["select.kmeans_iterations"]
    m["select.kmeans_useful_ratio"] = (
        counts["select.kmeans_useful_iterations"] / counts["select.kmeans_iterations"]
        if counts["select.kmeans_iterations"] else 0.0
    )
    m["select.relocation_iterations"] = counts["select.relocation_iterations"]
    m["puf.response_bits"] = counts["puf.response_bits"]
    m["nist.sequences"] = counts["nist.sequences"]
    m["nist.tests_na"] = counts["nist.tests_na"]

    levels: dict[str, float] = {}
    for name in ("nist.run_suite", "pipeline.run_device"):
        d = durations[name]
        m[f"{name}.p50_ms"] = 1e3 * statistics.median(d) if d else 0.0
        tail, level = _tail(d)
        m[f"{name}.tail_ms"] = 1e3 * tail
        levels[name] = level
    m["pipeline.run_device.calls"] = calls["pipeline.run_device"]

    write_names = [k for k in busy if k.startswith(WRITE_PREFIX)]
    m["pipeline.write.busy_s"] = sum(busy[k] for k in write_names)
    m["pipeline.write.calls"] = sum(calls[k] for k in write_names)
    m["pipeline.self_s"] = own[ROOT_SPAN] + own["pipeline.run_device"]
    m["trace.wall_s"] = busy[ROOT_SPAN]
    return m, levels
