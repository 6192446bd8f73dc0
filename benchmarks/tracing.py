"""In-memory spans around the benchmark's calls into the package.

The package itself carries no instrumentation: every span is opened here,
in the benchmark's own code, around one public call.  Spans stay in memory
and are handed to the driver when the child ends.

A span records its id, the id of the span that caused it, its name
("<layer>.<call>"), the workload, the phase it ran in ("setup", "timed" or
"probe") and its start and end on the perf_counter clock.  A layer's self
time is the summed duration of its spans minus the part of each covered by
child spans.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager, nullcontext

# The package modules that do work; "op" is the benchmark's own span around
# one operation (a table row, the series, or one block).
LAYERS = ("compositions", "bijection", "analyzer", "montecarlo", "codec")


class Tracer:
    """Records one span per call; the benchmark's traced mode."""

    enabled = True

    def __init__(self, workload: str):
        self.workload = workload
        self.phase = "setup"
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "workload": self.workload,
            "phase": self.phase,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


class NullTracer:
    """Tracing off: calls go straight through and nothing is recorded."""

    enabled = False
    phase = None
    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, value: float) -> None:
        pass


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def layer_self_times(spans: list[dict], phase: str = "timed") -> dict[str, float]:
    """Self seconds per layer over the spans of one phase."""
    covered: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] = covered.get(span["parent"], 0.0) + _duration(span)
    totals = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        if span["phase"] != phase:
            continue
        layer = span["name"].split(".", 1)[0]
        totals[layer] = (
            totals.get(layer, 0.0) + _duration(span) - covered.get(span["id"], 0.0)
        )
    return totals


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) with linear interpolation."""
    if len(values) == 1:
        return values[0]
    if q == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def span_metrics(spans: list[dict], stats: dict[str, tuple[str, ...]]) -> dict[str, float]:
    """Per-call metrics named after the span: `<name>_s` sums durations,
    `<name>_ms.p50` / `.p99` take percentiles of single calls."""
    durations: dict[str, list[float]] = {}
    for span in spans:
        durations.setdefault(span["name"], []).append(_duration(span))
    metrics = {}
    for name, wanted in stats.items():
        values = durations.get(name)
        if not values:
            continue
        for stat in wanted:
            if stat == "sum":
                metrics[f"{name}_s"] = sum(values)
            else:
                metrics[f"{name}_ms.{stat}"] = percentile(values, int(stat[1:])) * 1e3
    return metrics
