"""Spans recorded around the benchmark's calls into glattice, and the metrics derived from them.

A span is a dict with an id, a name, the job it belongs to, its parent span,
start and end (seconds on the perf_counter clock), the tracemalloc peak above
the allocation level at its start (None when tracemalloc was off), and
whatever counts the caller attached
(nodes, trials, points, iterations, ...).  Spans stay in memory until the
run ends; nothing here touches the library itself.
"""

from __future__ import annotations

import contextlib
import statistics
import time
import tracemalloc

MB = 2**20


class Tracer:
    """Span recorder; when disabled, `span` only hands back the counts dict.

    With `alloc` set (and tracemalloc running) each span also records the
    tracemalloc peak it reached above the allocation level at its start.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.alloc = False
        self.spans: list[dict] = []
        self.job: int | None = None
        self._open: list[dict] = []

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        if not self.enabled:
            yield counts
            return
        parent = self._open[-1] if self._open else None
        record = {"id": len(self.spans), "name": name, "job": self.job,
                  "parent": None if parent is None else parent["id"], "peak_alloc_bytes": None}
        if self.alloc:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent["_peak"] = max(parent["_peak"], peak)
            tracemalloc.reset_peak()
            record["_base"] = record["_peak"] = current
        self.spans.append(record)
        self._open.append(record)
        record["start"] = time.perf_counter()
        try:
            yield counts
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()
            if self.alloc:
                record["_peak"] = max(record["_peak"], tracemalloc.get_traced_memory()[1])
                if parent is not None:
                    parent["_peak"] = max(parent["_peak"], record["_peak"])
                record["peak_alloc_bytes"] = record.pop("_peak") - record.pop("_base")
            record.update(counts)


def self_seconds(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover."""
    covered: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - covered.get(s["id"], 0.0) for s in spans}


def layer_metric(metric: str, spans: list[dict], own: dict[int, float]) -> float:
    """Value of a per-layer metric named `<span name>.<statistic>`.

    Times come only from calls made with tracemalloc off and are medians over
    them; `peak_alloc_mb` is the largest tracemalloc peak of any call made
    with it on; rates divide each call's self time by the count the call
    carried; other statistics are the median of that count.  A span the
    workload never opens reads 0.
    """
    span_name, stat = metric.rsplit(".", 1)
    group = [s for s in spans if s["name"] == span_name]
    if stat == "calls":
        return len(group)
    if stat == "peak_alloc_mb":
        peaks = [s["peak_alloc_bytes"] for s in group if s["peak_alloc_bytes"] is not None]
        return max(peaks) / MB if peaks else 0.0
    group = [s for s in group if s["peak_alloc_bytes"] is None]
    if not group:
        return 0.0
    if stat == "ms":
        return statistics.median(own[s["id"]] * 1e3 for s in group)
    rates = {"ns_per_node": ("nodes", 1e9), "ns_per_point": ("points", 1e9),
             "ms_per_trial": ("trials", 1e3)}
    if stat in rates:
        key, scale = rates[stat]
        return statistics.median(own[s["id"]] * scale / s[key] for s in group)
    return statistics.median(s[stat] for s in group)
