"""In-memory spans around the benchmark's calls into feqlab.

A span records a name, its start and end (seconds since the tracer was
created), its parent span and free-form attributes such as the case or
equation. Spans stay in memory while the benchmark runs and are written
out once at the end, with each span's self time: its duration minus the
part covered by its child spans.

A disabled tracer hands out one shared no-op context, so untraced runs
pay a method call per span and nothing else.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from pathlib import Path


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", record: dict):
        self.tracer = tracer
        self.record = record

    def __enter__(self) -> dict:
        tracer = self.tracer
        self.record["parent"] = tracer.stack[-1] if tracer.stack else None
        tracer.stack.append(self.record["id"])
        self.record["start"] = time.perf_counter() - tracer.t0
        return self.record["attrs"]

    def __exit__(self, *exc) -> None:
        self.record["end"] = time.perf_counter() - self.tracer.t0
        self.tracer.stack.pop()


_NO_SPAN = contextlib.nullcontext({})


class Tracer:
    """Collects spans when enabled; span() is a no-op context otherwise."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.stack: list[int] = []

    def span(self, name: str, **attrs):
        """Context manager timing the block; yields the span's attribute
        dict so the block can attach counts it learns (e.g. results).
        When disabled it yields one shared scratch dict."""
        if not self.enabled:
            return _NO_SPAN
        record = {"id": len(self.spans), "name": name, "attrs": attrs}
        self.spans.append(record)
        return _Span(self, record)

    def self_times(self) -> list[float]:
        """Self time of every span, in span order."""
        child_total = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_total[s["parent"]] += s["end"] - s["start"]
        return [s["end"] - s["start"] - child_total[s["id"]] for s in self.spans]

    def write(self, path: Path) -> None:
        """Write every span with its self time, plus a per-name summary."""
        selfs = self.self_times()
        spans = [dict(s, self=selfs[s["id"]]) for s in self.spans]
        by_name: dict[str, dict] = {}
        for s in spans:
            agg = by_name.setdefault(s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            agg["count"] += 1
            agg["total_s"] += s["end"] - s["start"]
            agg["self_s"] += s["self"]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"summary": by_name, "spans": spans}, default=str) + "\n")


def durations(spans: list[dict], name: str, **attrs) -> list[float]:
    """Durations in seconds of the spans with this name whose attributes
    include every given key/value pair."""
    return [
        s["end"] - s["start"]
        for s in spans
        if s["name"] == name and all(s["attrs"].get(k) == v for k, v in attrs.items())
    ]


def median_ms(spans: list[dict], name: str, **attrs) -> float:
    return 1e3 * statistics.median(durations(spans, name, **attrs))
