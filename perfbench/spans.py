"""In-memory spans for the benchmark's traced run.

A span records a name, start and end (perf_counter seconds), its parent
span, the operation it belongs to and free-form attributes (problem sizes,
allocation peaks). Spans stay in memory and are written out once, when the
run ends. The untraced runs use NullTracer, whose spans cost one call.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class Tracer:
    """Records nested spans; the outermost span of each nest is an `op`."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.workload = ""
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        rec = {
            "id": len(self.spans),
            "parent": parent["id"] if parent else None,
            "op": parent["op"] if parent else len(self.spans),
            "workload": self.workload,
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec["attrs"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


class NullTracer:
    """Stands in for Tracer in untraced runs."""

    enabled = False
    workload = ""

    def span(self, name: str, **attrs):
        return nullcontext({})


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part covered by its direct children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - _covered(children.get(s["id"], []), s["start"], s["end"])
        for s in spans
    }


def op_self_time_violations(spans: list[dict], slack: float = 1e-9) -> list[int]:
    """Ids of op spans whose descendants' self times sum past the op's duration."""
    selfs = self_times(spans)
    inside: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            inside[s["op"]] = inside.get(s["op"], 0.0) + selfs[s["id"]]
    return [
        s["id"]
        for s in spans
        if s["parent"] is None
        and inside.get(s["id"], 0.0) > (s["end"] - s["start"]) + slack
    ]
