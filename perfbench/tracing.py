"""In-memory spans recorded around the benchmark's calls into paradd.

A span has a name, start, end, parent span and request id, plus counts
(digits, instances, ...) measured at the same boundary.  When tracing is
off, ``span`` hands back one shared no-op context, so the untraced run
pays a method call per layer boundary and nothing else.
"""

from __future__ import annotations

import json
import statistics
import time


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, **counts):
        pass


_NO_SPAN = _NoSpan()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, record):
        self.tracer = tracer
        self.record = record

    def set(self, **counts):
        """Attach counts known only once the call has returned."""
        self.record["attrs"].update(counts)

    def __enter__(self):
        tr = self.tracer
        rec = self.record
        if tr.stack:
            parent = tr.spans[tr.stack[-1]]
            rec["parent"] = parent["id"]
            if rec["req"] is None:
                rec["req"] = parent["req"]
        rec["id"] = len(tr.spans)
        tr.spans.append(rec)
        tr.stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.tracer.stack.pop()
        return False


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self.stack = []

    def span(self, name: str, req=None, **attrs):
        if not self.enabled:
            return _NO_SPAN
        return _Span(self, {"name": name, "req": req, "parent": None,
                            "attrs": attrs})

    def select(self, name: str, **match):
        return [s for s in self.spans if s["name"] == name
                and all(s["attrs"].get(k) == v for k, v in match.items())]

    def seconds(self, name: str, **match) -> float:
        return sum(s["end"] - s["start"] for s in self.select(name, **match))

    def rate(self, name: str, count: str, **match) -> float:
        spans = self.select(name, **match)
        return (sum(s["attrs"][count] for s in spans)
                / sum(s["end"] - s["start"] for s in spans))

    def p50(self, name: str, **match) -> float:
        return statistics.median(s["end"] - s["start"]
                                 for s in self.select(name, **match))

    def max(self, name: str, **match) -> float:
        return max(s["end"] - s["start"] for s in self.select(name, **match))

    def self_times(self) -> dict:
        """Per span name: total time minus the time its children cover.

        Spans nest on one thread, so children never overlap each other.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = {}
        for s, c in zip(self.spans, child):
            total, own, n = out.get(s["name"], (0.0, 0.0, 0))
            dur = s["end"] - s["start"]
            out[s["name"]] = (total + dur, own + dur - c, n + 1)
        return {name: {"total_s": t, "self_s": o, "count": n}
                for name, (t, o, n) in sorted(out.items(),
                                               key=lambda kv: -kv[1][1])}

    def write(self, path, meta: dict) -> None:
        t0 = self.spans[0]["start"] if self.spans else 0.0
        spans = [{"id": s["id"], "parent": s["parent"], "req": s["req"],
                  "name": s["name"], "start_s": s["start"] - t0,
                  "end_s": s["end"] - t0, **s["attrs"]} for s in self.spans]
        with open(path, "w") as fh:
            json.dump({**meta, "self_times": self.self_times(),
                       "spans": spans}, fh)
