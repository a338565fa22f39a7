"""In-memory spans for the traced benchmark run.

A span is one call into a t3s layer, recorded from the benchmark's side of
the call: its name, the request it served, its parent span, and its start
and end on the `time.perf_counter` clock. Spans stay in memory while the
workload runs and are written out once it ends.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext
from pathlib import Path

# Field order of one recorded span.
NAME, REQUEST, PARENT, START, END = range(5)


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", name: str, request: int):
        self.tracer = tracer
        self.record = [name, request, -1, 0.0, 0.0]

    def __enter__(self):
        tracer = self.tracer
        if tracer._open:
            self.record[PARENT] = tracer._open[-1]
        tracer._open.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record[START] = time.perf_counter()

    def __exit__(self, *exc):
        self.record[END] = time.perf_counter()
        self.tracer._open.pop()
        return False


class Tracer:
    """Records nested spans; `span(name, request)` is a context manager."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def span(self, name: str, request: int) -> _Span:
        return _Span(self, name, request)

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def self_by_name(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for s, own in zip(self.spans, self.self_seconds()):
            out.setdefault(s[NAME], []).append(own)
        return out

    def layer_shares(self, root_name: str) -> list[float]:
        """For each span named `root_name`, the share of its duration that
        its direct children (the layer calls) account for."""
        covered = {i: 0.0 for i, s in enumerate(self.spans) if s[NAME] == root_name}
        for s in self.spans:
            if s[PARENT] in covered:
                covered[s[PARENT]] += s[END] - s[START]
        return [c / (self.spans[i][END] - self.spans[i][START]) for i, c in covered.items()]

    def child_share(self, root_name: str, child_name: str) -> float:
        """Summed durations of the spans named `child_name` directly under a
        span named `root_name`, over the summed durations of those roots."""
        roots = {i for i, s in enumerate(self.spans) if s[NAME] == root_name}
        total = sum(self.spans[i][END] - self.spans[i][START] for i in roots)
        part = sum(s[END] - s[START] for s in self.spans
                   if s[NAME] == child_name and s[PARENT] in roots)
        return part / total

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][START] if self.spans else 0.0
        with path.open("w") as fh:
            for i, (s, own) in enumerate(zip(self.spans, self.self_seconds())):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s[NAME],
                            "request": s[REQUEST],
                            "parent": s[PARENT],
                            "start_s": s[START] - t0,
                            "end_s": s[END] - t0,
                            "self_s": own,
                        }
                    )
                    + "\n"
                )


class NullTracer:
    """Stands in for a Tracer when tracing is off; records nothing."""

    enabled = False
    _noop = nullcontext()

    def span(self, name: str, request: int):
        return self._noop


NULL = NullTracer()
