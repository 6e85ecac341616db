"""In-memory span recorder for the traced benchmark runs.

A span is (name, start, end, parent, pass id). Spans stay in memory while a
pass runs and are written out once at the end. A span's self time is its
duration minus the time its direct children cover; children of one span run
one after another, so their durations simply add.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class NullTracer:
    """Stands in for a Tracer in the untraced half of a paired measurement."""

    enabled = False

    def span(self, name: str):
        return nullcontext()

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records spans and per-name counters; single-threaded use only."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[tuple[int, str], float] = defaultdict(float)
        self._stack: list[int] = []
        self.pass_id = 0

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.pass_id))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            span = self.spans[index]
            span.end = time.perf_counter()
            if parent is not None:
                self.spans[parent].child_s += span.duration

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[(self.pass_id, name)] += amount

    def pass_spans(self, pass_id: int) -> list[Span]:
        return [s for s in self.spans if s.pass_id == pass_id]

    def self_time(self, pass_id: int, name: str) -> float:
        return sum(s.self_s for s in self.pass_spans(pass_id) if s.name == name)

    def calls(self, pass_id: int, name: str) -> int:
        return sum(1 for s in self.pass_spans(pass_id) if s.name == name)

    def durations(self, pass_id: int, name: str) -> list[float]:
        return [s.duration for s in self.pass_spans(pass_id) if s.name == name]

    def counter(self, pass_id: int, name: str) -> float:
        return self.counters.get((pass_id, name), 0.0)

    def descendants_self_time(self, pass_id: int, root_name: str) -> dict[str, float]:
        """Self time per span name below the spans called ``root_name``, summed."""
        totals: dict[str, float] = defaultdict(float)
        for s in self.pass_spans(pass_id):
            parent = s.parent
            while parent is not None and self.spans[parent].name != root_name:
                parent = self.spans[parent].parent
            if parent is not None:
                totals[s.name] += s.self_s
        return dict(totals)

    def write(self, path, header: dict) -> None:
        """Write a header line, then one JSON line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "pass": s.pass_id,
                            "self_s": s.self_s,
                        }
                    )
                    + "\n"
                )
