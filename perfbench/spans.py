"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, op) plus a few counts recorded at the
same boundary.  Spans are kept in a list and written out once, when the run
ends.  The untraced run uses :data:`OFF`, whose ``span`` and ``wrap`` do
nothing, so both runs execute the same workload code.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, **self.counts}


class Tracer:
    """Records nested spans; ``op`` tags every span opened while it is set."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, time.perf_counter(), float("nan"), parent, self.op,
                   dict(counts))
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec.end = time.perf_counter()

    def wrap(self, name: str, fn, count=None):
        """``fn`` timed as a span; ``count(args)`` returns extra counts."""
        def timed(*args, **kwargs):
            extra = count(*args) if count is not None else {}
            with self.span(name, **extra):
                return fn(*args, **kwargs)
        return timed

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover
        (children of one span run one after another)."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own


class _Off:
    enabled = False

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        yield None

    def wrap(self, name: str, fn, count=None):
        return fn


OFF = _Off()
