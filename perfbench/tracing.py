"""Spans recorded around the benchmark's calls into each program layer.

A span is ``(name, start, end, parent, request_id)`` with times in
seconds of ``time.perf_counter``.  Spans stay in memory and are written
as one JSON file when the run ends.  With tracing off, :meth:`span` and
:meth:`record` do nothing, so untraced runs pay one attribute check per
call site.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import List, Optional, Tuple

Span = Tuple[str, float, float, Optional[int], Optional[int]]


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, request_id: Optional[int] = None):
        """Record the enclosed block as a span (nested spans get this one
        as their parent)."""
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, parent, request_id))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            name, start, _, parent, rid = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter(), parent, rid)

    def record(self, name: str, start: float, end: float,
               request_id: Optional[int] = None) -> None:
        """Add a span measured elsewhere (a request timed by the client
        from its due time to its response)."""
        if self.enabled:
            parent = self._stack[-1] if self._stack else None
            self.spans.append((name, start, end, parent, request_id))

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(
                [
                    {"name": n, "start": s, "end": e, "parent": p,
                     "request_id": r}
                    for n, s, e, p, r in self.spans
                ],
                f,
            )
