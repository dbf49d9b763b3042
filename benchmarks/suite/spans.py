"""In-memory span recorder for the benchmark driver, plus Chrome-trace export.

Spans are taken in the driver around each public call into the program
(one per layer boundary the driver can see); nothing inside ``src/`` is
instrumented.  A span is ``(name, start, end, parent, point)``; a span's
*self time* is its duration minus the part its children cover.  With the
recorder disabled ``span()`` hands back one shared no-op context, so the
untraced iterations that feed the end-to-end metrics pay one attribute
test per call site.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

__all__ = ["Span", "Recorder", "self_times", "chrome_trace"]

_NULL = nullcontext()


@dataclass
class Span:
    name: str
    start: float
    end: float
    #: Index of the enclosing span in ``Recorder.spans`` (``None`` at the root).
    parent: Optional[int]
    #: Identifier shared by every span of one benchmark point.
    point: Optional[str]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects nested spans of one iteration while ``enabled``."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    def span(self, name: str, point: Optional[str] = None):
        """Context manager timing one call; a shared no-op when disabled."""
        if not self.enabled:
            return _NULL
        return self._record(name, point)

    @contextmanager
    def _record(self, name: str, point: Optional[str]) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        if point is None and parent is not None:
            point = self.spans[parent].point
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, point))
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index].end = time.perf_counter()
            self._stack.pop()


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Total self time per span name (duration minus direct children)."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    totals: Dict[str, float] = {}
    for s, t in zip(spans, own):
        totals[s.name] = totals.get(s.name, 0.0) + t
    return totals


def chrome_trace(spans: List[Span], path: str, process_name: str) -> None:
    """Write ``spans`` as Chrome-trace JSON (open in Perfetto / chrome://tracing).

    One complete (``"X"``) event per span on a single track; nesting is
    recovered by the viewer from the timestamps.  ``args.point`` carries the
    point identifier so one point's spans can be selected together.
    """
    origin = min((s.start for s in spans), default=0.0)
    events = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
         "args": {"name": process_name}},
    ]
    for s in spans:
        events.append(
            {
                "name": s.name,
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (s.start - origin) * 1e6,
                "dur": s.duration * 1e6,
                "args": {"point": s.point},
            }
        )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
