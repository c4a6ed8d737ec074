"""In-memory spans recorded by the benchmark around calls into each layer.

Spans live in a list until the run ends, then :meth:`SpanRecorder.save`
writes them once as Chrome trace-event JSON (loadable in Perfetto).  Each
span names its parent span, so a layer's self time is its duration minus
its children's.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import List, Optional


class SpanRecorder:
    """Collects ``(name, start, end, parent, attrs)`` spans; thread-safe."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._lock = threading.Lock()

    def add(self, name: str, start_ns: int, end_ns: int,
            parent: Optional[int] = None, **attrs) -> int:
        """Record a finished span; returns its id."""
        with self._lock:
            sid = len(self.spans)
            self.spans.append({"id": sid, "name": name, "start": start_ns,
                               "end": end_ns, "parent": parent,
                               "tid": threading.get_ident(),
                               "attrs": attrs})
        return sid

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None, **attrs):
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.add(name, start, time.perf_counter_ns(), parent, **attrs)

    def set_parent(self, sid: int, parent: int) -> None:
        self.spans[sid]["parent"] = parent

    def save(self, path: Path) -> None:
        """Write every span as Chrome trace-event JSON."""
        events = [{"name": s["name"], "ph": "X", "pid": 1,
                   "tid": s["tid"] % 100000, "ts": s["start"] / 1e3,
                   "dur": (s["end"] - s["start"]) / 1e3,
                   "args": dict(s["attrs"], id=s["id"], parent=s["parent"])}
                  for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms"}))
