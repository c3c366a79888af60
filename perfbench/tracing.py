"""Spans recorded around the benchmark's own calls into ``repro``.

A :class:`Tracer` keeps every span in memory (name, start, end, thread,
parent) and writes them out when the run ends: a per-name summary with
self time (a span's duration minus the part its direct children cover)
and a Chrome trace-event JSON list viewable in Perfetto or
``chrome://tracing``.  A disabled tracer hands out one shared no-op
context, so the untraced end-to-end runs pay one method call per span.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

_NULL = contextlib.nullcontext()


class Span:
    """One timed interval; ``child_s`` sums its direct children."""

    __slots__ = ("span_id", "name", "parent", "tid", "start", "end",
                 "child_s", "args")

    def __init__(self, span_id: int, name: str, parent: Optional["Span"],
                 tid: int, args: Dict[str, object]):
        self.span_id = span_id
        self.name = name
        self.parent = parent
        self.tid = tid
        self.args = args
        self.child_s = 0.0
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_s


class Tracer:
    """Nested spans per thread; ``enabled=False`` records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = bool(enabled)
        self.spans: List[Span] = []
        self._origin = time.perf_counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def span(self, name: str, **args):
        """Context manager timing the enclosed block as ``name``."""
        if not self.enabled:
            return _NULL
        return self._span(name, args)

    @contextlib.contextmanager
    def _span(self, name: str, args: Dict[str, object]):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        parent = stack[-1] if stack else None
        record = Span(span_id, name, parent, threading.get_ident(), args)
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent.child_s += record.seconds
            with self._lock:
                self.spans.append(record)

    # -- summaries ------------------------------------------------------
    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s.seconds for s in self.named(name))

    def mean(self, name: str) -> float:
        """Mean duration per ``name`` span (0 when there is none)."""
        spans = self.named(name)
        return sum(s.seconds for s in spans) / len(spans) if spans else 0.0

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        table: Dict[str, Dict[str, float]] = {}
        for s in self.spans:
            row = table.setdefault(s.name, {"calls": 0, "total_s": 0.0,
                                            "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s.seconds
            row["self_s"] += s.self_seconds
        return dict(sorted(table.items()))

    def write_chrome(self, path: Path) -> None:
        """Write every span as a Chrome ``"X"`` (complete) event."""
        pid = os.getpid()
        events = []
        for s in sorted(self.spans, key=lambda s: s.start):
            args = dict(s.args)
            args.update(span_id=s.span_id,
                        parent_id=s.parent.span_id if s.parent else None,
                        self_us=round(s.self_seconds * 1e6, 3))
            events.append({
                "name": s.name, "cat": s.name.split(".")[0], "ph": "X",
                "ts": round((s.start - self._origin) * 1e6, 3),
                "dur": round(s.seconds * 1e6, 3),
                "pid": pid, "tid": s.tid, "args": args,
            })
        Path(path).write_text(json.dumps(events))
