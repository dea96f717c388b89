"""Structured span tracing for the merging pipeline.

A *span* is one named, timed region of pipeline work — a merge attempt, an
alignment, an LSH probe — carrying free-form attributes and point-in-time
*events* (cache hit/miss markers).  Spans nest: each span records its
parent, so a JSONL trace reconstructs the full call tree of a run.

Design constraints, in priority order:

1. **Disabled tracing is free.**  No tracer installed means every
   instrumentation point reduces to one module-global load and one
   ``is None`` branch before returning a shared no-op span; nothing is
   retained (``tests/obs/test_trace.py`` pins this with ``tracemalloc``).
2. **Exception safety.**  A span whose body raises still closes, records
   its duration, and is flagged ``error=True`` with the exception type.
3. **Bounded memory.**  Finished spans land in a ring buffer
   (``maxlen`` spans); the optional JSONL sink streams every finished
   span to disk, so long runs can keep full traces without keeping them
   resident.

Timing uses the monotonic clock (``time.perf_counter``).  The pipeline's
stage spans are opened by the stage timer (:mod:`repro.obs.stage`), which
closes each one with the same start and duration it adds to the stage
table, so span totals and the profiler's table are one measurement.

Usage::

    tracer = Tracer(sink="run.jsonl")
    with tracer.install():
        run_pipeline()
    totals = span_totals(tracer.finished())

Instrumentation sites use the module-level helpers, which dispatch to the
installed tracer (or the no-op)::

    from repro.obs import trace
    with trace.span("align", fn_a=a.name, fn_b=b.name):
        ...
        trace.event("align_cache", hit=True)
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Span",
    "Tracer",
    "NOOP_SPAN",
    "span",
    "event",
    "active",
    "enabled",
    "install",
    "uninstall",
    "span_totals",
    "load_trace",
]


class _NoopSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass

    def event(self, name: str, **attrs) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class Span:
    """One named, timed, attributed region of work."""

    __slots__ = (
        "name",
        "attrs",
        "span_id",
        "parent_id",
        "depth",
        "start",
        "duration",
        "error",
        "error_type",
        "events",
        "_tracer",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attrs: Dict[str, object],
        span_id: int,
        parent_id: Optional[int],
        depth: int,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self.start = 0.0
        self.duration = 0.0
        self.error = False
        self.error_type: Optional[str] = None
        self.events: List[Tuple[str, float, Dict[str, object]]] = []

    # -- context manager -------------------------------------------------------------
    def __enter__(self) -> "Span":
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close(self.start, time.perf_counter() - self.start, exc_type)
        return False  # never swallow the exception

    def close(self, start: float, duration: float, exc_type=None) -> None:
        """Finish the span with a measurement taken by its caller (the
        stage timer closes its span with the very numbers it records)."""
        self.start = start
        self.duration = duration
        if exc_type is not None:
            self.error = True
            self.error_type = exc_type.__name__
        self._tracer._finish(self)

    # -- enrichment ------------------------------------------------------------------
    def set(self, **attrs) -> None:
        """Attach (or overwrite) attributes on the open span."""
        self.attrs.update(attrs)

    def event(self, name: str, **attrs) -> None:
        """Record a point-in-time event inside this span (offset seconds
        from the span start)."""
        self.events.append((name, time.perf_counter() - self.start, attrs))

    # -- serialization ---------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "depth": self.depth,
            "start": self.start,
            "dur": self.duration,
        }
        if self.attrs:
            payload["attrs"] = self.attrs
        if self.error:
            payload["error"] = True
            payload["error_type"] = self.error_type
        if self.events:
            payload["events"] = [
                {"name": name, "offset": offset, **({"attrs": a} if a else {})}
                for name, offset, a in self.events
            ]
        return payload


class Tracer:
    """Owns the span stack, the finished-span ring and the optional sink.

    The span stack is thread-local, so concurrent pipeline threads each
    get a consistent parent chain; the ring and the sink are shared and
    lock-protected.
    """

    def __init__(self, maxlen: int = 1 << 16, sink: Optional[str] = None) -> None:
        self.maxlen = maxlen
        self._ring: "deque[Span]" = deque(maxlen=maxlen)
        self._local = threading.local()
        # The lock only guards the sink handle: id allocation uses
        # itertools.count (atomic under the GIL) and bounded deque appends
        # are thread-safe, so the sink-less hot path takes no lock at all.
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._sink_path = sink
        self._sink_handle = None
        self.spans_started = 0
        self.spans_dropped = 0
        if sink is not None:
            self._sink_handle = open(sink, "w", encoding="utf-8")

    # -- span lifecycle ---------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def span(self, name: str, **attrs) -> Span:
        """Open a new span as a child of the current one (enter to start)."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        # Informational tally; a lost update under thread preemption is
        # acceptable, a per-span lock is not.
        self.spans_started += 1
        sp = Span(
            self,
            name,
            attrs,
            span_id,
            parent.span_id if parent is not None else None,
            len(stack),
        )
        stack.append(sp)
        return sp

    def event(self, name: str, **attrs) -> None:
        """Attach an event to the innermost open span (dropped if none)."""
        stack = self._stack()
        if stack:
            stack[-1].event(name, **attrs)

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def _finish(self, sp: Span) -> None:
        stack = self._stack()
        # Exception paths can close spans out of order; pop to (and
        # including) the finished span so the stack never leaks an entry.
        while stack:
            top = stack.pop()
            if top is sp:
                break
        ring = self._ring
        if len(ring) == self.maxlen:
            self.spans_dropped += 1
        ring.append(sp)  # bounded deque: thread-safe, evicts oldest
        if self._sink_handle is not None:
            with self._lock:
                json.dump(sp.to_dict(), self._sink_handle, sort_keys=True)
                self._sink_handle.write("\n")

    # -- inspection -------------------------------------------------------------------
    def finished(self) -> List[Span]:
        """Finished spans still resident in the ring (oldest first)."""
        return list(self._ring)

    def close(self) -> None:
        if self._sink_handle is not None:
            self._sink_handle.close()
            self._sink_handle = None

    # -- installation -----------------------------------------------------------------
    @contextmanager
    def install(self):
        """Make this tracer the process-wide active tracer for a ``with``
        block (restores the previous one on exit, closes the sink)."""
        global _ACTIVE
        previous = _ACTIVE
        _ACTIVE = self
        try:
            yield self
        finally:
            _ACTIVE = previous
            self.close()


# ---------------------------------------------------------------------------
# Module-level dispatch (the instrumentation surface)
# ---------------------------------------------------------------------------

_ACTIVE: Optional[Tracer] = None


def span(name: str, **attrs):
    """A span on the active tracer, or the shared no-op when disabled."""
    tracer = _ACTIVE
    if tracer is None:
        return NOOP_SPAN
    return tracer.span(name, **attrs)


def event(name: str, **attrs) -> None:
    """An event on the active tracer's innermost span (no-op when disabled)."""
    tracer = _ACTIVE
    if tracer is None:
        return
    tracer.event(name, **attrs)


def active() -> Optional[Tracer]:
    """The installed tracer, or None.  Hot paths that would do real work
    just to compute span attributes should guard on this first."""
    return _ACTIVE


def enabled() -> bool:
    return _ACTIVE is not None


def install(tracer: Tracer) -> None:
    """Install *tracer* process-wide (prefer ``Tracer.install()``)."""
    global _ACTIVE
    _ACTIVE = tracer


def uninstall() -> None:
    global _ACTIVE
    if _ACTIVE is not None:
        _ACTIVE.close()
    _ACTIVE = None


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def span_totals(spans: Iterable) -> Dict[str, Dict[str, object]]:
    """Aggregate spans (``Span`` objects or ``to_dict`` payloads) by name.

    Returns ``{name: {"count", "total_s", "errors"}}``.
    """
    out: Dict[str, Dict[str, object]] = {}
    for sp in spans:
        if isinstance(sp, Span):
            name, dur, err = sp.name, sp.duration, sp.error
        else:
            name, dur, err = sp["name"], sp.get("dur", 0.0), sp.get("error", False)
        agg = out.get(name)
        if agg is None:
            agg = {"count": 0, "total_s": 0.0, "errors": 0}
            out[name] = agg
        agg["count"] += 1
        agg["total_s"] += dur
        if err:
            agg["errors"] += 1
    return out


def load_trace(path: str) -> List[Dict[str, object]]:
    """Read a JSONL trace back as a list of span payloads."""
    spans: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                spans.append(json.loads(line))
    return spans
