"""The stage timer: one measurement per pipeline region.

``with stage(ctx, "align", faults):`` is how the pipeline times a region.
On entry it sets ``ctx.stage`` (the stage a failure is charged to), opens
the span of the same name when a tracer is installed and fires the
optional fault point.  On exit — also when the body or the fault point
raised — it adds the elapsed seconds to ``ctx.stage_times[name]`` and
closes the span with that same start and duration.  One pair of clock
reads is the only measurement, so spans, attempt records, the profiler
table, metrics and manifests agree by construction.

A sub-stage is named ``<stage>.<part>`` (``codegen.verify``): its span and
table entry carry the full name, ``ctx.stage`` and the fault point carry
``<part>``.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Optional

from . import trace

__all__ = ["StageContext", "stage"]


class StageContext:
    """Where a unit of work is and where its time went: ``stage`` names
    the stage entered last (it stays set after the stage exits), and
    ``stage_times`` maps stage name to accumulated seconds."""

    __slots__ = ("stage", "stage_times")

    def __init__(self, stage_times: Optional[Dict[str, float]] = None) -> None:
        self.stage: Optional[str] = None
        self.stage_times: Dict[str, float] = {} if stage_times is None else stage_times


class stage:
    """Time one region into ``ctx.stage_times[name]`` (see module docs)."""

    __slots__ = ("_ctx", "_name", "_faults", "_attrs", "_span", "_start")

    def __init__(self, ctx, name: str, faults=None, **attrs) -> None:
        self._ctx = ctx
        self._name = name
        self._faults = faults
        self._attrs = attrs

    def __enter__(self) -> "stage":
        point = self._name.rpartition(".")[2]
        self._ctx.stage = point
        tracer = trace.active()
        self._span = None if tracer is None else tracer.span(self._name, **self._attrs)
        self._start = perf_counter()
        if self._faults is not None:
            try:
                self._faults.hit(point)
            except BaseException as exc:
                self.__exit__(type(exc), exc, exc.__traceback__)
                raise
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = perf_counter() - self._start
        times = self._ctx.stage_times
        times[self._name] = times.get(self._name, 0.0) + elapsed
        if self._span is not None:
            self._span.close(self._start, elapsed, exc_type)
        return False  # never swallow the exception
