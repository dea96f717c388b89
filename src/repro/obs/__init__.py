"""Unified observability layer: structured tracing, metrics, run manifests.

Four cooperating pieces, all zero-dependency; tracing, metrics and
manifests are optional at runtime:

* :mod:`repro.obs.trace` — a span tracer.  Pipeline code opens named,
  attributed spans (``with trace.span("align", fn_a=...)``); spans nest,
  time themselves on the monotonic clock, survive exceptions (a span that
  raises still closes, flagged ``error=True``), land in a bounded
  in-memory ring and, optionally, in a JSONL sink.  When no tracer is
  installed every instrumentation point costs one global load and one
  branch.
* :mod:`repro.obs.stage` — the stage timer.  ``with stage(ctx, name,
  faults):`` times one pipeline stage into ``ctx.stage_times`` and closes
  the span of the same name with that very measurement, so spans, stage
  tables, profiles, metrics and manifests agree by construction.
* :mod:`repro.obs.metrics` — a metrics registry: counters, gauges and
  log2-bucketed histograms (percentile summaries without raw-sample
  retention), plus snapshot-time *sources* that absorb the pipeline's
  existing counters (fingerprint/alignment caches, LSH index state,
  outcome tallies) behind one :meth:`Registry.snapshot`.
* :mod:`repro.obs.manifest` — the run manifest: one self-describing JSON
  per ``repro merge`` run or served request (config, adaptive
  parameters, git revision, metrics snapshot, stage table, outcome
  table, module digest) so any two runs are diffable
  (:func:`diff_manifests`) and renderable (``repro report``).

See ``docs/observability.md`` for the span catalogue, metrics schema and
manifest format.
"""

from . import trace
from .manifest import (
    RunManifest,
    build_merge_manifest,
    collect_pass_telemetry,
    diff_manifests,
    load_manifest,
    render_manifest,
    render_manifest_diff,
    save_manifest,
)
from .metrics import Counter, Gauge, Histogram, Registry
from .trace import Span, Tracer, span_totals

__all__ = [
    "trace",
    "Tracer",
    "Span",
    "span_totals",
    "Registry",
    "Counter",
    "Gauge",
    "Histogram",
    "RunManifest",
    "build_merge_manifest",
    "collect_pass_telemetry",
    "diff_manifests",
    "load_manifest",
    "save_manifest",
    "render_manifest",
    "render_manifest_diff",
]
