"""Run manifests: one self-describing JSON per pipeline run.

A manifest captures everything needed to say *what this run was* — the
pass configuration, the adaptive policy's (t, r, b, k) choices (paper
Eq. 3–4), the workload seed, the git revision of the code, the metrics
snapshot, the profiler stage table, the outcome table and a content
digest of the resulting module — so that any two runs are mechanically
diffable (:func:`diff_manifests`) and any single run renders as the
harness table (``repro report``).

The manifest is deliberately plain data (one flat dataclass over
JSON-ready dicts): no object graph to version, and
``emit → save → load → diff == {}`` holds exactly
(``tests/obs/test_manifest.py``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "MANIFEST_SCHEMA",
    "RunManifest",
    "git_revision",
    "module_digest",
    "collect_pass_telemetry",
    "build_merge_manifest",
    "save_manifest",
    "load_manifest",
    "diff_manifests",
    "render_manifest",
    "render_manifest_diff",
]

#: Bumped when the manifest layout changes incompatibly.
MANIFEST_SCHEMA = 1


@dataclass
class RunManifest:
    """One run of the pipeline, described completely enough to diff."""

    kind: str  # "merge" | "partitioned" | "serve" | "fuzz"
    strategy: str = ""
    config: Dict[str, object] = field(default_factory=dict)
    # Adaptive-policy choices (threshold t, rows r, bands b, fingerprint
    # size k) when the adaptive ranker picked them; None for static runs.
    adaptive: Optional[Dict[str, object]] = None
    seed: Optional[int] = None
    git_rev: Optional[str] = None
    created_unix: float = 0.0
    # Workload / result identity.
    module_name: Optional[str] = None
    module_digest: Optional[str] = None
    functions: int = 0
    merges: int = 0
    size_before: int = 0
    size_after: int = 0
    total_time: float = 0.0
    comparisons: int = 0
    # Tables.
    stages: Dict[str, float] = field(default_factory=dict)
    outcomes: Dict[str, int] = field(default_factory=dict)
    metrics: Dict[str, object] = field(default_factory=dict)
    schema: int = MANIFEST_SCHEMA

    @property
    def size_reduction(self) -> float:
        if self.size_before == 0:
            return 0.0
        return 1.0 - self.size_after / self.size_before

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RunManifest":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})


# ---------------------------------------------------------------------------
# Identity helpers
# ---------------------------------------------------------------------------


def git_revision(cwd: Optional[str] = None) -> Optional[str]:
    """HEAD of the repository containing this code (or *cwd* when given),
    or None when git is unavailable.  Defaulting to the package directory
    — not the process cwd — means a run launched from anywhere still
    records the revision of the code that produced it."""
    if cwd is None:
        cwd = os.path.dirname(os.path.abspath(__file__))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except Exception:
        return None
    if out.returncode != 0:
        return None
    rev = out.stdout.strip()
    return rev or None


def module_digest(module) -> str:
    """Content digest of a module: sha256 of its canonical printed form."""
    from ..ir.printer import print_module

    return hashlib.sha256(print_module(module).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Telemetry collection
# ---------------------------------------------------------------------------


def collect_pass_telemetry(pass_, report, registry) -> None:
    """Wire a finished pass's scattered counters into *registry*.

    Registers snapshot-time sources for the owners that keep live stats —
    the fingerprint cache, the alignment block/plan caches, the LSH index,
    the ranker's query counters — and folds the report's one-shot outcome
    tallies into counters.  Safe to call with any ranker/config: absent
    pieces are skipped.
    """
    ranker = pass_.ranker

    fp_cache = getattr(ranker, "cache", None)
    if fp_cache is not None:
        registry.register_source("fingerprint_cache", fp_cache.stats.to_dict)

    engine = getattr(pass_, "engine", None)
    if engine is not None:
        registry.register_source("align_cache", engine.cache.stats.to_dict)
        registry.register_source("plan_cache", engine.plans.stats.to_dict)

    index = getattr(ranker, "_index", None)
    if index is not None and hasattr(index, "index_stats"):
        registry.register_source("lsh_index", index.index_stats)
    if index is not None and hasattr(index, "bucket_summary"):
        registry.register_source("lsh_buckets", index.bucket_summary)

    from ..staticcheck.dataflow import solver_stats

    registry.register_source("staticcheck.dataflow", solver_stats)

    stats = getattr(ranker, "stats", None)
    if stats is not None:
        registry.register_source(
            "ranking",
            lambda s=stats: {
                "queries": s.queries,
                "comparisons": s.comparisons,
                "buckets_probed": s.buckets_probed,
                "capped_buckets": s.capped_buckets,
            },
        )

    registry.absorb_counts("merge.outcome", report.outcome_counts())
    registry.counter("merge.attempts").inc(len(report.attempts))
    registry.counter("merge.merges").inc(report.merges)


# ---------------------------------------------------------------------------
# Building
# ---------------------------------------------------------------------------


def build_merge_manifest(
    report,
    ranker=None,
    pass_config=None,
    module=None,
    registry=None,
    kind: str = "merge",
    module_name: Optional[str] = None,
    seed: Optional[int] = None,
) -> RunManifest:
    """Fold one finished merge run into a :class:`RunManifest`.

    The stage table is the profiler's own
    (:func:`repro.harness.profile.profile_from_report`), so manifest stage
    seconds and ``bench-perf`` stage rows are the same numbers.
    """
    from ..harness.profile import profile_from_report

    profile = profile_from_report(report, ranker)

    config_dict: Dict[str, object] = {}
    if pass_config is not None:
        config_dict = dataclasses.asdict(pass_config)

    adaptive = None
    params = getattr(ranker, "parameters", None)
    if params is not None:
        adaptive = {
            "threshold": params.threshold,
            "rows": params.rows,
            "bands": params.bands,
            "fingerprint_size": params.fingerprint_size,
        }

    return RunManifest(
        kind=kind,
        strategy=report.strategy,
        config=config_dict,
        adaptive=adaptive,
        seed=seed,
        git_rev=git_revision(),
        created_unix=time.time(),
        module_name=module_name,
        module_digest=module_digest(module) if module is not None else None,
        functions=report.num_functions,
        merges=report.merges,
        size_before=report.size_before,
        size_after=report.size_after,
        total_time=report.total_time,
        comparisons=report.comparisons,
        stages=dict(profile.stages),
        outcomes=report.outcome_counts(),
        metrics=registry.snapshot() if registry is not None else {},
    )


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save_manifest(manifest: RunManifest, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_manifest(path: str) -> RunManifest:
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return RunManifest.from_dict(payload)


# ---------------------------------------------------------------------------
# Diffing
# ---------------------------------------------------------------------------


def _leaf_equal(a, b, rel_tol: float) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b or a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if a == b:
            return True
        if rel_tol <= 0.0:
            return False
        scale = max(abs(a), abs(b))
        return abs(a - b) <= rel_tol * scale
    return a == b


def _diff_value(a, b, rel_tol: float, path: str, out: Dict[str, Dict[str, object]]):
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            sub = f"{path}.{key}" if path else str(key)
            if key not in a:
                out[sub] = {"a": None, "b": b[key]}
            elif key not in b:
                out[sub] = {"a": a[key], "b": None}
            else:
                _diff_value(a[key], b[key], rel_tol, sub, out)
        return
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out[path] = {"a": a, "b": b}
            return
        for i, (x, y) in enumerate(zip(a, b)):
            _diff_value(x, y, rel_tol, f"{path}[{i}]", out)
        return
    if not _leaf_equal(a, b, rel_tol):
        out[path] = {"a": a, "b": b}


def diff_manifests(
    a: RunManifest,
    b: RunManifest,
    rel_tol: float = 0.0,
    ignore: Sequence[str] = (),
) -> Dict[str, Dict[str, object]]:
    """Structural diff of two manifests: ``{dotted.path: {"a": .., "b": ..}}``.

    Empty dict means identical (up to *rel_tol* on numeric leaves).
    *ignore* drops paths by prefix — pass ``("created_unix", "git_rev")``
    to compare runs across commits, or ``("stages", "total_time")`` to
    compare decisions while ignoring timing noise.
    """
    out: Dict[str, Dict[str, object]] = {}
    _diff_value(a.to_dict(), b.to_dict(), rel_tol, "", out)
    if ignore:
        out = {
            path: delta
            for path, delta in out.items()
            if not any(path == p or path.startswith(p + ".") or path.startswith(p + "[")
                       for p in ignore)
        }
    return out


# ---------------------------------------------------------------------------
# Rendering (the `repro report` subcommand)
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}".rstrip("0").rstrip(".") or "0"
    return str(value)


def render_manifest(manifest: RunManifest) -> str:
    """One manifest as harness tables: header facts, stages, outcomes."""
    # Imported here, not at module top: harness pulls in the merging pass,
    # which itself imports repro.obs for instrumentation.
    from ..harness.table import format_outcome_table, format_table

    facts: List[Tuple[str, object]] = [
        ("kind", manifest.kind),
        ("strategy", manifest.strategy),
        ("functions", manifest.functions),
        ("merges", manifest.merges),
        ("size before", manifest.size_before),
        ("size after", manifest.size_after),
        ("size reduction", f"{manifest.size_reduction:.2%}"),
        ("total time (s)", f"{manifest.total_time:.3f}"),
        ("comparisons", manifest.comparisons),
        ("git rev", (manifest.git_rev or "?")[:12]),
        ("module digest", (manifest.module_digest or "?")[:12]),
    ]
    if manifest.seed is not None:
        facts.append(("seed", manifest.seed))
    if manifest.adaptive:
        adaptive = manifest.adaptive
        facts.append(
            (
                "adaptive t/r/b/k",
                f"{adaptive.get('threshold')}/{adaptive.get('rows')}"
                f"/{adaptive.get('bands')}/{adaptive.get('fingerprint_size')}",
            )
        )
    parts = [format_table(["field", "value"], facts)]

    if manifest.stages:
        stage_rows = [
            (name, f"{seconds:.6f}")
            for name, seconds in manifest.stages.items()
        ]
        parts.append(format_table(["stage", "seconds"], stage_rows))

    if manifest.outcomes:
        parts.append(format_outcome_table(manifest.outcomes))

    sources = manifest.metrics.get("sources") if manifest.metrics else None
    if sources:
        rows = []
        for source, values in sorted(sources.items()):
            if isinstance(values, dict):
                for key, value in sorted(values.items()):
                    if isinstance(value, (int, float, str, bool)):
                        rows.append((f"{source}.{key}", _fmt(value)))
        if rows:
            parts.append(format_table(["metric", "value"], rows))

    return "\n\n".join(parts)


def render_manifest_diff(diff: Dict[str, Dict[str, object]]) -> str:
    """A manifest diff as one harness table (or a no-difference note)."""
    from ..harness.table import format_table

    if not diff:
        return "manifests identical"
    rows = [
        (path, _fmt(delta["a"]), _fmt(delta["b"]))
        for path, delta in sorted(diff.items())
    ]
    return format_table(["field", "run a", "run b"], rows)
