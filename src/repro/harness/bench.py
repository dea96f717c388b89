"""Machine-readable benchmark emission (``BENCH_*.json``).

The perf trajectory of the repo is tracked through small JSON files the
benchmark suites drop next to the repository root: one ``BENCH_<name>.json``
per suite, a list of per-module measurement rows plus free-form metadata.
This module centralizes the schema so every suite emits the same shape.

The first consumer is the commit-gate cost comparison: per module, how
much wall-time the static merge-safety gate (``PassConfig.static_check``)
costs next to the differential-execution oracle gate — the number that
justifies running the cheap static screen before (or instead of) the
expensive dynamic check.
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping, Optional

from ..merge.report import MergeReport

__all__ = ["gate_cost_row", "write_bench_json", "load_bench_json"]


def gate_cost_row(name: str, report: MergeReport) -> Dict[str, object]:
    """One per-module measurement row from a finished pass run.

    ``static_time`` / ``oracle_time`` are the summed per-attempt gate costs
    (zero when the corresponding gate was disabled), so suites can run the
    gates separately or together and the row stays comparable.
    """
    stages = report.stage_totals()
    return {
        "module": name,
        "functions": report.num_functions,
        "attempts": len(report.attempts),
        "merges": report.merges,
        "static_fails": report.outcome_counts().get("static_fail", 0),
        "oracle_fails": report.outcome_counts().get("oracle_fail", 0),
        "static_time": stages["staticcheck"],
        "oracle_time": stages["oracle"],
        "total_time": report.total_time,
        "size_reduction": report.size_reduction,
    }


def write_bench_json(
    path: str,
    name: str,
    rows: List[Mapping[str, object]],
    metadata: Optional[Mapping[str, object]] = None,
) -> None:
    """Write one ``BENCH_*.json`` payload to *path*."""
    payload = {
        "bench": name,
        "metadata": dict(metadata or {}),
        "rows": [dict(r) for r in rows],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_bench_json(path: str) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
