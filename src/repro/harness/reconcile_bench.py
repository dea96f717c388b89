"""Optimistic cross-partition merging benchmark (``bench-perf reconcile``).

Per workload size, on fresh builds of the same module:

* **partition-local baseline** —
  :func:`~repro.merge.partitioned.partitioned_merging` with
  ``reconcile=False``: what ThinLTO-style partitioning achieves when
  cross-partition pairs are simply forgone;
* **optimistic two-phase** — the same driver with ``reconcile=True``: the
  same partition-local passes plus the phase-2 global re-ranking that
  recovers cross-partition pairs (rolling back lower-benefit optimistic
  merges where they conflict).

Identity checks ride along and become the tier-2 gate
(``benchmarks/test_reconcile_perf.py``): the reconcile run's phase-1 size
must equal the partition-local baseline's final size, the recovered size
delta must be nonnegative (reconciliation never loses bytes — its conflict
resolution only ever trades up), and the run digest — every partition
decision plus every phase-2 reconcile decision — must be identical across
repeated runs.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..merge.partitioned import partitioned_merging
from ..merge.pass_ import PassConfig
from ..search.pairing import MinHashLSHRanker
from ..workloads.suites import build_workload
from .bench import best_of

__all__ = ["run_reconcile_bench"]


def run_reconcile_bench(
    sizes: Sequence[int],
    partitions: int = 4,
    repeats: int = 2,
    workload: str = "reconcile",
) -> Tuple[List[Dict[str, object]], Dict[str, object]]:
    """Rows (one per size) + metadata with the tier-2 gated headline."""
    config = PassConfig(verify=True)
    rows: List[Dict[str, object]] = []
    for n in sizes:
        baseline = partitioned_merging(
            build_workload(n, f"{workload}{n}"), partitions, MinHashLSHRanker, config
        )

        # Modules are built up front so only partitioned_merging is timed.
        modules = [
            build_workload(n, f"{workload}{n}") for _ in range(max(2, repeats))
        ]
        reports = []

        def optimistic() -> None:
            reports.append(
                partitioned_merging(
                    modules.pop(), partitions, MinHashLSHRanker, config, reconcile=True
                )
            )

        t_opt = best_of({"optimistic": optimistic}, len(modules))["optimistic"]
        digests = [report.digest() for report in reports]
        last = reports[-1]
        rc = last.reconcile

        rows.append(
            {
                "size": n,
                "partitions": partitions,
                "size_before": baseline.size_before,
                "baseline_size_after": baseline.size_after,
                "baseline_merges": baseline.merges,
                "size_phase1": rc.size_phase1,
                "size_after": rc.size_after,
                "phase1_merges": last.merges,
                "cross_candidates": rc.cross_candidates,
                "attempted": rc.attempted,
                "recovered_pairs": rc.recovered_pairs,
                "recovered_saving": rc.recovered_saving,
                "recovered_size_delta": rc.recovered_size_delta,
                "conflicts_considered": rc.conflicts_considered,
                "conflicts_resolved": rc.conflicts_resolved,
                "conflicts_skipped": rc.conflicts_skipped,
                "rollbacks": rc.rollbacks,
                "reapplied": rc.reapplied,
                "reapply_failures": rc.reapply_failures,
                "optimistic_time": t_opt,
                "reconcile_time": last.stage_times["reconcile"],
                "decisions_deterministic": len(set(digests)) == 1,
                "phase1_size_identical": rc.size_phase1 == baseline.size_after,
            }
        )

    largest = rows[-1]
    extra = largest["recovered_size_delta"]
    before = largest["size_before"]
    metadata: Dict[str, object] = {
        "partitions": partitions,
        "repeats": repeats,
        "workload": workload,
        "headline": {
            "largest_size": largest["size"],
            "recovered_pairs": largest["recovered_pairs"],
            "recovered_size_delta": extra,
            "extra_reduction": (extra / before) if before else 0.0,
            "decisions_deterministic": all(
                r["decisions_deterministic"] for r in rows
            ),
            "phase1_size_identical": all(
                r["phase1_size_identical"] for r in rows
            ),
        },
    }
    return rows, metadata
