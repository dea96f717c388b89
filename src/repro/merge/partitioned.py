"""Partitioned (ThinLTO-style) function merging.

Paper Section VI (future work): "we envisage further improvements that can
be achieved by integrating function merging to a summary-based link-time
optimization framework, such as ThinLTO in LLVM".

ThinLTO never materializes the whole program in one module: each partition
is optimized separately, guided by cheap global *summaries*.  We model the
consequence for function merging: within a partition-local pass, candidate
pairs can only be merged when both functions live in the same partition,
so cross-partition sibling pairs are forgone.

:func:`partitioned_merging` is the one driver.  Phase 1 runs one merging
pass per partition, in place on the live module.  With ``reconcile=True``
every phase-1 commit keeps its undo snapshot, and phase 2 recovers the
forgone pairs: it re-ranks every partition's survivors through one global
index and merges the cross-partition pairs, rolling back any lower-benefit
phase-1 merge they conflict with (see :mod:`repro.merge.reconcile`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..alignment.batch import BatchAlignmentEngine
from ..analysis.size import module_size
from ..faults import FaultInjector
from ..fingerprint.fnv import fnv1a_32
from ..ir.function import Function
from ..ir.module import Module
from ..obs.stage import StageContext, stage
from ..search.pairing import MinHashLSHRanker, Ranker
from .pass_ import FunctionMergingPass, PassConfig
from .reconcile import (
    ReconcileReport,
    RetainedMerge,
    RetainingTransaction,
    run_reconcile_phase,
)
from .report import MergeReport, Outcome

__all__ = [
    "PartitionedMergeReport",
    "partition_functions",
    "partitioned_merging",
]


def partition_functions(module: Module, partitions: int) -> List[List[Function]]:
    """Deterministically split defined functions into *partitions* groups.

    Assignment hashes the function name, mimicking how source files (and
    thus their functions) land in different ThinLTO partitions regardless
    of similarity.
    """
    if partitions <= 0:
        raise ValueError("partitions must be positive")
    groups: List[List[Function]] = [[] for _ in range(partitions)]
    for func in module.defined_functions():
        groups[fnv1a_32(func.name.encode("utf-8")) % partitions].append(func)
    return groups


@dataclass
class PartitionedMergeReport:
    partitions: int = 0
    # One pass report per partition, in partition order.
    reports: List[MergeReport] = field(default_factory=list)
    size_before: int = 0
    size_after: int = 0
    # Phase 2's cross-partition report (None unless ``reconcile=True``).
    reconcile: Optional[ReconcileReport] = None
    # Phase name ("partition", "reconcile") -> seconds.
    stage_times: Dict[str, float] = field(default_factory=dict)

    @property
    def merges(self) -> int:
        """Partition-local (phase-1) merges."""
        return sum(r.merges for r in self.reports)

    @property
    def size_reduction(self) -> float:
        if self.size_before == 0:
            return 0.0
        return 1.0 - self.size_after / self.size_before

    @property
    def total_time(self) -> float:
        """Seconds spent in both phases."""
        return sum(self.stage_times.values())

    def digest(self) -> str:
        """Canonical JSON of every decision the run made, times excluded.

        Two runs over the same module with the same configuration must
        produce equal digests.
        """
        payload: List[Dict[str, object]] = [
            {
                "partition": index,
                "num_functions": r.num_functions,
                "merges": r.merges,
                "size_before": r.size_before,
                "size_after": r.size_after,
                "outcome_counts": {k: v for k, v in r.outcome_counts().items() if v},
                "decisions": [
                    (
                        a.function,
                        a.candidate,
                        a.similarity,
                        str(a.outcome),
                        a.alignment_ratio,
                        a.saving,
                    )
                    for a in r.attempts
                ],
            }
            for index, r in enumerate(self.reports)
        ]
        if self.reconcile is not None:
            payload.append(
                {
                    "reconcile": {
                        "recovered_pairs": self.reconcile.recovered_pairs,
                        "decisions": self.reconcile.decisions,
                    }
                }
            )
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _retained_merges(
    partition: int,
    report: MergeReport,
    txns: List[RetainingTransaction],
    first_seq: int,
) -> List[RetainedMerge]:
    """Pair one partition's merged attempts, in order, with its committed
    transactions; ``seq`` continues from *first_seq*."""
    merged = [a for a in report.attempts if a.outcome == Outcome.MERGED]
    committed = [txn for txn in txns if txn.retained is not None]
    assert len(merged) == len(committed), (partition, len(merged), len(committed))
    return [
        RetainedMerge(
            seq=first_seq + offset,
            partition=partition,
            function_a=attempt.function,
            function_b=attempt.candidate,
            merged_name=attempt.merged_name,
            saving=attempt.saving,
            journal=txn.retained,
        )
        for offset, (attempt, txn) in enumerate(zip(merged, committed), start=1)
    ]


def partitioned_merging(
    module: Module,
    partitions: int,
    ranker_factory: Callable[[], Ranker] = MinHashLSHRanker,
    config: PassConfig = PassConfig(verify=False),
    reconcile: bool = False,
    faults: Optional[FaultInjector] = None,
) -> PartitionedMergeReport:
    """Merge within each partition, then optionally across them (mutates
    *module*).

    Phase 1 (stage ``partition``) runs one :class:`FunctionMergingPass`
    per partition over the live module, all sharing one alignment engine:
    block encodings and cached alignment decisions survive partition
    boundaries, so later partitions start warm.  With ``reconcile=True``
    each commit runs in a :class:`RetainingTransaction`, and phase 2
    (stage ``reconcile``) re-ranks the survivors globally and attempts the
    cross-partition pairs phase 1 had to forgo.  *faults* reaches every
    pass of both phases; a ``reconcile``-stage injector fires at the start
    of each phase-2 attempt and is contained per pair.
    """
    report = PartitionedMergeReport(
        partitions=partitions, size_before=module_size(module)
    )
    groups = partition_functions(module, partitions)
    partition_of = {
        func.name: index for index, group in enumerate(groups) for func in group
    }
    clock = StageContext(report.stage_times)
    engine = BatchAlignmentEngine(strategy=config.alignment)
    retained: List[RetainedMerge] = []
    txns: List[RetainingTransaction] = []

    def retaining(mod: Module) -> RetainingTransaction:
        txn = RetainingTransaction(mod)
        txns.append(txn)
        return txn

    with stage(clock, "partition", partitions=partitions):
        for index, group in enumerate(groups):
            txns.clear()
            pass_ = FunctionMergingPass(
                ranker_factory(),
                config,
                faults=faults,
                alignment_engine=engine,
                transaction_factory=retaining if reconcile else None,
            )
            merge_report = pass_.run(module, functions=group)
            report.reports.append(merge_report)
            if reconcile:
                retained += _retained_merges(index, merge_report, txns, len(retained))
    if reconcile:
        with stage(clock, "reconcile", merges=len(retained)):
            report.reconcile = run_reconcile_phase(
                module,
                partitions,
                partition_of,
                retained,
                ranker_factory,
                config,
                engine,
                faults,
            )
    report.size_after = module_size(module)
    return report
