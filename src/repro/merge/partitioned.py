"""Partitioned (ThinLTO-style) function merging.

Paper Section VI (future work): "we envisage further improvements that can
be achieved by integrating function merging to a summary-based link-time
optimization framework, such as ThinLTO in LLVM".

ThinLTO never materializes the whole program in one module: each partition
is optimized separately, guided by cheap global *summaries*.  We model the
consequence for function merging: within a partition-local pass, candidate
pairs can only be merged when both functions live in the same partition,
so cross-partition sibling pairs are forgone.  The partitioned pass
quantifies that cost — and, because MinHash fingerprints are exactly the
kind of summary ThinLTO could distribute, the report also counts how many
of the lost pairs a summary index would have discovered.

:func:`optimistic_sweep` then actually recovers them: phase 1 runs the
partition-local sweeps in parallel and replays their decisions
optimistically; phase 2 re-ranks every partition's survivors through one
global index and merges the cross-partition pairs, rolling back any
lower-benefit optimistic merge they conflict with (see
:mod:`repro.merge.reconcile`).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..alignment.batch import BatchAlignmentEngine
from ..fingerprint.batch import minhash_module
from ..fingerprint.cache import FingerprintCache
from ..fingerprint.fnv import fnv1a_32
from ..fingerprint.minhash import MinHashConfig
from ..ir.function import Function
from ..ir.module import Module
from ..ir.parser import parse_module
from ..ir.printer import print_module
from ..faults import FaultInjector
from ..search.pairing import MinHashLSHRanker, Ranker
from .pass_ import FunctionMergingPass, PassConfig
from .reconcile import ReconcileReport, run_optimistic_phases
from .report import MergeReport

__all__ = [
    "PartitionedMergeReport",
    "SweepPartitionResult",
    "SweepReport",
    "optimistic_sweep",
    "partition_functions",
    "partition_sweep",
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
    reports: List[MergeReport] = field(default_factory=list)
    size_before: int = 0
    size_after: int = 0
    cross_partition_candidates: int = 0
    # Shared-cache prewarm accounting (zeros when prewarm was off).
    prewarm_time: float = 0.0
    cache_stats: Optional[Dict[str, object]] = None
    # Alignment-decision cache counters for the engine shared across the
    # per-partition passes (None until the sweep has run).
    align_cache_stats: Optional[Dict[str, object]] = None

    @property
    def merges(self) -> int:
        return sum(r.merges for r in self.reports)

    @property
    def size_reduction(self) -> float:
        if self.size_before == 0:
            return 0.0
        return 1.0 - self.size_after / self.size_before

    @property
    def total_time(self) -> float:
        return sum(r.total_time for r in self.reports)


def _adopt_cache(ranker: Ranker, cache: FingerprintCache) -> None:
    """Point a factory-produced ranker at the shared fingerprint cache
    (only when it supports one and does not already have its own)."""
    if isinstance(ranker, MinHashLSHRanker) and ranker.cache is None:
        ranker.cache = cache


def partitioned_merging(
    module: Module,
    partitions: int,
    ranker_factory: Callable[[], Ranker] = MinHashLSHRanker,
    config: PassConfig = PassConfig(verify=False),
    count_lost_pairs: bool = True,
    cache: Optional[FingerprintCache] = None,
    prewarm: bool = False,
    workers: Optional[int] = None,
) -> PartitionedMergeReport:
    """Merge within each partition separately; summarize the whole module.

    With ``count_lost_pairs`` a global MinHash index (the "summary") is
    consulted first to count how many functions' best global partner lives
    in another partition — the opportunity a ThinLTO integration would need
    to import across partition boundaries.

    With ``prewarm`` (or an explicit *cache*) all defined functions are
    fingerprinted up front in one batched pass — fanned out over ``workers``
    processes for large modules — into a shared content-addressed
    :class:`FingerprintCache`.  The summary ranker and every per-partition
    ranker the factory produces then hit the cache instead of recomputing,
    so the module is fingerprinted once instead of once per partition pass.
    Prewarming uses the factory ranker's static MinHash config; adaptive
    rankers derive per-partition configs, for which prewarmed entries are
    simply never consulted (correct, just not accelerated).
    """
    from ..analysis.size import module_size

    report = PartitionedMergeReport(partitions=partitions)
    report.size_before = module_size(module)

    groups = partition_functions(module, partitions)

    if prewarm and cache is None:
        cache = FingerprintCache()
    if cache is not None and prewarm:
        probe = ranker_factory()
        if isinstance(probe, MinHashLSHRanker) and not probe.adaptive:
            prewarm_config = probe._requested_config or MinHashConfig()
            t0 = time.perf_counter()
            minhash_module(
                module.defined_functions(),
                prewarm_config,
                probe.encoding,
                cache=cache,
                workers=workers,
            )
            report.prewarm_time = time.perf_counter() - t0

    if count_lost_pairs and partitions > 1:
        partition_of: Dict[int, int] = {}
        for index, group in enumerate(groups):
            for func in group:
                partition_of[id(func)] = index
        summary: Ranker = ranker_factory()
        if cache is not None:
            _adopt_cache(summary, cache)
        summary.preprocess(module.defined_functions())
        for func in module.defined_functions():
            match = summary.best_match(func)
            if match is not None and partition_of.get(id(match.function)) != partition_of.get(
                id(func)
            ):
                report.cross_partition_candidates += 1

    # One alignment engine across every per-partition pass: block
    # encodings and cached alignment decisions survive partition
    # boundaries (same-content blocks recur across partitions), so later
    # partitions start warm.
    engine = BatchAlignmentEngine(strategy=config.alignment)
    for group in groups:
        ranker = ranker_factory()
        if cache is not None:
            _adopt_cache(ranker, cache)
        pass_ = FunctionMergingPass(ranker, config, alignment_engine=engine)
        report.reports.append(pass_.run(module, functions=group))

    report.size_after = module_size(module)
    if cache is not None:
        report.cache_stats = cache.stats.to_dict()
    report.align_cache_stats = engine.cache.stats.to_dict()
    return report


# ---------------------------------------------------------------------------
# Parallel partition sweeps
# ---------------------------------------------------------------------------


@dataclass
class SweepPartitionResult:
    """What one partition's merging pass decided (times kept separate).

    ``decisions`` is the attempt log reduced to its decision content —
    ``(function, candidate, similarity, outcome, alignment_ratio,
    saving, merged_name)`` — exactly the fields
    :meth:`SweepReport.digest` serializes, so serial and parallel sweeps
    can be compared bit-for-bit without wall-clock noise.  The trailing
    ``merged_name`` (None for non-merged outcomes) lets the optimistic
    replay map the worker module's merged-function names onto the parent
    module's.
    """

    partition: int
    num_functions: int
    merges: int
    size_before: int
    size_after: int
    outcome_counts: Dict[str, int]
    decisions: List[
        Tuple[str, Optional[str], float, str, float, int, Optional[str]]
    ]
    align_cache_stats: Optional[Dict[str, object]]
    elapsed: float

    @property
    def saving(self) -> int:
        return self.size_before - self.size_after


@dataclass
class SweepReport:
    """Aggregate result of :func:`partition_sweep` (and, when the
    optimistic two-phase driver ran, :func:`optimistic_sweep`)."""

    partitions: int
    results: List[SweepPartitionResult]
    snapshot_time: float = 0.0
    total_time: float = 0.0
    workers: int = 1
    # Populated by optimistic_sweep: the phase-2 cross-partition
    # reconciliation report (None for a plain partition_sweep).
    reconcile: Optional["ReconcileReport"] = None

    @property
    def merges(self) -> int:
        return sum(r.merges for r in self.results)

    @property
    def saving(self) -> int:
        return sum(r.saving for r in self.results)

    def digest(self) -> str:
        """Canonical JSON of every decision the sweep made, times excluded.

        Two sweeps over the same module snapshot with the same
        configuration must produce equal digests regardless of worker
        count — this is the bit-identity contract the parallel path is
        tested against.
        """
        payload = [
            {
                "partition": r.partition,
                "num_functions": r.num_functions,
                "merges": r.merges,
                "size_before": r.size_before,
                "size_after": r.size_after,
                "outcome_counts": r.outcome_counts,
                "decisions": r.decisions,
            }
            for r in self.results
        ]
        if self.reconcile is not None:
            payload.append(
                {
                    "reconcile": {
                        "replay_merges": self.reconcile.replay_merges,
                        "replay_diverged": self.reconcile.replay_diverged,
                        "recovered_pairs": self.reconcile.recovered_pairs,
                        "decisions": self.reconcile.decisions,
                    }
                }
            )
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _sweep_worker(payload):
    """Top-level worker (picklable): merge one partition of the snapshot.

    Every worker — and the serial baseline, which calls this same
    function inline — re-parses the module text and re-derives the
    partitioning, so the work a partition sees is a pure function of
    ``(text, partitions, index, ranker_factory, config)``.  That makes
    serial/parallel decision equality hold by construction instead of by
    synchronization.
    """
    text, partitions, index, ranker_factory, config = payload
    t0 = time.perf_counter()
    module = parse_module(text)
    group = partition_functions(module, partitions)[index]
    report = FunctionMergingPass(ranker_factory(), config).run(
        module, functions=group
    )
    return SweepPartitionResult(
        partition=index,
        num_functions=report.num_functions,
        merges=report.merges,
        size_before=report.size_before,
        size_after=report.size_after,
        outcome_counts={k: v for k, v in report.outcome_counts().items() if v},
        decisions=[
            (
                a.function,
                a.candidate,
                a.similarity,
                str(a.outcome),
                a.alignment_ratio,
                a.saving,
                a.merged_name,
            )
            for a in report.attempts
        ],
        align_cache_stats=report.align_cache_stats,
        elapsed=time.perf_counter() - t0,
    )


def partition_sweep(
    module: Module,
    partitions: int,
    ranker_factory: Callable[[], Ranker] = MinHashLSHRanker,
    config: PassConfig = PassConfig(verify=False),
    workers: Optional[int] = None,
) -> SweepReport:
    """Evaluate every partition's merging independently, in parallel.

    Unlike :func:`partitioned_merging` this never mutates *module*: the
    module is snapshotted once as text, and each partition is merged
    inside its own re-parsed copy — partitions are independent by
    construction, so they can run in a process pool.  ``workers=1`` (or
    a single-CPU machine) runs the identical worker inline; results are
    always ordered by partition index, and :meth:`SweepReport.digest`
    is equal between serial and parallel runs.

    *ranker_factory* must be picklable by reference (a module-level
    class or function, e.g. :class:`MinHashLSHRanker`) so it can cross
    the process boundary.
    """
    if partitions <= 0:
        raise ValueError("partitions must be positive")
    t0 = time.perf_counter()
    text = print_module(module)
    snapshot_time = time.perf_counter() - t0
    payloads = [
        (text, partitions, index, ranker_factory, config)
        for index in range(partitions)
    ]
    if workers is None:
        workers = min(partitions, os.cpu_count() or 1)
    workers = max(1, min(workers, partitions))
    t0 = time.perf_counter()
    if workers == 1:
        results = [_sweep_worker(p) for p in payloads]
    else:
        # Fork keeps worker start cheap and inherits the warm import
        # state; fall back to the platform default where unavailable.
        if "fork" in multiprocessing.get_all_start_methods():
            ctx = multiprocessing.get_context("fork")
        else:  # pragma: no cover - non-POSIX platforms
            ctx = multiprocessing.get_context()
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            # executor.map preserves submission order, so results come
            # back sorted by partition index no matter who finished first.
            results = list(pool.map(_sweep_worker, payloads))
    total_time = time.perf_counter() - t0
    return SweepReport(
        partitions=partitions,
        results=results,
        snapshot_time=snapshot_time,
        total_time=total_time,
        workers=workers,
    )


def optimistic_sweep(
    module: Module,
    partitions: int,
    ranker_factory: Callable[[], Ranker] = MinHashLSHRanker,
    config: PassConfig = PassConfig(verify=False),
    workers: Optional[int] = None,
    faults: Optional[FaultInjector] = None,
) -> SweepReport:
    """Two-phase optimistic cross-partition merging (mutates *module*).

    Phase 1 runs :func:`partition_sweep` unchanged — partition-local
    decisions computed in parallel against a text snapshot — and replays
    every committed decision onto the live module through the
    transactional pipeline, *retaining* each commit's undo snapshot.
    Phase 2 re-ranks the surviving fingerprints (unmerged originals,
    merged winners, and the originals optimistic merges consumed)
    through one global ranker from *ranker_factory*, then attempts the
    cross-partition pairs the partition-local sweep had to forgo.  When
    a cross-partition pair conflicts with an already-committed
    optimistic merge, the lower-benefit side is rolled back
    bit-identically and the better global pair wins (see
    :mod:`repro.merge.reconcile`).

    Decisions are deterministic across worker counts: phase 1 is
    serial≡parallel by construction and both the replay and the
    reconciliation are serial walks in canonical order.  The returned
    report is the phase-1 :class:`SweepReport` with
    :attr:`SweepReport.reconcile` filled in; *faults* (a ``reconcile``
    stage injector) is threaded into every phase-2 attempt, which
    contains the failure per pair like any pipeline fault.
    """
    partition_of: Dict[str, int] = {}
    for index, group in enumerate(partition_functions(module, partitions)):
        for func in group:
            partition_of[func.name] = index
    report = partition_sweep(
        module, partitions, ranker_factory, config, workers=workers
    )
    report.reconcile = run_optimistic_phases(
        module,
        report.results,
        partitions,
        partition_of,
        ranker_factory,
        config,
        faults=faults,
    )
    return report
