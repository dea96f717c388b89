"""Phase-2 reconciliation for optimistic cross-partition merging.

Partition-local merging (:func:`repro.merge.partitioned.partitioned_merging`)
silently forgoes every pair spanning a partition boundary.  The Optimistic
Global Function Merger idea (Lee/Ren/Hoag, PAPERS.md) recovers that
coverage in two phases:

* **Phase 1 (optimistic)** — the partition passes run in place on the
  live module.  Each commit runs inside a :class:`RetainingTransaction`
  whose ``commit()`` keeps the journal of what the commit changed (the
  replaced call sites, the originals' bodies moved aside, the table
  order), so phase 2 can later undo any optimistic merge bit-identically
  by replaying it backwards.
  The driver pairs each partition's merged attempts with its committed
  transactions into :class:`RetainedMerge` entries.

* **Phase 2 (reconcile)** — the surviving fingerprints of every
  partition (unmerged originals, merged winners, and the originals
  consumed by optimistic merges) are re-ranked through one *global* LSH
  index.  Pairs whose members live in different partitions are attempted
  greedily, best-similarity first, through the same gated pipeline
  (bound → align → codegen → verify → static/validate/oracle → commit).
  When a cross-partition pair needs a function an optimistic merge
  already consumed, the conflict is resolved by *benefit*: the
  optimistic merge is rolled back (its journal replayed onto the same
  ``Function`` objects, the merged function erased, the function-table
  order reconstructed), the cross-partition merge is attempted, and the
  lower-benefit side loses — if the cross-partition saving does not beat
  the sum of the undone optimistic savings, the cross merge is itself
  undone and the optimistic merges are re-applied, reproducing the
  phase-1 state exactly.

Rolling back an optimistic merge after *later* commits touched the same
functions would clobber those commits, so every commit — phase 1's
included — logs the function names it touched and an **overlap guard**
refuses (deterministically) to undo a merge whose capture set intersects
any later commit's; such candidates are counted as ``conflicts_skipped``
and the optimistic merges stand.

Determinism: phase 1 is a serial walk over the partitions, and phase 2
ranks and attempts in a canonical order — so two runs over the same
module produce identical :attr:`ReconcileReport.decisions`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..alignment.batch import BatchAlignmentEngine
from ..analysis.size import module_size
from ..faults import FaultInjector
from ..ir.function import Function
from ..ir.module import Module
from ..obs import trace
from ..search.pairing import Match, Ranker, RankingStats
from .pass_ import FunctionMergingPass, PassConfig
from .report import Outcome
from .thunks import thunk_target
from .transaction import Journal, MergeTransaction

__all__ = [
    "FixedPairRanker",
    "ReconcileReport",
    "RetainedMerge",
    "RetainingTransaction",
    "run_reconcile_phase",
]


class RetainingTransaction(MergeTransaction):
    """A merge transaction whose commit keeps its journal.

    ``commit()`` closes the transaction like the base class but keeps the
    journal, with the pre-merge function-table order recorded, as
    :attr:`retained`, so the reconciliation pass can undo the committed
    merge later.  ``rollback()`` is inherited unchanged — a failed
    attempt leaves nothing retained.
    """

    def __init__(self, module: Module) -> None:
        super().__init__(module)
        self.retained: Optional[Journal] = None

    def commit(self) -> None:
        self.journal.record_order()
        self.retained = self.journal
        super().commit()


@dataclass
class RetainedMerge:
    """One committed merge whose pre-state is still restorable.

    ``seq`` orders commits; the overlap guard compares capture sets of
    later commits against :attr:`touched_names` before allowing
    :meth:`undo`.  ``saving`` is the modelled byte saving the
    profitability model credited to this merge — the currency conflict
    resolution trades in.
    """

    seq: int
    partition: int
    function_a: str
    function_b: str
    merged_name: str
    saving: int
    # The committing transaction's retained journal.
    journal: Journal
    undone: bool = False

    @property
    def touched_names(self) -> Set[str]:
        names = self.journal.touched_names()
        names.add(self.merged_name)
        return names

    def undo(self, module: Module) -> List[Function]:
        """Restore the module to its pre-merge state; returns the live
        functions whose bodies were restored (for memo invalidation).

        Only safe when no later commit touched :attr:`touched_names` —
        the caller enforces that via the overlap guard.  Replays the
        journal backwards onto the *same* ``Function`` objects, erases
        the merged function this commit created, and rebuilds the
        function-table order as if the merge never ran
        (:meth:`Journal.undo`).
        """
        if self.undone:
            return []
        restored = self.journal.undo(module, self.merged_name)
        self.undone = True
        trace.event("reconcile_undo", merged=self.merged_name, saving=self.saving)
        return restored


class FixedPairRanker(Ranker):
    """A ranker that proposes exactly the pair the driver prescribes.

    The reconcile driver already knows which two functions an attempt
    concerns; routing the pair through this ranker lets it reuse
    ``FunctionMergingPass`` — every stage, gate, timing bucket and
    containment path — without a search index.  ``fault_stage`` (set to
    ``"reconcile"`` during phase 2) fires the injector *inside* the
    pass's guarded rank stage, so an injected reconcile fault is
    contained per attempt exactly like any pipeline fault.
    """

    name = "reconcile"

    def __init__(self) -> None:
        self._target: Optional[Match] = None
        self._stats = RankingStats()
        self.fault_stage: Optional[str] = None

    def set(self, other: Function, similarity: float) -> None:
        self._target = Match(other, similarity)

    def preprocess(self, functions: List[Function]) -> None:  # pragma: no cover
        pass

    def insert(self, func: Function) -> None:
        pass

    def best_match(self, func: Function) -> Optional[Match]:
        if self.fault_stage is not None:
            self._fault_hit(self.fault_stage)
        self._stats.queries += 1
        return self._target

    def remove(self, func: Function) -> None:
        pass

    def similarity(self, a: Function, b: Function) -> float:
        return self._target.similarity if self._target else 0.0

    @property
    def stats(self) -> RankingStats:
        return self._stats


@dataclass
class ReconcileReport:
    """What the reconciliation phase did.

    ``decisions`` is the canonical record — one tuple per phase-2
    attempt, ``(function, candidate, similarity, outcome, action,
    saving)`` — folded into
    :meth:`~repro.merge.partitioned.PartitionedMergeReport.digest` so
    determinism across runs stays bit-checkable.
    """

    partitions: int
    # Phase-2 candidate discovery and attempts.
    cross_candidates: int = 0
    attempted: int = 0
    recovered_pairs: int = 0
    recovered_saving: int = 0
    # Conflict resolution against already-committed optimistic merges.
    conflicts_considered: int = 0
    conflicts_resolved: int = 0
    conflicts_skipped: int = 0
    rollbacks: int = 0
    reapplied: int = 0
    reapply_failures: int = 0
    # Module sizes: after phase 1 (the partition-local baseline) and
    # after reconciliation.
    size_phase1: int = 0
    size_after: int = 0
    decisions: List[Tuple[str, str, float, str, str, int]] = field(
        default_factory=list
    )

    @property
    def recovered_size_delta(self) -> int:
        """Bytes the reconcile pass removed beyond the phase-1 result."""
        return self.size_phase1 - self.size_after


class _OptimisticDriver:
    """Shared state of the reconcile phase on one module.

    The commit log starts with phase 1's retained merges, so the overlap
    guard sees every commit, not only phase 2's.
    """

    def __init__(
        self,
        module: Module,
        config: PassConfig,
        retained: List[RetainedMerge],
        engine: BatchAlignmentEngine,
        faults: Optional[FaultInjector],
    ) -> None:
        self.module = module
        self.config = config
        self.ranker = FixedPairRanker()
        self._txns: List[RetainingTransaction] = []

        def factory(mod: Module) -> RetainingTransaction:
            txn = RetainingTransaction(mod)
            self._txns.append(txn)
            return txn

        self.pass_ = FunctionMergingPass(
            self.ranker,
            config,
            faults=faults,
            alignment_engine=engine,
            transaction_factory=factory,
        )
        self.seq = max((r.seq for r in retained), default=0)
        self.consumed_ids: Set[int] = set()
        # Commit log for the overlap guard: (seq, names touched).
        self.log: List[Tuple[int, Set[str]]] = [
            (r.seq, r.touched_names) for r in retained
        ]

    def attempt(self, func: Function, other: Function, similarity: float):
        """One transactional pipeline trip for the prescribed pair.

        Returns ``(record, retained_or_None)``; a retained entry means
        the attempt committed and is undoable.
        """
        self.ranker.set(other, similarity)
        self._txns.clear()
        record, _merged = self.pass_._attempt(
            self.module, func, self.consumed_ids, threshold=0.0
        )
        retained = None
        if record.outcome == Outcome.MERGED:
            txn = self._txns[-1]
            self.seq += 1
            retained = RetainedMerge(
                seq=self.seq,
                partition=-1,
                function_a=func.name,
                function_b=other.name,
                merged_name=record.merged_name,
                saving=record.saving,
                journal=txn.retained,
            )
            self.log.append((retained.seq, retained.touched_names))
        return record, retained

    def undo_is_safe(self, retained: RetainedMerge) -> bool:
        touched = retained.touched_names
        return not any(
            seq > retained.seq and touched & names for seq, names in self.log
        )

    def undo(self, retained: RetainedMerge) -> None:
        restored = retained.undo(self.module)
        self.pass_._invalidate(restored)


@dataclass
class _PoolEntry:
    """One fingerprintable survivor in the phase-2 global ranking."""

    name: str  # parent-module name the attempt resolves at runtime
    partition: int
    proxy: Function  # live function, or a view of a pre-merge body
    retained: Optional[RetainedMerge] = None  # set for consumed originals


def _survivor_pool(
    module: Module,
    config: PassConfig,
    partition_of: Dict[str, int],
    retained_merges: List[RetainedMerge],
) -> List[_PoolEntry]:
    """Collect the fingerprints phase 2 re-ranks globally.

    Three populations: unmerged originals still live in the module,
    merged winners (ranked by their merged bodies), and the originals
    each optimistic merge consumed (ranked by their *pre-merge* bodies,
    read from the journal, so a better cross-partition partner can still
    claim them).
    """
    merged_partition = {r.merged_name: r.partition for r in retained_merges}
    pool: List[_PoolEntry] = []
    for func in module.defined_functions():
        if func.num_instructions < config.min_instructions:
            continue
        if thunk_target(func) is not None:
            continue
        partition = merged_partition.get(func.name, partition_of.get(func.name))
        if partition is None:
            continue
        pool.append(_PoolEntry(func.name, partition, func))
    for retained in retained_merges:
        for original in (retained.function_a, retained.function_b):
            body = retained.journal.pre_merge_body(original)
            if body is None:  # pragma: no cover - a commit moves both bodies
                continue
            if body.num_instructions < config.min_instructions:
                continue
            pool.append(_PoolEntry(original, retained.partition, body, retained))
    return pool


def _rank_cross_candidates(
    pool: List[_PoolEntry],
    ranker_factory: Callable[[], Ranker],
    config: PassConfig,
) -> List[Tuple[float, _PoolEntry, _PoolEntry]]:
    """Globally re-rank the pool; keep pairs spanning partitions.

    One query per pool entry through the factory ranker (the same
    ranker and LSH index the pass uses), deduplicated per unordered
    name pair, ordered best-similarity-first with a name tiebreak so the
    greedy phase is deterministic.
    """
    ranker = ranker_factory()
    ranker.preprocess([entry.proxy for entry in pool])
    threshold = max(config.threshold, getattr(ranker, "threshold", 0.0))
    by_proxy_id = {id(entry.proxy): entry for entry in pool}
    seen: Set[Tuple[str, str]] = set()
    candidates: List[Tuple[float, _PoolEntry, _PoolEntry]] = []
    for entry in pool:
        match = ranker.best_match(entry.proxy)
        if match is None or match.similarity < threshold:
            continue
        other = by_proxy_id.get(id(match.function))
        if other is None or other.partition == entry.partition:
            continue
        if other.name == entry.name:
            continue
        key = (
            (entry.name, other.name)
            if entry.name < other.name
            else (other.name, entry.name)
        )
        if key in seen:
            continue
        seen.add(key)
        candidates.append((match.similarity, entry, other))
    candidates.sort(key=lambda c: (-c[0], c[1].name, c[2].name))
    return candidates


def _reconcile_phase(
    driver: _OptimisticDriver,
    pool_candidates: List[Tuple[float, _PoolEntry, _PoolEntry]],
    report: ReconcileReport,
) -> None:
    """Greedy cross-partition attempts with benefit-ranked conflicts."""
    module = driver.module
    consumed_names: Set[str] = set()
    for similarity, entry_a, entry_b in pool_candidates:
        if entry_a.name in consumed_names or entry_b.name in consumed_names:
            continue
        # An entry whose optimistic merge a *previous* candidate already
        # rolled back is live now; drop the stale conflict edge.
        conflicts = [
            entry.retained
            for entry in (entry_a, entry_b)
            if entry.retained is not None and not entry.retained.undone
        ]
        if any(c.merged_name in consumed_names for c in conflicts):
            continue
        report.attempted += 1
        if conflicts:
            report.conflicts_considered += 1
            if not all(driver.undo_is_safe(c) for c in conflicts):
                report.conflicts_skipped += 1
                report.decisions.append(
                    (entry_a.name, entry_b.name, similarity, "skipped", "overlap", 0)
                )
                continue
            local_saving = sum(c.saving for c in conflicts)
            for conflict in sorted(conflicts, key=lambda c: -c.seq):
                driver.undo(conflict)
                report.rollbacks += 1
        func = module.get_function(entry_a.name)
        other = module.get_function(entry_b.name)
        if func is None or other is None:  # pragma: no cover - defensive
            record, retained = None, None
        else:
            record, retained = driver.attempt(func, other, similarity)
        if not conflicts:
            if retained is not None:
                report.recovered_pairs += 1
                report.recovered_saving += retained.saving
                consumed_names.update((entry_a.name, entry_b.name))
                report.decisions.append(
                    (
                        entry_a.name,
                        entry_b.name,
                        similarity,
                        "merged",
                        "recovered",
                        retained.saving,
                    )
                )
            else:
                outcome = str(record.outcome) if record is not None else "missing"
                report.decisions.append(
                    (entry_a.name, entry_b.name, similarity, outcome, "rejected", 0)
                )
            continue
        # Conflict resolution: the cross-partition merge must beat the
        # sum of the optimistic merges it displaced, else phase 1 wins.
        if retained is not None and retained.saving > local_saving:
            report.conflicts_resolved += 1
            report.recovered_pairs += 1
            report.recovered_saving += retained.saving - local_saving
            consumed_names.update((entry_a.name, entry_b.name))
            for conflict in conflicts:
                consumed_names.add(conflict.merged_name)
            report.decisions.append(
                (
                    entry_a.name,
                    entry_b.name,
                    similarity,
                    "merged",
                    "conflict_won",
                    retained.saving - local_saving,
                )
            )
            continue
        # The optimistic merges keep their win: undo the cross merge (if
        # it committed) and re-apply phase 1's decisions, reproducing the
        # phase-1 bodies exactly (same inputs, same deterministic merge).
        # Re-applies are restorative, not cross-partition attempts, so
        # the ``reconcile`` fault point is off for them — an injected
        # fault must leave the module at the phase-1 result, which
        # requires the re-apply after a faulted conflict attempt to run.
        if retained is not None:
            report.rollbacks += 1
            driver.undo(retained)
        driver.ranker.fault_stage = None
        for conflict in sorted(conflicts, key=lambda c: c.seq):
            fa = module.get_function(conflict.function_a)
            fb = module.get_function(conflict.function_b)
            redo, redone = (None, None)
            if fa is not None and fb is not None:
                redo, redone = driver.attempt(fa, fb, similarity)
            if redone is None:  # pragma: no cover - deterministic re-merge
                report.reapply_failures += 1
                continue
            redone.partition = conflict.partition
            conflict.journal = redone.journal
            conflict.seq = redone.seq
            conflict.merged_name = redone.merged_name
            conflict.saving = redone.saving
            conflict.undone = False
            report.reapplied += 1
        driver.ranker.fault_stage = "reconcile"
        outcome = str(record.outcome) if record is not None else "missing"
        report.decisions.append(
            (entry_a.name, entry_b.name, similarity, outcome, "conflict_kept", 0)
        )


def run_reconcile_phase(
    module: Module,
    partitions: int,
    partition_of: Dict[str, int],
    retained_merges: List[RetainedMerge],
    ranker_factory: Callable[[], Ranker],
    config: PassConfig,
    engine: BatchAlignmentEngine,
    faults: Optional[FaultInjector],
) -> ReconcileReport:
    """Reconcile across partitions after phase 1 left *module* with
    *retained_merges* committed.  Mutates *module*; *partition_of* maps
    each original function name to its partition."""
    report = ReconcileReport(partitions=partitions, size_phase1=module_size(module))
    driver = _OptimisticDriver(module, config, retained_merges, engine, faults)
    pool = _survivor_pool(module, config, partition_of, retained_merges)
    driver.ranker.fault_stage = "reconcile"
    candidates = _rank_cross_candidates(pool, ranker_factory, config)
    report.cross_candidates = len(candidates)
    _reconcile_phase(driver, candidates, report)
    report.size_after = module_size(module)
    return report
