"""Persistent incremental fingerprint database with snapshot-isolated reads.

The daemon's state is one long-lived *corpus* :class:`~repro.ir.module.Module`
plus a :class:`CorpusSnapshot` — an immutable (by convention) bundle of the
corpus version, a name-keyed LSH index and per-function bookkeeping —
published by a single atomic reference swap.  Readers (``query``) grab the
current snapshot once and never lock; the writer (``submit``) clones the
index copy-on-write (:meth:`~repro.search.lsh.LSHIndex.clone`), mutates the
clone and the corpus module under a :class:`~repro.merge.transaction
.MergeTransaction`, and publishes the new snapshot only after everything
succeeded.  Every body the delta replaces, demotes or erases is moved into
the transaction's journal rather than dropped, so a failure anywhere
mid-commit — including an injected ``serve_commit`` fault — replays the
journal, rolling the corpus module back byte-identically, and discards the
clone: concurrent and subsequent readers only ever observe the
pre-request or post-request state, never a half-commit.

Hot state that outlives any request:

* the content-addressed :class:`~repro.fingerprint.cache.FingerprintCache`
  (optionally warmed from / spilled to a
  :class:`~repro.fingerprint.store.FingerprintStore`),
* one shared :class:`~repro.alignment.batch.BatchAlignmentEngine` whose
  alignment-decision and merge-plan caches are content-addressed and
  therefore safe across requests,
* an LRU of whole merged-module results keyed by request-text digest.

Merge requests run the exact same pipeline as one-shot ``repro merge -s
f3m`` (same static MinHash parameters, same :class:`PassConfig` defaults);
the caches are content-addressed and decision-transparent, which is what
makes the daemon's merge decisions bit-identical to the one-shot CLI.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..alignment.batch import BatchAlignmentEngine
from ..faults import FaultInjector
from ..fingerprint.batch import minhash_module
from ..fingerprint.cache import FingerprintCache
from ..fingerprint.minhash import MinHashConfig
from ..fingerprint.store import FingerprintStore
from ..ir.clone import clone_function_into
from ..ir.function import Function
from ..ir.module import Module
from ..ir.parser import parse_module
from ..ir.printer import print_module
from ..ir.verifier import verify_module
from ..merge.pass_ import FunctionMergingPass
from ..merge.transaction import MergeTransaction
from ..search.lsh import LSHIndex, LSHQueryStats
from ..search.pairing import MinHashLSHRanker
from .config import ServeConfig

__all__ = ["CorpusEntry", "CorpusSnapshot", "DeltaError", "FingerprintDatabase"]


class DeltaError(ValueError):
    """A client mistake (bad delta, unknown name, malformed probe).

    Raised *before* any corpus mutation whenever possible; when raised
    mid-commit the transaction rollback guarantees the corpus is back in
    its pre-request state.  The daemon maps it to an ``ok: false``
    response and keeps serving.
    """


@dataclass(frozen=True)
class CorpusEntry:
    """Bookkeeping for one corpus function.

    ``version`` is the corpus version whose commit last (re)defined the
    function; ``touched`` is a database-wide monotonic counter giving the
    LRU eviction order.
    """

    name: str
    instructions: int
    version: int
    touched: int


@dataclass(frozen=True)
class CorpusSnapshot:
    """One published corpus state: treat every field as immutable.

    ``index`` is keyed by function *name* (names are the stable identity
    across incremental updates; function objects are not).  The writer
    never mutates a published snapshot's index — it clones it — so readers
    holding this snapshot are isolated from in-flight commits.
    """

    version: int
    index: LSHIndex
    entries: Dict[str, CorpusEntry] = field(default_factory=dict)


class FingerprintDatabase:
    """The daemon's corpus: incremental submits, snapshot-isolated queries,
    and a merge pipeline whose caches stay hot across requests."""

    #: LSH geometry shared with the one-shot ``f3m`` ranker defaults
    #: (rows=2, bands=k/rows, bucket_cap=100) — decision identity depends
    #: on the daemon index probing exactly the same buckets.
    _ROWS = 2
    _BUCKET_CAP = 100

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.faults = faults
        self.module = Module("corpus")
        self.minhash_config = MinHashConfig()
        self.fingerprints = FingerprintCache(
            maxsize=self.config.fingerprint_cache_size
        )
        self.engine = BatchAlignmentEngine(strategy=self.config.alignment)
        self._snapshot = CorpusSnapshot(version=0, index=self._new_index())
        # Writers serialize on _write_lock; merge requests serialize on
        # _merge_lock (the corpus module and alignment engine are not
        # reentrant); readers take no lock at all.
        self._write_lock = threading.RLock()
        self._merge_lock = threading.RLock()
        self._results_lock = threading.Lock()
        self._results: "OrderedDict[str, Dict[str, object]]" = OrderedDict()
        self.result_hits = 0
        self.result_misses = 0
        self.result_evictions = 0
        self.commits = 0
        self.rollbacks = 0
        self.evicted_functions = 0
        self._touch = 0
        self._dump_cache: Optional[Tuple[int, str]] = None
        if self.config.store_dir and os.path.exists(
            os.path.join(self.config.store_dir, "header.json")
        ):
            store = FingerprintStore.open(self.config.store_dir)
            self.fingerprints.load_from_store(store)

    # -- snapshot plumbing -------------------------------------------------------------
    @property
    def snapshot(self) -> CorpusSnapshot:
        """The current published snapshot (one atomic reference read)."""
        return self._snapshot

    @property
    def version(self) -> int:
        return self._snapshot.version

    def _new_index(self) -> LSHIndex:
        return LSHIndex(
            rows=self._ROWS,
            bands=self.minhash_config.k // self._ROWS,
            bucket_cap=self._BUCKET_CAP,
            compact_ratio=self.config.compact_ratio,
        )

    # -- submit (the write path) -------------------------------------------------------
    def apply_delta(
        self,
        module_text: Optional[str] = None,
        removed: Optional[Sequence[str]] = None,
    ) -> Dict[str, object]:
        """Apply one delta: upsert the functions defined in *module_text*,
        drop the names in *removed*, publish a new snapshot.

        All-or-nothing: on any failure the corpus module is rolled back,
        the cloned index is discarded, and the previous snapshot stays
        published.
        """
        with self._write_lock:
            snap = self._snapshot
            removed_names = list(removed or [])
            if len(set(removed_names)) != len(removed_names):
                raise DeltaError("duplicate name in removed list")

            delta = (
                parse_module(module_text, name="delta")
                if module_text
                else Module("delta")
            )
            verify_module(delta)
            defined = delta.defined_functions()
            defined_names = {f.name for f in defined}
            if len(defined_names) != len(defined):
                raise DeltaError("duplicate function name in delta module")
            for name in removed_names:
                if name in defined_names:
                    raise DeltaError(
                        f"function {name!r} both defined and removed"
                    )
                if name not in snap.entries:
                    raise DeltaError(f"cannot remove unknown function {name!r}")

            added = sorted(n for n in defined_names if n not in snap.entries)
            changed = sorted(n for n in defined_names if n in snap.entries)

            # The transaction's baseline is the pre-request corpus: rollback
            # restores captured bodies and erases any function created below.
            txn = MergeTransaction(self.module)
            try:
                result = self._commit_delta(
                    snap, txn, delta, defined, removed_names, added, changed
                )
            except BaseException:
                captured = txn.captured_functions()
                txn.rollback()
                self.rollbacks += 1
                for func in captured:
                    self.engine.invalidate_function(func)
                raise
            captured = txn.captured_functions()
            txn.commit()
            self.commits += 1
            self._dump_cache = None
            # Captured functions had their bodies replaced in place: any
            # alignment memo keyed by their old blocks is stale.
            for func in captured:
                self.engine.invalidate_function(func)
            return result

    def _commit_delta(
        self,
        snap: CorpusSnapshot,
        txn: MergeTransaction,
        delta: Module,
        defined: List[Function],
        removed_names: List[str],
        added: List[str],
        changed: List[str],
    ) -> Dict[str, object]:
        corpus = self.module
        # Adoption pass: every delta function (definitions *and*
        # declarations) gets a corpus counterpart, and the value map sends
        # delta functions to counterparts so cloned call operands resolve
        # to corpus identities.
        vmap: Dict[int, Function] = {}
        for func in delta.functions:
            counterpart = corpus.get_function(func.name)
            if counterpart is None:
                if func.is_declaration:
                    counterpart = corpus.declare_function(func.ftype, func.name)
                else:
                    counterpart = Function(func.ftype, func.name, parent=corpus)
            elif counterpart.ftype is not func.ftype:
                raise DeltaError(
                    f"function {func.name!r} redefined with a different type"
                )
            vmap[id(func)] = counterpart

        # Clone new bodies in.  Changed functions keep their identity (the
        # corpus Function object survives, so existing call sites stay
        # valid); only their body is replaced.  The journal keeps the old
        # body (empty for a declaration the delta defines), its linkage and
        # argument names.
        for func in defined:
            dest = vmap[id(func)]
            txn.journal.detach_body(dest)
            for src_arg, dst_arg in zip(func.args, dest.args):
                dst_arg.name = src_arg.name
            clone_function_into(func, dest, vmap)
            dest.internal = func.internal

        # Removals after upserts so caller checks see the post-delta graph:
        # a still-referenced function demotes to a declaration, an
        # unreferenced one is erased outright.
        for name in removed_names:
            self._drop(corpus.get_function(name), txn)

        # Fingerprints flow through the shared content-addressed cache —
        # an unchanged body re-submitted later is a pure cache hit.
        upserts = [vmap[id(func)] for func in defined]
        fps = minhash_module(upserts, self.minhash_config, cache=self.fingerprints)

        # Copy-on-write index update against the published snapshot.
        index = snap.index.clone()
        for name in removed_names:
            index.remove(name)
        for name in changed:
            index.remove(name)
        if self.faults is not None:
            # Mid-commit crash point: corpus mutated, index half-updated.
            self.faults.hit("serve_commit")
        index.insert_batch([func.name for func in upserts], fps)

        version = snap.version + 1
        entries = dict(snap.entries)
        for name in removed_names:
            del entries[name]
        for func in upserts:
            self._touch += 1
            entries[func.name] = CorpusEntry(
                name=func.name,
                instructions=func.num_instructions,
                version=version,
                touched=self._touch,
            )

        evicted = self._evict(entries, index, txn)

        # Publish: a single reference swap, after which new readers see the
        # post-commit state and in-flight readers keep the old snapshot.
        self._snapshot = CorpusSnapshot(
            version=version, index=index, entries=entries
        )
        return {
            "version": version,
            "added": added,
            "changed": changed,
            "removed": list(removed_names),
            "evicted": evicted,
            "functions": len(entries),
        }

    @staticmethod
    def _drop(func: Function, txn: MergeTransaction) -> None:
        """Take *func* out of the corpus through the transaction's journal:
        a still-referenced function demotes to a declaration, an
        unreferenced one is erased."""
        if func.callers():
            txn.journal.detach_body(func)
            func.internal = False
        else:
            txn.journal.erase(func)

    def _evict(
        self,
        entries: Dict[str, CorpusEntry],
        index: LSHIndex,
        txn: MergeTransaction,
    ) -> List[str]:
        """LRU-evict down to ``max_functions`` (freshly upserted functions
        hold the newest touch stamps, so they are never victims)."""
        cap = self.config.max_functions
        if cap is None or len(entries) <= cap:
            return []
        victims = sorted(entries.values(), key=lambda e: e.touched)
        victims = victims[: len(entries) - cap]
        evicted: List[str] = []
        for entry in victims:
            self._drop(self.module.get_function(entry.name), txn)
            index.remove(entry.name)
            del entries[entry.name]
            evicted.append(entry.name)
        self.evicted_functions += len(evicted)
        return evicted

    # -- query (the lock-free read path) -----------------------------------------------
    def query(
        self,
        name: Optional[str] = None,
        text: Optional[str] = None,
        limit: int = 10,
    ) -> Dict[str, object]:
        """Best-match candidates against the current snapshot.

        Either *name* (a resident corpus function) or *text* (an IR module
        defining exactly one probe function, fingerprinted through the
        shared cache but never inserted).  Entirely lock-free: the snapshot
        reference is read once, so a concurrent commit cannot tear the
        result.
        """
        if (name is None) == (text is None):
            raise DeltaError("query needs exactly one of 'name' or 'text'")
        snap = self._snapshot
        stats = LSHQueryStats()
        if name is not None:
            if name not in snap.entries:
                raise DeltaError(f"unknown function {name!r}")
            matches = snap.index.query(name, stats)
        else:
            probe_mod = parse_module(text, name="probe")
            verify_module(probe_mod)
            probes = probe_mod.defined_functions()
            if len(probes) != 1:
                raise DeltaError(
                    "probe text must define exactly one function, "
                    f"got {len(probes)}"
                )
            fp = minhash_module(
                probes, self.minhash_config, cache=self.fingerprints
            )[0]
            matches = snap.index.probe(fp, stats)
        matches.sort(key=lambda kv: (-kv[1], kv[0]))
        if limit is not None:
            matches = matches[:limit]
        return {
            "version": snap.version,
            "matches": [
                {"name": key, "similarity": sim} for key, sim in matches
            ],
            "buckets_probed": stats.buckets_probed,
            "candidates": stats.candidates_seen,
        }

    def best_match(self, name: str) -> Optional[Tuple[str, float]]:
        """Single nearest neighbour of a resident function (test hook —
        the serial-identity harness compares this against a replayed
        plain index)."""
        snap = self._snapshot
        if name not in snap.entries:
            raise DeltaError(f"unknown function {name!r}")
        return snap.index.best_match(name)

    # -- merge (the hot pipeline) ------------------------------------------------------
    def merge_text(
        self, module_text: str, use_result_cache: bool = True
    ) -> Dict[str, object]:
        """Run the one-shot-identical merge pipeline over *module_text*.

        Steady-state repeats hit the whole-result LRU (keyed by request
        digest); ``use_result_cache=False`` exercises the pipeline-warm
        path where only the content-addressed fingerprint/alignment/plan
        caches help.
        """
        digest = hashlib.sha256(module_text.encode("utf-8")).hexdigest()
        if use_result_cache:
            with self._results_lock:
                cached = self._results.get(digest)
                if cached is not None:
                    self._results.move_to_end(digest)
                    self.result_hits += 1
                    hit = dict(cached)
                    hit["cached"] = True
                    return hit
                self.result_misses += 1

        module = parse_module(module_text, name="request")
        verify_module(module)
        with self._merge_lock:
            before = list(module.functions)
            ranker = MinHashLSHRanker(cache=self.fingerprints)
            pass_ = FunctionMergingPass(
                ranker, self.config.pass_config(), alignment_engine=self.engine
            )
            report = pass_.run(module)
            merged_text = print_module(module)
            # The request module dies with this call; purge every memo
            # keyed by its object ids *while still holding references*, or
            # a later request could alias recycled ids into stale memos.
            keep_alive = {id(f): f for f in before}
            for func in module.functions:
                keep_alive.setdefault(id(func), func)
            for func in keep_alive.values():
                self.engine.invalidate_function(func)

        result: Dict[str, object] = {
            "module": merged_text,
            "strategy": report.strategy,
            "functions": report.num_functions,
            "merges": report.merges,
            "comparisons": report.comparisons,
            "size_before": report.size_before,
            "size_after": report.size_after,
            "outcomes": {
                k: v for k, v in report.outcome_counts().items() if v
            },
            "cached": False,
        }
        if use_result_cache:
            with self._results_lock:
                self._results[digest] = dict(result)
                while len(self._results) > self.config.result_cache_size:
                    self._results.popitem(last=False)
                    self.result_evictions += 1
        return result

    def merge_corpus(self, use_result_cache: bool = True) -> Dict[str, object]:
        """Merge the whole resident corpus.

        Runs on a private reparse of the corpus text so the resident
        module (and every published snapshot) stays untouched — merging is
        a *read* of the corpus, not a mutation of it.
        """
        return self.merge_text(self.dump(), use_result_cache=use_result_cache)

    # -- maintenance -------------------------------------------------------------------
    def dump(self) -> str:
        """The corpus as IR text (cached per version)."""
        with self._write_lock:
            snap = self._snapshot
            if self._dump_cache is not None and self._dump_cache[0] == snap.version:
                return self._dump_cache[1]
            text = print_module(self.module)
            self._dump_cache = (snap.version, text)
            return text

    def compact(self) -> Dict[str, int]:
        """Force an index compaction, published as a fresh snapshot (same
        version — compaction is invisible to query semantics)."""
        with self._write_lock:
            snap = self._snapshot
            index = snap.index.clone()
            index.compact()
            self._snapshot = CorpusSnapshot(
                version=snap.version, index=index, entries=snap.entries
            )
            return index.index_stats()

    def flush(self, directory: Optional[str] = None) -> Dict[str, object]:
        """Spill the fingerprint cache to a :class:`FingerprintStore`."""
        directory = directory or self.config.store_dir
        if not directory:
            raise DeltaError("no fingerprint store directory configured")
        if os.path.exists(os.path.join(directory, "header.json")):
            store = FingerprintStore.open(directory)
        else:
            store = FingerprintStore.create(
                directory, self.minhash_config, store_encoded=False
            )
        spilled = self.fingerprints.spill_to_store(store)
        return {"directory": directory, "spilled": spilled}

    def cache_counters(self) -> Dict[str, int]:
        """Every cache counter, flattened — the daemon diffs this around
        each request to report per-request hit/miss/eviction deltas."""
        fp = self.fingerprints.stats
        align = self.engine.cache.stats
        plans = self.engine.plans.stats
        return {
            "fingerprint_hits": fp.hits,
            "fingerprint_misses": fp.misses,
            "fingerprint_evictions": fp.evictions,
            "fingerprint_disk_loaded": fp.disk_entries_loaded,
            "fingerprint_disk_skipped_version": fp.disk_files_skipped_version,
            "fingerprint_disk_skipped_invalid": fp.disk_files_skipped_invalid,
            "alignment_hits": align.hits,
            "alignment_misses": align.misses,
            "alignment_evictions": align.evictions,
            "plan_hits": plans.hits,
            "plan_misses": plans.misses,
            "plan_evictions": plans.evictions,
            "result_hits": self.result_hits,
            "result_misses": self.result_misses,
            "result_evictions": self.result_evictions,
        }

    def stats(self) -> Dict[str, object]:
        """Corpus, index and cache counters (the ``stats`` op)."""
        snap = self._snapshot
        return {
            "version": snap.version,
            "functions": len(snap.entries),
            "commits": self.commits,
            "rollbacks": self.rollbacks,
            "evicted_functions": self.evicted_functions,
            "index": snap.index.index_stats(),
            "caches": self.cache_counters(),
            "config": self.config.to_dict(),
        }
