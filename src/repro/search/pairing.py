"""Candidate-pair selection strategies ("ranking" in the paper's terms).

Two interchangeable rankers drive the merging pass:

* :class:`ExhaustiveRanker` — HyFM's quadratic nearest-neighbour search over
  opcode-frequency fingerprints (the state of the art F3M improves on).
* :class:`MinHashLSHRanker` — F3M: MinHash fingerprints searched through a
  banded LSH index, in static (fixed k/r/b/t) or adaptive configuration.
  Preprocessing runs through the batched fingerprint engine
  (:func:`repro.fingerprint.batch.minhash_module`), optionally backed by a
  content-addressed :class:`FingerprintCache` and a process pool.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional

import numpy as np

from ..fingerprint.batch import minhash_module
from ..fingerprint.cache import FingerprintCache
from ..fingerprint.minhash import MinHashConfig, MinHashFingerprint, minhash_function
from ..fingerprint.opcode_freq import OpcodeFingerprint, fingerprint_function
from ..ir.function import Function
from ..obs.stage import StageContext, stage
from .adaptive import AdaptiveParameters, adaptive_parameters
from .lsh import LSHIndex, LSHQueryStats

__all__ = [
    "Match",
    "RankingStats",
    "Ranker",
    "ExhaustiveRanker",
    "MinHashLSHRanker",
]

# ExhaustiveRanker compaction threshold, mirroring LSHIndex: rebuild when
# live rows drop below half of the stored rows (and the matrix is big
# enough for the rebuild to matter).
_COMPACT_MIN_ROWS = 64


@dataclass
class Match:
    """A proposed merge candidate for one query function."""

    function: Function
    similarity: float


@dataclass
class RankingStats:
    """Aggregate ranking work, for the stage-breakdown figures."""

    comparisons: int = 0
    queries: int = 0
    buckets_probed: int = 0
    capped_buckets: int = 0


class Ranker:
    """Interface shared by the pairing strategies."""

    #: human-readable strategy name used in reports
    name = "abstract"

    #: optional :class:`~repro.faults.FaultInjector`; the merging pass
    #: attaches its own so ranking-internal stages (``fingerprint``,
    #: ``lsh``) are injectable like the pipeline stages.
    faults = None

    #: Seconds per preprocess stage (``fingerprint``, ``index``) of the
    #: last :meth:`preprocess`; the pass copies it into its report.
    #: Rankers that do not time their set-up leave it empty.
    stage_times: Mapping[str, float] = MappingProxyType({})

    def _fault_hit(self, stage: str) -> None:
        if self.faults is not None:
            self.faults.hit(stage)

    def preprocess(self, functions: List[Function]) -> None:
        raise NotImplementedError

    def insert(self, func: Function) -> None:
        """Add a function created after preprocessing (e.g. a merged
        function re-entering the candidate pool, paper Fig. 1)."""
        raise NotImplementedError

    def best_match(self, func: Function) -> Optional[Match]:
        raise NotImplementedError

    def remove(self, func: Function) -> None:
        raise NotImplementedError

    def similarity(self, a: Function, b: Function) -> float:
        """Fingerprint similarity of two preprocessed functions."""
        raise NotImplementedError

    @property
    def stats(self) -> RankingStats:
        raise NotImplementedError


class ExhaustiveRanker(Ranker):
    """HyFM ranking: compare each function against *all* other functions.

    The nearest neighbour under Manhattan distance of opcode-frequency
    vectors is the merge candidate.  O(n²) fingerprint comparisons — the
    scaling wall shown in the paper's Figure 3.

    Removal frees the per-function bookkeeping immediately and compacts
    the distance matrix when live rows drop below half of the stored rows,
    so long remerge runs do not scan (or retain) dead rows forever.
    """

    name = "hyfm"

    def __init__(self) -> None:
        self._fingerprints: Dict[int, OpcodeFingerprint] = {}
        self._functions: List[Optional[Function]] = []
        self._index_of: Dict[int, int] = {}
        self._matrix = None  # (n, dims) opcode-count matrix
        self._live = None  # boolean mask
        self._live_count = 0
        self._stats = RankingStats()

    def preprocess(self, functions: List[Function]) -> None:
        # One stage for the whole build: the exhaustive path interleaves
        # fingerprinting and matrix growth, so there is no index split.
        clock = StageContext()
        with stage(clock, "fingerprint", functions=len(functions), ranker=self.name):
            for func in functions:
                self.insert(func)
        self.stage_times = clock.stage_times

    def insert(self, func: Function) -> None:
        fp = fingerprint_function(func)
        self._fingerprints[id(func)] = fp
        index = len(self._functions)
        self._functions.append(func)
        self._index_of[id(func)] = index
        dims = fp.counts.shape[0]
        if self._matrix is None:
            self._matrix = np.empty((256, dims), dtype=np.int64)
            self._live = np.zeros(256, dtype=bool)
        elif index >= self._matrix.shape[0]:
            grown = np.empty((self._matrix.shape[0] * 2, dims), dtype=np.int64)
            grown[:index] = self._matrix[:index]
            self._matrix = grown
            grown_live = np.zeros(self._matrix.shape[0], dtype=bool)
            grown_live[:index] = self._live[:index]
            self._live = grown_live
        self._matrix[index] = fp.counts
        self._live[index] = True
        self._live_count += 1

    def best_match(self, func: Function) -> Optional[Match]:
        self._stats.queries += 1
        self._fault_hit("fingerprint")
        n = len(self._functions)
        me = self._index_of[id(func)]
        mask = self._live[:n].copy()
        mask[me] = False
        count = int(mask.sum())
        if count == 0:
            return None
        self._stats.comparisons += count
        # Manhattan distance of the query row against every live row.
        matrix = self._matrix[:n]
        distances = np.abs(matrix[mask] - matrix[me]).sum(axis=1)
        live_indices = np.nonzero(mask)[0]
        best = self._functions[int(live_indices[int(distances.argmin())])]
        fp = self._fingerprints[id(func)]
        return Match(best, fp.similarity(self._fingerprints[id(best)]))

    def remove(self, func: Function) -> None:
        idx = self._index_of.pop(id(func), None)
        if idx is None or self._live is None:
            return
        if self._live[idx]:
            self._live[idx] = False
            self._live_count -= 1
        # Free the per-function entries immediately: dead rows must not pin
        # Function objects or fingerprints (id() reuse would then alias a
        # new function onto a stale entry).
        self._fingerprints.pop(id(func), None)
        self._functions[idx] = None
        if (
            len(self._functions) >= _COMPACT_MIN_ROWS
            and self._live_count * 2 < len(self._functions)
        ):
            self._compact()

    def _compact(self) -> None:
        n = len(self._functions)
        survivors = [i for i in range(n) if self._live[i]]
        self._functions = [self._functions[i] for i in survivors]
        self._index_of = {
            id(func): row for row, func in enumerate(self._functions)
        }
        keep = np.array(survivors, dtype=np.int64)
        m = keep.shape[0]
        if m:
            self._matrix[:m] = self._matrix[keep]
        self._live[:m] = True
        self._live[m:] = False

    def similarity(self, a: Function, b: Function) -> float:
        return self._fingerprints[id(a)].similarity(self._fingerprints[id(b)])

    @property
    def stats(self) -> RankingStats:
        return self._stats


class MinHashLSHRanker(Ranker):
    """F3M ranking: MinHash fingerprints + banded LSH search.

    ``adaptive=True`` derives (t, r, b) — and thus k — from the module's
    function count per Section III-D; otherwise the static defaults
    (k=200, r=2, b=100, t=0) apply unless overridden.

    Preprocessing fingerprints the whole module through the vectorized
    batch engine and bulk-inserts into the LSH index.  ``cache`` shares
    fingerprints content-addressed across runs and partitions.  A merged
    function entering the pool through :meth:`insert` is fingerprinted
    directly: keying one stream costs more than fingerprinting it.
    """

    name = "f3m"

    def __init__(
        self,
        config: Optional[MinHashConfig] = None,
        rows: int = 2,
        bands: Optional[int] = None,
        bucket_cap: Optional[int] = 100,
        threshold: float = 0.0,
        adaptive: bool = False,
        cache: Optional[FingerprintCache] = None,
        compact_ratio: Optional[float] = 1.0,
    ) -> None:
        self._requested_config = config
        self.rows = rows
        self.bands = bands
        self.bucket_cap = bucket_cap
        self.threshold = threshold
        self.adaptive = adaptive
        self.cache = cache
        self.compact_ratio = compact_ratio
        self.config: Optional[MinHashConfig] = None
        self.parameters: Optional[AdaptiveParameters] = None
        self._index: Optional[LSHIndex] = None
        self._functions: Dict[int, Function] = {}
        self._stats = RankingStats()
        if adaptive:
            self.name = "f3m-adaptive"

    def preprocess(self, functions: List[Function]) -> None:
        if self.adaptive:
            params = adaptive_parameters(len(functions), rows=self.rows)
            self.parameters = params
            self.threshold = params.threshold
            bands = params.bands
            base = self._requested_config or MinHashConfig()
            self.config = replace(base, k=params.fingerprint_size)
        else:
            self.config = self._requested_config or MinHashConfig()
            bands = self.bands if self.bands is not None else self.config.k // self.rows
        self._index = LSHIndex(
            rows=self.rows,
            bands=bands,
            bucket_cap=self.bucket_cap,
            compact_ratio=self.compact_ratio,
        )
        clock = StageContext()
        with stage(clock, "fingerprint", functions=len(functions), ranker=self.name):
            fingerprints = minhash_module(functions, self.config, cache=self.cache)
        with stage(clock, "index", functions=len(functions)):
            self._index.insert_batch([id(f) for f in functions], fingerprints)
            for func in functions:
                self._functions[id(func)] = func
        self.stage_times = clock.stage_times

    def insert(self, func: Function) -> None:
        assert self._index is not None, "preprocess() must run first"
        fp = minhash_function(func, self.config)
        self._index.insert(id(func), fp)
        self._functions[id(func)] = func

    def fingerprint(self, func: Function) -> MinHashFingerprint:
        assert self._index is not None
        return self._index.fingerprint(id(func))

    def best_match(self, func: Function) -> Optional[Match]:
        assert self._index is not None, "preprocess() must run first"
        qstats = LSHQueryStats()
        self._stats.queries += 1
        self._fault_hit("fingerprint")
        self._fault_hit("lsh")
        result = self._index.best_match(id(func), qstats)
        self._stats.comparisons += qstats.comparisons
        self._stats.buckets_probed += qstats.buckets_probed
        self._stats.capped_buckets += qstats.capped_buckets
        if result is None:
            return None
        other_id, similarity = result
        if similarity < self.threshold:
            return None
        return Match(self._functions[other_id], similarity)

    def remove(self, func: Function) -> None:
        if self._index is not None:
            self._index.remove(id(func))
        self._functions.pop(id(func), None)

    def similarity(self, a: Function, b: Function) -> float:
        assert self._index is not None
        return self._index.fingerprint(id(a)).similarity(self._index.fingerprint(id(b)))

    @property
    def stats(self) -> RankingStats:
        return self._stats
