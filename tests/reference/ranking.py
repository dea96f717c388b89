"""F3M ranking computed one function at a time."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.fingerprint.encoding import EncodingOptions
from repro.fingerprint.minhash import MinHashConfig, MinHashFingerprint, minhash_function
from repro.ir.function import Function
from repro.obs.stage import StageContext, stage
from repro.search.lsh import LSHQueryStats
from repro.search.pairing import Match, Ranker, RankingStats

from .lsh import ReferenceLSHIndex


class ReferenceMinHashRanker(Ranker):
    """The static F3M ranker (k=200, r=2, b=100 by default), spelled out.

    Preprocessing fingerprints each function with :func:`minhash_function`
    and inserts it, one at a time, into a :class:`ReferenceLSHIndex` — the
    plain-list bucket walk with the production index's bucket cap,
    tombstones and compaction rule.  A query returns the first candidate of
    highest estimated Jaccard similarity.
    """

    name = "f3m"

    def __init__(
        self,
        config: Optional[MinHashConfig] = None,
        rows: int = 2,
        bands: Optional[int] = None,
        bucket_cap: Optional[int] = 100,
        threshold: float = 0.0,
        encoding: Optional[EncodingOptions] = None,
        compact_ratio: Optional[float] = 1.0,
    ) -> None:
        self.config = config or MinHashConfig()
        self.rows = rows
        self.bands = bands if bands is not None else self.config.k // rows
        self.bucket_cap = bucket_cap
        self.threshold = threshold
        self.encoding = encoding or EncodingOptions()
        self.compact_ratio = compact_ratio
        self._functions: Dict[int, Function] = {}
        self._stats = RankingStats()

    def preprocess(self, functions: List[Function]) -> None:
        # Built here, as in MinHashLSHRanker, so the pass can set
        # compact_ratio first.
        self._index: ReferenceLSHIndex[int] = ReferenceLSHIndex(
            self.rows, self.bands, self.bucket_cap, self.compact_ratio
        )
        clock = StageContext()
        with stage(clock, "fingerprint"):
            for func in functions:
                self.insert(func)
        self.stage_times = clock.stage_times

    def insert(self, func: Function) -> None:
        self._index.insert(id(func), minhash_function(func, self.config, self.encoding))
        self._functions[id(func)] = func

    def remove(self, func: Function) -> None:
        self._index.remove(id(func))
        self._functions.pop(id(func), None)

    def fingerprint(self, func: Function) -> MinHashFingerprint:
        return self._index.fingerprint(id(func))

    def best_match(self, func: Function) -> Optional[Match]:
        query = LSHQueryStats()
        best = self._index.best_match(id(func), query)
        self._stats.queries += 1
        self._stats.buckets_probed += query.buckets_probed
        self._stats.capped_buckets += query.capped_buckets
        self._stats.comparisons += query.comparisons
        if best is None or best[1] < self.threshold:
            return None
        return Match(self._functions[best[0]], best[1])

    def similarity(self, a: Function, b: Function) -> float:
        return self.fingerprint(a).similarity(self.fingerprint(b))

    @property
    def stats(self) -> RankingStats:
        return self._stats
