"""F3M ranking computed one function at a time."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.fingerprint.encoding import EncodingOptions
from repro.fingerprint.minhash import MinHashConfig, MinHashFingerprint, minhash_function
from repro.ir.function import Function
from repro.obs.stage import StageContext, stage
from repro.search.pairing import Match, Ranker, RankingStats

# LSHIndex compacts no index smaller than this many stored rows.
_COMPACT_MIN_ROWS = 64


class _Row:
    __slots__ = ("func", "fingerprint", "alive")

    def __init__(self, func: Function, fingerprint: MinHashFingerprint) -> None:
        self.func = func
        self.fingerprint = fingerprint
        self.alive = True


class ReferenceMinHashRanker(Ranker):
    """The static F3M ranker (k=200, r=2, b=100 by default), spelled out.

    Preprocessing fingerprints each function with :func:`minhash_function`
    and files it under ``(band, hash)`` buckets computed by
    :meth:`MinHashFingerprint.band_hashes`.  A query walks the buckets in
    band order, examines at most ``bucket_cap`` members of each (in
    insertion order, dead rows included), and returns the first candidate
    of highest estimated Jaccard similarity.  Removal tombstones a row, and
    the rows are re-filed without the dead ones when tombstones exceed
    ``compact_ratio`` times the live rows — the production index's
    compaction rule, which moves the bucket-cap windows.
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
        self._rows: List[_Row] = []
        self._row_of: Dict[int, int] = {}
        self._buckets: Dict[tuple, List[int]] = {}
        self._live = 0
        self._stats = RankingStats()

    def _band_keys(self, fingerprint: MinHashFingerprint) -> List[tuple]:
        hashes = fingerprint.band_hashes(self.rows)[: self.bands].tolist()
        return list(enumerate(hashes))

    def _file(self, row: _Row) -> None:
        index = len(self._rows)
        self._rows.append(row)
        self._row_of[id(row.func)] = index
        for key in self._band_keys(row.fingerprint):
            self._buckets.setdefault(key, []).append(index)

    def preprocess(self, functions: List[Function]) -> None:
        clock = StageContext()
        with stage(clock, "fingerprint"):
            for func in functions:
                self.insert(func)
        self.stage_times = clock.stage_times

    def insert(self, func: Function) -> None:
        self._file(_Row(func, minhash_function(func, self.config, self.encoding)))
        self._live += 1

    def remove(self, func: Function) -> None:
        index = self._row_of.pop(id(func), None)
        if index is None or not self._rows[index].alive:
            return
        self._rows[index].alive = False
        self._live -= 1
        stored = len(self._rows)
        if (
            self.compact_ratio is not None
            and stored >= _COMPACT_MIN_ROWS
            and stored - self._live > self.compact_ratio * self._live
        ):
            survivors = [row for row in self._rows if row.alive]
            self._rows, self._row_of, self._buckets = [], {}, {}
            for row in survivors:
                self._file(row)

    def fingerprint(self, func: Function) -> MinHashFingerprint:
        return self._rows[self._row_of[id(func)]].fingerprint

    def best_match(self, func: Function) -> Optional[Match]:
        me = self._row_of[id(func)]
        mine = self._rows[me].fingerprint
        seen = {me}
        candidates: List[int] = []
        for key in self._band_keys(mine):
            members = self._buckets[key]
            if self.bucket_cap is not None and len(members) > self.bucket_cap:
                members = members[: self.bucket_cap]
                self._stats.capped_buckets += 1
            for index in members:
                if index not in seen and self._rows[index].alive:
                    seen.add(index)
                    candidates.append(index)
        self._stats.queries += 1
        self._stats.buckets_probed += self.bands
        self._stats.comparisons += len(candidates)
        best: Optional[Match] = None
        for index in candidates:
            row = self._rows[index]
            similarity = mine.similarity(row.fingerprint)
            if best is None or similarity > best.similarity:
                best = Match(row.func, similarity)
        if best is None or best.similarity < self.threshold:
            return None
        return best

    def similarity(self, a: Function, b: Function) -> float:
        return self.fingerprint(a).similarity(self.fingerprint(b))

    @property
    def stats(self) -> RankingStats:
        return self._stats
