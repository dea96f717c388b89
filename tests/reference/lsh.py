"""The LSH bucket walk, one bucket and one member at a time."""

from __future__ import annotations

from typing import Dict, Generic, Hashable, List, Optional, Tuple, TypeVar

from repro.fingerprint.minhash import MinHashFingerprint
from repro.search.lsh import LSHQueryStats

from .fnv import fnv1a_32_array

KeyT = TypeVar("KeyT", bound=Hashable)

# LSHIndex compacts no index smaller than this many stored rows.
_COMPACT_MIN_ROWS = 64


class ReferenceLSHIndex(Generic[KeyT]):
    """A banded LSH index over plain-list buckets, with ``LSHIndex``'s API.

    Bucket ``(band, hash)`` lists its member rows in insertion order, dead
    rows included.  A query walks the buckets in band order, examines the
    first ``bucket_cap`` members of each, skips the querying row, dead rows
    and rows already seen, and scores the rest in order of first
    occurrence; ``best_match`` takes the first of highest similarity.
    Removal tombstones a row.  Compaction re-files the live rows in their
    relative order, which moves the cap windows; it runs when tombstones
    exceed ``compact_ratio`` times the live rows.
    """

    def __init__(
        self,
        rows: int = 2,
        bands: int = 100,
        bucket_cap: Optional[int] = 100,
        compact_ratio: Optional[float] = 1.0,
    ) -> None:
        self.rows = rows
        self.bands = bands
        self.bucket_cap = bucket_cap
        self.compact_ratio = compact_ratio
        self.queries = 0
        self.capped_bucket_hits = 0
        self._keys: List[KeyT] = []
        self._fingerprints: List[MinHashFingerprint] = []
        self._alive: List[bool] = []
        self._row_of: Dict[KeyT, int] = {}
        self._buckets: Dict[Tuple[int, int], List[int]] = {}

    def __len__(self) -> int:
        return sum(self._alive)

    def __contains__(self, key: KeyT) -> bool:
        row = self._row_of.get(key)
        return row is not None and self._alive[row]

    def fingerprint(self, key: KeyT) -> MinHashFingerprint:
        return self._fingerprints[self._row_of[key]]

    def _band_keys(self, fingerprint: MinHashFingerprint) -> List[Tuple[int, int]]:
        # FNV-1a over consecutive rows-sized chunks of the values.
        chunks = fingerprint.config.k // self.rows
        usable = fingerprint.values[: chunks * self.rows].reshape(chunks, self.rows)
        return list(enumerate(fnv1a_32_array(usable)[: self.bands].tolist()))

    def insert(self, key: KeyT, fingerprint: MinHashFingerprint) -> None:
        if key in self:
            raise ValueError(f"duplicate key {key!r}")
        row = len(self._keys)
        self._keys.append(key)
        self._fingerprints.append(fingerprint)
        self._alive.append(True)
        self._row_of[key] = row
        for band_key in self._band_keys(fingerprint):
            self._buckets.setdefault(band_key, []).append(row)

    def insert_batch(self, keys, fingerprints) -> None:
        for key, fingerprint in zip(keys, fingerprints):
            self.insert(key, fingerprint)

    def remove(self, key: KeyT) -> None:
        row = self._row_of.get(key)
        if row is None or not self._alive[row]:
            return
        self._alive[row] = False
        live, stored = len(self), len(self._keys)
        if (
            self.compact_ratio is not None
            and stored >= _COMPACT_MIN_ROWS
            and stored - live > self.compact_ratio * live
        ):
            self.compact()

    def compact(self) -> None:
        survivors = [
            (key, fingerprint)
            for key, fingerprint, alive in zip(self._keys, self._fingerprints, self._alive)
            if alive
        ]
        self._keys, self._fingerprints, self._alive = [], [], []
        self._row_of, self._buckets = {}, {}
        for key, fingerprint in survivors:
            self.insert(key, fingerprint)

    def clone(self) -> "ReferenceLSHIndex[KeyT]":
        dup = ReferenceLSHIndex(self.rows, self.bands, self.bucket_cap, self.compact_ratio)
        dup.queries = self.queries
        dup.capped_bucket_hits = self.capped_bucket_hits
        dup._keys = list(self._keys)
        dup._fingerprints = list(self._fingerprints)
        dup._alive = list(self._alive)
        dup._row_of = dict(self._row_of)
        dup._buckets = {band_key: list(rows) for band_key, rows in self._buckets.items()}
        return dup

    def _walk(
        self, fingerprint: MinHashFingerprint, me: int, stats: Optional[LSHQueryStats]
    ) -> List[Tuple[KeyT, float]]:
        stats = stats if stats is not None else LSHQueryStats()
        self.queries += 1
        seen = {me}
        found: List[Tuple[KeyT, float]] = []
        for band_key in self._band_keys(fingerprint):
            members = self._buckets.get(band_key, [])
            if self.bucket_cap is not None and len(members) > self.bucket_cap:
                members = members[: self.bucket_cap]
                stats.capped_buckets += 1
                self.capped_bucket_hits += 1
            for row in members:
                if row in seen or not self._alive[row]:
                    continue
                seen.add(row)
                found.append(
                    (self._keys[row], fingerprint.similarity(self._fingerprints[row]))
                )
        stats.buckets_probed += self.bands
        stats.candidates_seen += len(found)
        stats.comparisons += len(found)
        return found

    def query(self, key: KeyT, stats: Optional[LSHQueryStats] = None):
        me = self._row_of[key]
        return self._walk(self._fingerprints[me], me, stats)

    def probe(self, fingerprint: MinHashFingerprint, stats: Optional[LSHQueryStats] = None):
        return self._walk(fingerprint, -1, stats)

    def best_match(self, key: KeyT, stats: Optional[LSHQueryStats] = None):
        best = None
        for candidate in self.query(key, stats):
            if best is None or candidate[1] > best[1]:
                best = candidate
        return best
