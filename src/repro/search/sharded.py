"""Band-sharded, store-backed LSH: the index partitioned over the ``bands`` axis.

Band hashes are independent of each other — bucket key ``(band, hash)``
only ever collides within its own band — so the bucket structures of a
banded LSH index partition cleanly into contiguous band ranges ("shards")
with **zero** cross-shard coordination.  :class:`ShardedLSHIndex` is the
frozen, corpus-scale form of :class:`~repro.search.lsh.LSHIndex`
(:meth:`ShardedLSHIndex.from_store`): shard bucket structures are built
from a :class:`~repro.fingerprint.store.FingerprintStore` one band range
at a time and written to ``.npy`` files that the index re-opens
memory-mapped.  Neither the signature matrix nor the bucket arrays are
ever RAM-resident as Python objects; the working set is page cache, and
building shard by shard bounds the build's peak memory by the widest
shard.  :meth:`ShardedLSHIndex.best_match_all` answers every query
vectorized, unioning each shard's candidate runs in shard order.

Exactness argument, spelled out once: the serial index probes bands
``0..b-1`` in order, applies the bucket cap *window* to each bucket's
member list, skips dead rows and already-seen rows, and takes the first
similarity argmax.  A shard owns a contiguous band range and shards are
unioned in ascending range order, so the concatenation of per-shard
capped runs is the identical global band order with the same cap windows.
Both the per-key queries and the batched :meth:`ShardedLSHIndex.best_match_all`
run :func:`~repro.search.lsh.capped_runs`, the serial index's own candidate
kernel, and deduplicate to first occurrences per query — exactly the serial
walk's ``seen`` set — so the candidate list *is* the serial candidate list
(property-tested against the serial index and against the reference walk).
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..arrays import first_occurrences, segments
from ..fingerprint.minhash import MinHashFingerprint
from ..fingerprint.store import FingerprintStore
from .lsh import (
    ColumnarBuckets,
    LSHIndex,
    Windows,
    band_bucket_keys,
    build_columnar_buckets,
    capped_runs,
)

__all__ = ["BandShard", "ShardedLSHIndex", "shard_ranges"]


def shard_ranges(bands: int, shards: int) -> List[Tuple[int, int]]:
    """Contiguous, balanced band ranges covering ``[0, bands)`` in order."""
    shards = max(1, min(shards, bands))
    return [
        ((bands * i) // shards, (bands * (i + 1)) // shards) for i in range(shards)
    ]


# Byte budget per (rows, k) gather temporary in the batched kernel's eq
# slices; keeps peak kernel memory in the tens of MB even when a dense
# corpus floods a batch with millions of duplicate candidates.
_EQ_CHUNK_BYTES = 1 << 22

# Candidate-row budget per reduction: a batch whose shard runs exceed this
# is split into contiguous query groups so the O(total-candidates) scatter
# arrays stay bounded regardless of bucket density.
_REDUCE_BUDGET_ROWS = 1 << 20

_SHARD_SUFFIXES = (".rows.npy", ".keys.npy", ".starts.npy", ".ends.npy")


class BandShard:
    """The memory-mapped columnar bucket layer of one band range ``[lo, hi)``."""

    __slots__ = ("band_lo", "band_hi", "base")

    def __init__(self, band_lo: int, band_hi: int, base: ColumnarBuckets) -> None:
        self.band_lo = band_lo
        self.band_hi = band_hi
        self.base = base

    @property
    def width(self) -> int:
        return self.band_hi - self.band_lo

    @classmethod
    def build(
        cls,
        values: np.ndarray,
        rows: int,
        bands: int,
        band_lo: int,
        band_hi: int,
        out_dir: str,
        chunk_rows: int,
    ) -> "BandShard":
        """Build the shard's columnar bucket layer from the signature matrix
        *values*, persist it as ``.npy`` files under *out_dir* and re-open
        them memory-mapped.

        Only this band slice's arrays are materialized — peak RSS is bounded
        by the shard, not the corpus.
        """
        n = values.shape[0]
        width = band_hi - band_lo
        keys = np.empty((n, width), dtype=np.int64)
        for start in range(0, n, chunk_rows):
            stop = min(start + chunk_rows, n)
            keys[start:stop] = band_bucket_keys(
                values[start:stop], rows, bands, band_lo, band_hi
            )
        buckets = build_columnar_buckets(keys)
        prefix = os.path.join(out_dir, f"shard-{band_lo:04d}-{band_hi:04d}")
        arrays = (buckets.rows, buckets.sorted_keys, buckets.starts_flat, buckets.ends_flat)
        mapped = []
        for suffix, array in zip(_SHARD_SUFFIXES, arrays):
            # Write-then-rename: an index still mapping the previous build's
            # file keeps reading its own (unlinked) copy.
            path = prefix + suffix
            with open(path + ".tmp", "wb") as handle:
                np.save(handle, array)
            os.replace(path + ".tmp", path)
            mapped.append(np.load(path, mmap_mode="r"))
        return cls(band_lo, band_hi, ColumnarBuckets(*mapped, width))

    def runs(
        self, queries: np.ndarray, cap: Optional[int]
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Capped candidate runs of a query batch against this shard:
        ``(runs, per_query_counts, capped_buckets)``, the runs concatenated
        per query and then per band in order — the serial probe sequence for
        this band range, duplicates included."""
        runs, takes, capped = capped_runs(
            [(self.base.rows, *self.base.row_windows(queries))], cap
        )
        return runs, takes.reshape(-1, self.width).sum(axis=1), capped


class _IdentityRows:
    """Minimal ``_row_of`` stand-in for frozen mode: key *is* the row.

    Avoids materializing a dict of 10^5–10^6 int->int entries just to map a
    row index to itself.
    """

    __slots__ = ("_n",)

    def __init__(self, n: int) -> None:
        self._n = n

    def get(self, key, default=None):
        if isinstance(key, (int, np.integer)) and 0 <= key < self._n:
            return int(key)
        return default

    def __getitem__(self, key):
        row = self.get(key)
        if row is None:
            raise KeyError(key)
        return row

    def __contains__(self, key) -> bool:
        return self.get(key) is not None


class ShardedLSHIndex(LSHIndex):
    """Frozen band-sharded LSH index over a fingerprint store.

    Built by :meth:`from_store`; keys are the store row indices.  Queries
    answer exactly what a serial :class:`LSHIndex` over the same
    fingerprints answers.  The index is frozen: ``insert``/``compact``/
    ``clone``/``probe`` are unavailable, ``remove`` tombstones without
    ever compacting.
    """

    def __init__(
        self,
        store: FingerprintStore,
        shards: List[BandShard],
        rows: int,
        bands: int,
        bucket_cap: Optional[int],
    ) -> None:
        super().__init__(rows=rows, bands=bands, bucket_cap=bucket_cap, compact_ratio=None)
        n = len(store)
        self._shards = shards
        self._store = store
        # Plain-ndarray view of the memmapped signature matrix: fancy
        # gathering through np.memmap.__getitem__ is drastically slower than
        # the base-class path, and the view still reads through the mapping.
        self._store_values = np.asarray(store.values)
        self._keys = range(n)  # type: ignore[assignment] — O(1) identity "list"
        self._row_of = _IdentityRows(n)  # type: ignore[assignment]
        self._fingerprints = None  # type: ignore[assignment]
        self._alive = np.ones(n, dtype=bool)  # type: ignore[assignment]
        self._live_count = n
        self._base_count = n

    @classmethod
    def from_store(
        cls,
        store: FingerprintStore,
        *,
        rows: int = 2,
        bands: Optional[int] = None,
        bucket_cap: Optional[int] = 100,
        shards: int = 1,
        shard_dir: Optional[str] = None,
        chunk_rows: int = 65536,
    ) -> "ShardedLSHIndex":
        """Build a frozen index over every row of *store*, sharded by band.

        Each shard's bucket structure is built by :meth:`BandShard.build`,
        one shard after another, and persisted as ``.npy`` files under
        *shard_dir* (default: ``<store>/lsh-shards``), which the index then
        memory-maps.  Rebuilding into the same directory replaces the files.
        """
        k = store.config.k
        if bands is None:
            bands = k // rows
        if bands <= 0 or rows * bands > k:
            raise ValueError(f"rows*bands {rows}*{bands} does not fit k={k}")
        if shard_dir is None:
            shard_dir = os.path.join(store.directory, "lsh-shards")
        os.makedirs(shard_dir, exist_ok=True)
        values = np.asarray(store.values)
        band_shards = [
            BandShard.build(values, rows, bands, lo, hi, shard_dir, chunk_rows)
            for lo, hi in shard_ranges(bands, shards)
        ]
        return cls(store, band_shards, rows, bands, bucket_cap)

    # -- frozen maintenance ------------------------------------------------------------
    def _frozen(self, op: str) -> None:
        raise RuntimeError(f"{op} is unavailable on a frozen store-backed index")

    def insert(self, key, fingerprint) -> None:
        self._frozen("insert")

    def insert_batch(self, keys, fingerprints) -> None:
        self._frozen("insert_batch")

    def compact(self) -> None:
        self._frozen("compact")

    def clone(self) -> "ShardedLSHIndex":
        self._frozen("clone")

    def probe(self, fingerprint, stats=None):
        self._frozen("probe")

    def fingerprint(self, key) -> MinHashFingerprint:
        row = self._row_of[key]
        return MinHashFingerprint(
            np.array(self._store_values[row], dtype=np.uint32),
            self._store.config,
            int(self._store.num_shingles[row]),
        )

    def _matrix(self) -> np.ndarray:
        return self._store_values

    def _base_windows(self, me: int, band_keys: Optional[np.ndarray]) -> List[Windows]:
        """Every shard's windows for row *me*, in shard (i.e. band) order."""
        return [(shard.base.rows, *shard.base.row_windows(me)) for shard in self._shards]

    # -- batched queries ---------------------------------------------------------------
    def best_match_all(
        self,
        queries: Optional[np.ndarray] = None,
        *,
        batch_rows: int = 1024,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``best_match`` for every query row, vectorized.

        Returns ``(best, sims)``: for query row ``i``, ``best[i]`` is the
        best live candidate row (``-1`` when the row has no candidates) and
        ``sims[i]`` its estimated Jaccard similarity.  Results are
        provably identical to calling :meth:`best_match` per row — the
        kernel concatenates each shard's capped bucket runs in band order,
        masks ``me``/dead rows order-preservingly, deduplicates to first
        occurrences per query (the serial loop's ``seen`` set, vectorized),
        and takes a first-occurrence argmax per query.
        """
        n = len(self._keys)
        if queries is None:
            queries = np.arange(n, dtype=np.int64)
        else:
            queries = np.asarray(queries, dtype=np.int64)
        matrix = self._store_values
        k = matrix.shape[1]
        alive = self._alive
        cap = self.bucket_cap
        best = np.full(queries.shape[0], -1, dtype=np.int64)
        sims = np.zeros(queries.shape[0], dtype=np.float64)
        self.queries += int(queries.shape[0])
        for lo in range(0, queries.shape[0], batch_rows):
            batch = queries[lo : lo + batch_rows]
            runs = [shard.runs(batch, cap) for shard in self._shards]
            b, s = self._reduce_batch(batch, runs, matrix, k, alive)
            best[lo : lo + batch.shape[0]] = b
            sims[lo : lo + batch.shape[0]] = s
        return best, sims

    def _reduce_batch(
        self,
        batch: np.ndarray,
        runs: List[Tuple[np.ndarray, np.ndarray, int]],
        matrix: np.ndarray,
        k: int,
        alive: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Union shard candidate runs in shard order and argmax per query."""
        nq = batch.shape[0]
        for _, _, capped in runs:
            self.capped_bucket_hits += capped
        totals = np.zeros(nq, dtype=np.int64)
        for _, per_query, _ in runs:
            totals += per_query
        grand = int(totals.sum())
        if grand == 0:
            return np.full(nq, -1, dtype=np.int64), np.zeros(nq, dtype=np.float64)
        if grand > _REDUCE_BUDGET_ROWS and nq > 1:
            # Dense corpus: split into contiguous query groups of bounded
            # candidate mass and reduce each group independently.  Queries
            # are independent of one another, so the split cannot change
            # any per-query answer.
            shard_offsets = [
                np.concatenate(([0], np.cumsum(per_query)))
                for _, per_query, _ in runs
            ]
            best = np.full(nq, -1, dtype=np.int64)
            sims = np.zeros(nq, dtype=np.float64)
            lo = 0
            while lo < nq:
                hi = lo + 1
                mass = int(totals[lo])
                while hi < nq and mass + int(totals[hi]) <= _REDUCE_BUDGET_ROWS:
                    mass += int(totals[hi])
                    hi += 1
                sub_runs = [
                    (cands_arr[offs[lo] : offs[hi]], per_query[lo:hi], 0)
                    for (cands_arr, per_query, _), offs in zip(runs, shard_offsets)
                ]
                b, s = self._reduce_batch(batch[lo:hi], sub_runs, matrix, k, alive)
                best[lo:hi] = b
                sims[lo:hi] = s
                lo = hi
            return best, sims
        # Scatter each shard's runs to their final per-query positions:
        # query-major, shard-minor — i.e. global band order.
        cands = np.empty(grand, dtype=np.int64)
        acc = np.cumsum(totals) - totals
        for shard_cands, per_query, _ in runs:
            dest = segments(acc, per_query)
            cands[dest] = shard_cands
            acc += per_query
        seg = np.repeat(np.arange(nq, dtype=np.int64), totals)
        keep = (cands != batch[seg]) & alive[cands]
        cands = cands[keep]
        seg = seg[keep]
        best = np.full(nq, -1, dtype=np.int64)
        sims = np.zeros(nq, dtype=np.float64)
        if cands.shape[0] == 0:
            return best, sims
        # First-occurrence dedup per query, vectorized — the serial loop's
        # ``seen`` set.  In dense corpora a family member recurs in nearly
        # every band, so this cuts the k-wide similarity work by up to a
        # factor of ``bands``.  Only later duplicates are dropped and they
        # carry the same eq value as their first occurrence, so the
        # first-max argmax below is untouched.
        keep = first_occurrences(seg * np.int64(matrix.shape[0]) + cands)
        cands = cands[keep]
        seg = seg[keep]
        # Chunk the k-wide gathers: a dense batch can carry millions of
        # candidate rows (duplicates included), and materializing two
        # (m, k) gathers at once would cost gigabytes.  eq is computed in
        # bounded slices — same values, bounded temporaries.
        query_rows = batch[seg]
        m = cands.shape[0]
        eq = np.empty(m, dtype=np.int64)
        chunk_rows = max(1024, _EQ_CHUNK_BYTES // (k * matrix.itemsize))
        for c_lo in range(0, m, chunk_rows):
            c_hi = min(c_lo + chunk_rows, m)
            eq[c_lo:c_hi] = (
                matrix[cands[c_lo:c_hi]] == matrix[query_rows[c_lo:c_hi]]
            ).sum(axis=1)
        counts = np.bincount(seg, minlength=nq)
        nonempty = counts > 0
        seg_starts = (np.cumsum(counts) - counts)[nonempty]
        max_eq = np.maximum.reduceat(eq, seg_starts)
        max_of = np.zeros(nq, dtype=np.int64)
        max_of[nonempty] = max_eq
        pos = np.arange(eq.shape[0], dtype=np.int64)
        sentinel = eq.shape[0]
        first = np.minimum.reduceat(
            np.where(eq == max_of[seg], pos, sentinel), seg_starts
        )
        best[nonempty] = cands[first]
        sims[nonempty] = max_eq / float(k)
        return best, sims

    # -- diagnostics -------------------------------------------------------------------
    def index_stats(self) -> Dict[str, int]:
        stats = super().index_stats()
        stats["shards"] = len(self._shards)
        return stats

    def _live_bucket_populations(self) -> List[int]:
        # Band ranges are disjoint, so bucket keys never collide across
        # shards — the per-shard populations are the global answer.
        pops: List[int] = []
        for shard in self._shards:
            pops.extend(
                p for p in shard.base.live_populations(self._alive).values() if p > 0
            )
        return pops
