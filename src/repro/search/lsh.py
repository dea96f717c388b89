"""Locality Sensitive Hashing index over MinHash fingerprints (Section III-C).

Fingerprints are split into ``b`` bands of ``r`` rows; each band hashes into
a bucket keyed by ``(band_index, band_hash)``.  A query only compares the
querying fingerprint against functions sharing at least one bucket — the
vast majority of pairwise comparisons never happen.

Over-populated buckets (very common instruction subsequences) would make
bucket scans quadratic, so the number of fingerprint comparisons per bucket
is capped (default 100, paper Section III-C / IV-E).

Internally all fingerprints live in one ``(n, k)`` uint32 matrix and all
band bucket keys in one ``(n, b)`` int64 matrix, both capacity-doubled, so
batched similarity evaluation is a single vectorized comparison and
:meth:`LSHIndex.insert_batch` band-hashes a whole module at once.  Removal
is lazy (tombstones); when live rows drop below half the stored rows the
index compacts itself so long remerge runs do not degrade.

A frozen index over a whole :class:`~repro.fingerprint.store.FingerprintStore`
(:meth:`LSHIndex.from_store`) shares the columnar builder, the kernel and
the scorer: its keys are store rows, its matrix is the store's memmapped
signature matrix, and only its bucket layer is built in RAM, band range by
band range.

Every query (:meth:`LSHIndex.query`, :meth:`LSHIndex.best_match` and
:meth:`LSHIndex.probe`) runs one vectorized candidate kernel,
:func:`capped_runs`, and one similarity scorer.  The kernel reads each
probed bucket as a ``[start, start+count)`` window of a columnar layer's
sorted member rows, appends the bucket's overflow members (functions
inserted after the batch, found with one ``dict.get`` pass over the band
keys), cuts the concatenation to the first ``bucket_cap`` members and
concatenates the windows in band order.  Dead rows and the querying row
are masked out and the survivors deduped to their first occurrences with
one stable sort, so a query costs time in the members it examines, never
in the rows stored.  The only Python loop left runs over the few buckets
that hold overflow members.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, repeat
from typing import (
    Callable,
    Dict,
    Generic,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

import numpy as np

from ..arrays import first_occurrences, segments
from ..fingerprint.fnv import fnv1a_32_array_u32
from ..fingerprint.minhash import MinHashFingerprint
from ..fingerprint.store import FingerprintStore
from ..obs import trace

__all__ = [
    "LSHIndex",
    "LSHQueryStats",
    "BucketStats",
    "ColumnarBuckets",
    "build_columnar_buckets",
    "band_bucket_keys",
    "capped_runs",
]

KeyT = TypeVar("KeyT", bound=Hashable)

# Compaction triggers when fewer than half the stored rows are live, but
# never below this row count — tiny indexes are not worth rebuilding.
_COMPACT_MIN_ROWS = 64


def band_bucket_keys(
    values: np.ndarray,
    rows: int,
    bands: int,
    band_lo: int = 0,
    band_hi: Optional[int] = None,
) -> np.ndarray:
    """Band bucket keys ``(band_index << 32) | band_hash`` for a value matrix.

    *values* is the ``(n, k)`` uint32 fingerprint matrix; the result is the
    ``(n, band_hi - band_lo)`` int64 key matrix for the half-open band range
    ``[band_lo, band_hi)``.  Band indices in the keys are always *global*
    (relative to band 0), so keys computed per band slice are bit-identical
    to the corresponding columns of a whole-range computation — the property
    the band-ranged :func:`build_columnar_buckets` relies on.
    """
    if band_hi is None:
        band_hi = bands
    if not (0 <= band_lo <= band_hi <= bands):
        raise ValueError(f"invalid band range [{band_lo}, {band_hi}) for bands={bands}")
    n = values.shape[0]
    width = band_hi - band_lo
    if n == 0 or width == 0:
        return np.empty((n, width), dtype=np.int64)
    usable = values[:, band_lo * rows : band_hi * rows].reshape(n * width, rows)
    hashes = fnv1a_32_array_u32(usable).astype(np.int64).reshape(n, width)
    return (np.arange(band_lo, band_hi, dtype=np.int64)[None, :] << 32) | hashes


class ColumnarBuckets:
    """Columnar bucket layer over all ``width`` bands of ``n`` rows.

    Built by :func:`build_columnar_buckets` from stable argsorts over the
    (band, hash) keys.  Bucket membership is stored as one sorted row array
    plus, per original (row, band) flat position, the [start, end) bounds of
    that position's bucket — no per-bucket Python dict or list is ever built
    (a key->slice dict over ~n*b/3 buckets costs more than the argsort
    itself on large modules).  A probe reads bucket windows, never member
    lists.
    """

    __slots__ = ("rows", "sorted_keys", "starts_flat", "ends_flat", "width")

    def __init__(
        self,
        rows: np.ndarray,
        sorted_keys: np.ndarray,
        starts_flat: np.ndarray,
        ends_flat: np.ndarray,
        width: int,
    ) -> None:
        self.rows = rows
        self.sorted_keys = sorted_keys
        self.starts_flat = starts_flat
        self.ends_flat = ends_flat
        self.width = width  # bands covered by this layer

    def row_windows(self, rows: Union[int, np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
        """``(starts, counts)`` in :attr:`rows` of every bucket of the layer's
        own row (or array of rows, row-major then band order), read from the
        rows' flat positions (no key lookup)."""
        width = self.width
        if isinstance(rows, int):
            flat = slice(rows * width, (rows + 1) * width)
        else:
            flat = (rows[:, None] * width + np.arange(width, dtype=np.int64)).ravel()
        starts = self.starts_flat[flat]
        return starts, self.ends_flat[flat] - starts

    def key_windows(self, bucket_keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(starts, counts)`` of the buckets *bucket_keys* by binary search —
        for rows inserted after the layer was built and external probes; an
        absent bucket is an empty window."""
        starts = np.searchsorted(self.sorted_keys, bucket_keys, "left")
        return starts, np.searchsorted(self.sorted_keys, bucket_keys, "right") - starts

    def live_populations(self, alive: np.ndarray) -> Dict[int, int]:
        """Live member count per bucket key, in one segmented sum."""
        sk = self.sorted_keys
        if not sk.shape[0]:
            return {}
        alive_rows = alive[self.rows].astype(np.int64)
        first = np.empty(sk.shape[0], dtype=bool)
        first[0] = True
        np.not_equal(sk[1:], sk[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        pops = np.add.reduceat(alive_rows, starts)
        return dict(zip(sk[starts].tolist(), pops.tolist()))


# Keys sorted per step of the columnar build: each step takes the widest
# band range whose n*width keys fit, so every module-sized index (201
# functions x 100 bands) is one range and past 131,072 rows every band is
# its own range.  Bounds the build's sort temporaries, not its output.
_BUILD_KEY_BUDGET = 1 << 18


def build_columnar_buckets(
    n: int, bands: int, range_keys: Callable[[int, int], np.ndarray]
) -> ColumnarBuckets:
    """The columnar bucket layer of ``n`` rows, built band range by band range.

    ``range_keys(lo, hi)`` returns the ``(n, hi - lo)`` bucket keys of bands
    ``[lo, hi)`` (a slice of a key matrix, or :func:`band_bucket_keys` over
    a signature matrix).  Keys carry their band in the high bits, so the
    keys of range ``[lo, hi)`` fill sorted positions ``[n*lo, n*hi)`` of the
    whole layer: each range is sorted alone (one stable argsort) and written
    in place into the preallocated arrays, bit-identical to one argsort over
    all ``n*bands`` keys.  Row-major flattening keeps rows ascending within
    a bucket, i.e. exactly the sequential-insert order.
    """
    total = n * bands
    rows = np.empty(total, dtype=np.int64)
    sorted_keys = np.empty(total, dtype=np.int64)
    starts_flat = np.empty(total, dtype=np.int64)
    ends_flat = np.empty(total, dtype=np.int64)
    # (row, band) views of the flat bounds: a range fills its band columns.
    starts_grid = starts_flat.reshape(n, bands)
    ends_grid = ends_flat.reshape(n, bands)
    step = max(1, _BUILD_KEY_BUDGET // max(n, 1))
    for lo in range(0, bands, step):
        hi = min(lo + step, bands)
        width = hi - lo
        at = n * lo
        flat_keys = np.ascontiguousarray(range_keys(lo, hi)).ravel()
        order = np.argsort(flat_keys, kind="stable")
        part = sorted_keys[at : at + order.shape[0]]
        np.take(flat_keys, order, out=part)
        np.floor_divide(order, width, out=rows[at : at + order.shape[0]])
        boundaries = np.flatnonzero(part[1:] != part[:-1]) + 1
        starts = np.concatenate([np.zeros(1, dtype=np.int64), boundaries]) + at
        ends = np.concatenate([boundaries, [order.shape[0]]]) + at
        # Scatter each bucket's [start, end) bounds back to every flat
        # (row, band) position that belongs to it: a probing row reads its
        # own bucket's bounds straight from its flat position, no key lookup.
        counts = ends - starts
        bounds = np.empty(order.shape[0], dtype=np.int64)
        bounds[order] = np.repeat(starts, counts)
        starts_grid[:, lo:hi] = bounds.reshape(n, width)
        bounds[order] = np.repeat(ends, counts)
        ends_grid[:, lo:hi] = bounds.reshape(n, width)
    return ColumnarBuckets(rows, sorted_keys, starts_flat, ends_flat, bands)


# One layer's probed buckets: (member_rows, starts, counts), bucket j being
# member_rows[starts[j] : starts[j] + counts[j]].
Windows = Tuple[np.ndarray, np.ndarray, np.ndarray]


def capped_runs(
    layers: Sequence[Windows],
    cap: Optional[int],
    overflow: Optional[List[Sequence[int]]] = None,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """The candidate kernel: the capped member runs of a sequence of buckets.

    *layers* hold the probed buckets' windows into columnar layers; their
    concatenation is the bucket order (band order for one query; query-major
    for a batch).  *overflow*, when given, lists per bucket the members
    appended after the columnar layer was built (empty when none).  Each
    bucket lists its layer members, then its overflow members, and only the
    first ``cap`` of that concatenation are taken — dead rows included, as
    the paper's cap bounds the members examined (Section III-C).

    Returns ``(runs, takes, capped)``: the taken members of every bucket
    concatenated in bucket order (duplicates and dead rows included), the
    members taken per bucket, and the number of buckets over the cap.
    """
    if len(layers) == 1:
        counts = layers[0][2]
    else:
        counts = np.concatenate(
            [c for _, _, c in layers] or [np.zeros(len(overflow or ()), dtype=np.int64)]
        )
    takes = counts if cap is None else np.minimum(counts, cap)
    parts, at = [], 0
    for member_rows, starts, c in layers:
        parts.append(member_rows[segments(starts, takes[at : at + c.shape[0]])])
        at += c.shape[0]
    runs = parts[0] if len(parts) == 1 else np.concatenate(parts or [np.empty(0, np.int64)])
    capped = int(np.count_nonzero(counts > cap)) if cap is not None else 0
    hits = list(compress(range(len(overflow)), overflow)) if overflow is not None else ()
    if not hits:
        return runs, takes, capped
    # Overflow members follow their bucket's layer members, up to the cap.
    counts_of = counts.tolist()
    ov_rows: List[int] = []
    ov_bucket: List[int] = []
    for j in hits:
        members = overflow[j]
        if cap is not None and counts_of[j] + len(members) > cap:
            capped += counts_of[j] <= cap  # not yet counted as over the cap
            members = members[: max(cap - counts_of[j], 0)]
        ov_rows += members
        ov_bucket += [j] * len(members)
    bucket = np.array(ov_bucket, dtype=np.int64)
    # Inserting at the end of each bucket's layer run, in order, keeps every
    # bucket's overflow members after its layer members and in their order.
    runs = np.insert(runs, takes.cumsum()[bucket], ov_rows)
    return runs, takes + np.bincount(bucket, minlength=takes.shape[0]), capped


@dataclass
class LSHQueryStats:
    """Work accounting for a single query (drives Fig. 13/16 benches)."""

    buckets_probed: int = 0
    candidates_seen: int = 0
    comparisons: int = 0
    capped_buckets: int = 0


@dataclass
class BucketStats:
    """Distribution of bucket populations (Section IV-E analysis)."""

    total_buckets: int
    max_population: int
    overpopulated: int  # population >= 128, the paper's reporting cutoff
    populations: List[int] = field(default_factory=list)


class LSHIndex(Generic[KeyT]):
    """Banded LSH index mapping band hashes to member keys.

    ``compact_ratio`` controls auto-compaction: the index compacts itself
    when tombstones exceed ``compact_ratio`` times the live entries (the
    long-lived daemon knob — a low ratio keeps query-time tombstone
    skipping cheap, ``None`` disables auto-compaction entirely).  The
    default of 1.0 preserves the historical behaviour of compacting when
    live rows drop below half of the stored rows.

    :meth:`from_store` builds the frozen form over a fingerprint store: its
    keys are the store's rows, ``remove`` tombstones without compacting,
    ``probe`` works, and the methods that would grow or reshuffle its
    buffers (``insert``, ``insert_batch``, ``compact``, ``clone``) raise.
    """

    def __init__(
        self,
        rows: int = 2,
        bands: int = 100,
        bucket_cap: Optional[int] = 100,
        compact_ratio: Optional[float] = 1.0,
    ) -> None:
        if rows <= 0 or bands <= 0:
            raise ValueError("rows and bands must be positive")
        if compact_ratio is not None and compact_ratio <= 0:
            raise ValueError("compact_ratio must be positive (or None)")
        self.rows = rows
        self.bands = bands
        self.bucket_cap = bucket_cap
        self.compact_ratio = compact_ratio
        self.compactions = 0
        self.removals = 0
        # Cumulative counters surfaced via index_stats() so the obs metrics
        # registry sees query traffic and cap pressure, not just structure.
        self.queries = 0
        self.capped_bucket_hits = 0
        # Buckets have two layers with one insertion-order contract (batch
        # rows first, then later single inserts):
        #  * the *base* layer is a ColumnarBuckets built by insert_batch;
        #  * the *overflow* layer is a plain dict of lists fed by insert()
        #    for functions added after preprocessing (the remerge loop).
        self._buckets: Dict[int, List[int]] = {}
        self._base: Optional[ColumnarBuckets] = None
        self._base_count = 0  # rows covered by the base layer
        self._keys: List[KeyT] = []
        self._row_of: Dict[KeyT, int] = {}
        self._fingerprints: List[MinHashFingerprint] = []
        self._live_count = 0
        # Fingerprint rows, band bucket keys and the alive mask live in
        # capacity-doubled arrays so inserts (including merged functions
        # re-entering the index) stay O(1) amortized, batched similarity
        # stays a single vector op and a query masks dead rows with one
        # gather.  The alive mask is private to each clone().
        self._matrix_buf: Optional[np.ndarray] = None
        self._bands_buf: Optional[np.ndarray] = None
        self._alive = np.zeros(0, dtype=bool)
        # Set when the matrices are shared with a clone() snapshot; any
        # in-place shuffle (compaction) must un-share them first.
        self._buffers_shared = False
        # The fingerprint store of a frozen index (see from_store).
        self._store: Optional[FingerprintStore] = None

    @classmethod
    def from_store(
        cls,
        store: FingerprintStore,
        rows: int = 2,
        bands: Optional[int] = None,
        bucket_cap: Optional[int] = 100,
    ) -> "LSHIndex[int]":
        """A frozen index over every row of *store*, keyed by store row.

        Queries read the store's memmapped signature matrix in place; the
        columnar bucket layer is the only structure built, band range by
        band range from :func:`band_bucket_keys` over the matrix, so no
        per-row key map, fingerprint object or key matrix exists.  Answers
        are those of an :class:`LSHIndex` that ``insert_batch``-ed the same
        fingerprints in row order.  *bands* defaults to ``k // rows``.
        """
        k = store.config.k
        if bands is None:
            bands = k // rows
        if bands <= 0 or rows * bands > k:
            raise ValueError(f"rows*bands {rows}*{bands} does not fit k={k}")
        index: LSHIndex[int] = cls(rows, bands, bucket_cap, compact_ratio=None)
        n = len(store)
        # Plain-ndarray view of the memmap: fancy indexing through
        # np.memmap.__getitem__ is far slower, and the view shares the mapping.
        values = np.asarray(store.values)
        index._store = store
        index._matrix_buf = values
        index._keys = range(n)  # type: ignore[assignment] — keys are rows
        index._alive = np.ones(n, dtype=bool)
        index._live_count = index._base_count = n
        index._base = build_columnar_buckets(
            n, bands, lambda lo, hi: band_bucket_keys(values, rows, bands, lo, hi)
        )
        return index

    def _check_mutable(self, op: str) -> None:
        """Refuse *op* on a frozen index: it would grow or reshuffle buffers
        that are the store's memmapped matrix."""
        if self._store is not None:
            raise RuntimeError(f"{op} is unavailable on a frozen store-backed index")

    # -- maintenance -----------------------------------------------------------------
    def __len__(self) -> int:
        return self._live_count

    def __contains__(self, key: KeyT) -> bool:
        row = self._find(key)
        return row is not None and bool(self._alive[row])

    def _find(self, key: KeyT) -> Optional[int]:
        """The row stored under *key*, or None; a frozen index's keys are
        its rows."""
        if self._store is None:
            return self._row_of.get(key)
        if isinstance(key, (int, np.integer)) and 0 <= key < len(self._keys):
            return int(key)
        return None

    def _row(self, key: KeyT) -> int:
        row = self._find(key)
        if row is None:
            raise KeyError(key)
        return row

    def fingerprint(self, key: KeyT) -> MinHashFingerprint:
        row = self._row(key)
        store = self._store
        if store is None:
            return self._fingerprints[row]
        return MinHashFingerprint(
            np.array(self._matrix_buf[row]), store.config, int(store.num_shingles[row])
        )

    def _check_fingerprint(self, fingerprint: MinHashFingerprint) -> None:
        if fingerprint.config.k < self.rows * self.bands:
            raise ValueError(
                f"fingerprint size {fingerprint.config.k} < rows*bands "
                f"{self.rows * self.bands}"
            )

    def insert(self, key: KeyT, fingerprint: MinHashFingerprint) -> None:
        self._check_mutable("insert")
        self._check_fingerprint(fingerprint)
        existing = self._row_of.get(key)
        if existing is not None and self._alive[existing]:
            raise ValueError(f"duplicate key {key!r}")
        # A tombstoned key may re-enter (a changed function re-submitted to
        # a long-lived index): the key takes over a fresh row, the dead row
        # stays unreachable until compaction forgets it.
        row = len(self._keys)
        self._ensure_capacity(row + 1, fingerprint.config.k)
        self._keys.append(key)
        self._row_of[key] = row
        self._fingerprints.append(fingerprint)
        self._alive[row] = True
        self._live_count += 1
        self._matrix_buf[row] = fingerprint.values
        bucket_keys = self._probe_keys(fingerprint)
        self._bands_buf[row] = bucket_keys
        self._bucket_insert_row(row, bucket_keys.tolist())

    def insert_batch(
        self, keys: Sequence[KeyT], fingerprints: Sequence[MinHashFingerprint]
    ) -> None:
        """Insert many members at once, band-hashing them in one pass.

        Equivalent to (and bit-identical with) inserting the pairs one by
        one in order, but the band hashes of the whole batch are one
        vectorized FNV-1a call and the fingerprint matrix is copied in
        bulk.
        """
        self._check_mutable("insert_batch")
        if len(keys) != len(fingerprints):
            raise ValueError("keys and fingerprints must have equal length")
        n = len(keys)
        if n == 0:
            return
        for key in keys:
            existing = self._row_of.get(key)
            if existing is not None and self._alive[existing]:
                raise ValueError(f"duplicate key {key!r}")
        if len(set(keys)) != n:
            raise ValueError("duplicate key inside batch")
        for fp in fingerprints:
            self._check_fingerprint(fp)

        base_row = len(self._keys)
        k = fingerprints[0].config.k
        self._ensure_capacity(base_row + n, k)
        values = np.stack([fp.values for fp in fingerprints])
        self._matrix_buf[base_row : base_row + n] = values

        bucket_keys = band_bucket_keys(values, self.rows, self.bands)
        self._bands_buf[base_row : base_row + n] = bucket_keys

        for offset, key in enumerate(keys):
            self._keys.append(key)
            self._row_of[key] = base_row + offset
        self._alive[base_row : base_row + n] = True
        self._fingerprints.extend(fingerprints)
        self._live_count += n

        if base_row == 0 and not self._buckets and self._base is None:
            # Columnar base layer: one stable argsort over all n*b keys.
            self._build_base(bucket_keys)
        else:
            for offset, row_keys in enumerate(bucket_keys.tolist()):
                self._bucket_insert_row(base_row + offset, row_keys)

    def remove(self, key: KeyT) -> None:
        """Lazily remove *key*; it stops appearing in query results.

        When tombstones exceed ``compact_ratio`` times the live rows the
        index compacts itself (default ratio 1.0: tombstones outnumber
        live rows).
        """
        row = self._find(key)
        if row is not None and self._alive[row]:
            self._alive[row] = False
            self._live_count -= 1
            self.removals += 1
            ratio = self.compact_ratio
            if ratio is not None:
                stored = len(self._keys)
                if (
                    stored >= _COMPACT_MIN_ROWS
                    and stored - self._live_count > ratio * self._live_count
                ):
                    self.compact()

    def compact(self) -> None:
        """Drop tombstoned rows and rebuild the bucket map.

        Relative insertion order of live rows is preserved, so the
        cap-window semantics of over-populated buckets stay stable.
        Removed keys are forgotten entirely (their rows, fingerprints and
        key mappings are freed).
        """
        self._check_mutable("compact")
        idx = np.flatnonzero(self._alive[: len(self._keys)])
        survivors = idx.tolist()
        n = len(survivors)
        self._keys = [self._keys[row] for row in survivors]
        self._fingerprints = [self._fingerprints[row] for row in survivors]
        self._alive[:n] = True
        self._alive[n:] = False
        self._row_of = {key: row for row, key in enumerate(self._keys)}
        if self._matrix_buf is not None:
            if self._buffers_shared:
                # A clone() snapshot still reads these rows — shuffle a
                # private copy instead of corrupting the shared matrices.
                self._matrix_buf = self._matrix_buf.copy()
                self._bands_buf = self._bands_buf.copy()
                self._buffers_shared = False
            self._matrix_buf[:n] = self._matrix_buf[idx]
            self._bands_buf[:n] = self._bands_buf[idx]
        self._buckets = {}
        self._base = None
        self._base_count = 0
        if n:
            self._build_base(self._bands_buf[:n])
        self.compactions += 1

    # -- snapshot clones ---------------------------------------------------------------
    def clone(self) -> "LSHIndex[KeyT]":
        """A copy-on-write clone for snapshot-isolated incremental commits.

        The clone shares the append-only fingerprint/band matrices with its
        source — appends by the clone land past the source's row count and
        are invisible to it — and shares the immutable columnar base bucket
        layer.  The alive mask and all list/dict bookkeeping are copied, so
        tombstones, overflow buckets and key mappings diverge independently.
        Compaction and capacity growth un-share the matrices before mutating
        them in place.
        """
        self._check_mutable("clone")
        dup = self.__class__.__new__(self.__class__)
        dup.rows = self.rows
        dup.bands = self.bands
        dup.bucket_cap = self.bucket_cap
        dup.compact_ratio = self.compact_ratio
        dup.compactions = self.compactions
        dup.removals = self.removals
        dup.queries = self.queries
        dup.capped_bucket_hits = self.capped_bucket_hits
        dup._buckets = {key: list(rows) for key, rows in self._buckets.items()}
        dup._base = self._base
        dup._base_count = self._base_count
        dup._keys = list(self._keys)
        dup._row_of = dict(self._row_of)
        dup._fingerprints = list(self._fingerprints)
        dup._alive = self._alive.copy()
        dup._live_count = self._live_count
        dup._matrix_buf = self._matrix_buf
        dup._bands_buf = self._bands_buf
        dup._buffers_shared = True
        dup._store = None
        self._buffers_shared = True
        return dup

    # -- bucket layers -----------------------------------------------------------------
    def _build_base(self, bucket_keys: np.ndarray) -> None:
        """Columnar bucket layer for rows ``0..n-1`` from their band keys."""
        n = bucket_keys.shape[0]
        self._base = build_columnar_buckets(
            n, self.bands, lambda lo, hi: bucket_keys[:, lo:hi]
        )
        self._base_count = n

    def _bucket_insert_row(self, row: int, row_keys: List[int]) -> None:
        """Append one row's band keys to the overflow bucket layer."""
        buckets = self._buckets
        for bucket_key in row_keys:
            bucket = buckets.get(bucket_key)
            if bucket is None:
                buckets[bucket_key] = [row]
            else:
                bucket.append(row)

    def _ensure_capacity(self, rows_needed: int, k: int) -> None:
        if self._matrix_buf is None:
            capacity = 256
            while capacity < rows_needed:
                capacity *= 2
            self._matrix_buf = np.empty((capacity, k), dtype=np.uint32)
            self._bands_buf = np.empty((capacity, self.bands), dtype=np.int64)
            self._alive = np.zeros(capacity, dtype=bool)
            return
        capacity = self._matrix_buf.shape[0]
        if rows_needed <= capacity:
            return
        used = len(self._keys)
        while capacity < rows_needed:
            capacity *= 2
        grown = np.empty((capacity, self._matrix_buf.shape[1]), dtype=np.uint32)
        grown[:used] = self._matrix_buf[:used]
        self._matrix_buf = grown
        grown_bands = np.empty((capacity, self.bands), dtype=np.int64)
        grown_bands[:used] = self._bands_buf[:used]
        self._bands_buf = grown_bands
        grown_alive = np.zeros(capacity, dtype=bool)
        grown_alive[:used] = self._alive[:used]
        self._alive = grown_alive
        # Growth copied into fresh arrays, so no snapshot shares them.
        self._buffers_shared = False

    def _matrix(self) -> np.ndarray:
        if self._matrix_buf is None:
            return np.empty((0, self.rows * self.bands), dtype=np.uint32)
        return self._matrix_buf[: len(self._keys)]

    # -- queries ---------------------------------------------------------------------
    def _probe_keys(self, fingerprint: MinHashFingerprint) -> np.ndarray:
        """The ``(bands,)`` bucket keys of one fingerprint."""
        return band_bucket_keys(fingerprint.values[None, :], self.rows, self.bands)[0]

    def _base_windows(self, me: int, band_keys: Optional[np.ndarray]) -> List[Windows]:
        """The probed buckets' windows into the columnar base layer.  A batch
        row reads its buckets' bounds from its own flat positions; any other
        row or probe binary-searches its band keys."""
        base = self._base
        if base is None:
            return []
        if 0 <= me < self._base_count:
            return [(base.rows, *base.row_windows(me))]
        return [(base.rows, *base.key_windows(band_keys))]

    def _candidate_rows(
        self, me: int, probe_keys: Optional[np.ndarray], stats: LSHQueryStats
    ) -> np.ndarray:
        """Live rows other than *me* sharing a capped bucket window with
        resident row *me* (or with the band keys *probe_keys* of an external
        probe), in order of first occurrence.

        Buckets are probed in band order.  Each bucket lists its base-layer
        members (ascending batch rows) then its overflow members in
        single-insert order — exactly the order a sequential insert would
        have produced — and only the first ``bucket_cap`` of them are ever
        examined (Section III-C: "we limit the number of fingerprint
        comparisons per bucket to 100").
        """
        band_keys = probe_keys
        if band_keys is None and (self._buckets or me >= self._base_count):
            band_keys = self._bands_buf[me]
        overflow = None
        if self._buckets:
            overflow = list(map(self._buckets.get, band_keys.tolist(), repeat((), self.bands)))
        runs, _, capped = capped_runs(self._base_windows(me, band_keys), self.bucket_cap, overflow)
        stats.buckets_probed += self.bands
        stats.capped_buckets += capped
        self.capped_bucket_hits += capped
        # Drop dead rows and *me*, then keep each row's first occurrence;
        # both steps cost O(runs), never O(stored rows).
        keep = self._alive[runs]
        if me >= 0:
            keep &= runs != me
        runs = runs[keep]
        return runs[first_occurrences(runs)]

    def _score(
        self,
        values: np.ndarray,
        stats: Optional[LSHQueryStats],
        me: int,
        probe_keys: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Gather the candidates of resident row *me* (or of *probe_keys*
        for an external probe, ``me=-1``) and score them: the estimated
        Jaccard similarity is the fraction of minhash entries equal to
        *values*."""
        stats = stats if stats is not None else LSHQueryStats()
        with trace.span("lsh_query") as sp:
            probed0, capped0 = stats.buckets_probed, stats.capped_buckets
            self.queries += 1
            candidates = self._candidate_rows(me, probe_keys, stats)
            found = candidates.shape[0]
            stats.candidates_seen += found
            stats.comparisons += found
            sp.set(
                buckets_probed=stats.buckets_probed - probed0,
                capped_buckets=stats.capped_buckets - capped0,
                candidates=found,
            )
            if not found:
                return candidates, None
            # Integer count over k: the same float64 as the mean, cheaper.
            equal = (self._matrix()[candidates] == values).sum(axis=1, dtype=np.int32)
            return candidates, equal / values.shape[0]

    def _pairs(
        self, candidates: np.ndarray, sims: Optional[np.ndarray]
    ) -> List[Tuple[KeyT, float]]:
        if sims is None:
            return []
        keys = self._keys
        return [(keys[row], s) for row, s in zip(candidates.tolist(), sims.tolist())]

    def query(
        self, key: KeyT, stats: Optional[LSHQueryStats] = None
    ) -> List[Tuple[KeyT, float]]:
        """All live candidates sharing ≥1 bucket with *key*, with similarities.

        Within each bucket at most ``bucket_cap`` members are examined;
        highly similar pairs share several buckets, so a cap rarely hides
        them (paper Section IV-E).
        """
        me = self._row(key)
        return self._pairs(*self._score(self._matrix()[me], stats, me))

    def probe(
        self, fingerprint: MinHashFingerprint, stats: Optional[LSHQueryStats] = None
    ) -> List[Tuple[KeyT, float]]:
        """Candidates for an *external* fingerprint (not resident in the index).

        The serve-path query primitive: band-hash the probe, scan the same
        capped bucket windows a resident query would, and return
        ``(key, similarity)`` for every live member touched.  Read-only —
        the probe fingerprint is never inserted.
        """
        self._check_fingerprint(fingerprint)
        probe_keys = self._probe_keys(fingerprint)
        return self._pairs(*self._score(fingerprint.values, stats, -1, probe_keys))

    def best_match(
        self, key: KeyT, stats: Optional[LSHQueryStats] = None
    ) -> Optional[Tuple[KeyT, float]]:
        """The nearest live candidate by estimated Jaccard similarity (the
        first one on ties, in candidate order)."""
        me = self._row(key)
        candidates, sims = self._score(self._matrix()[me], stats, me)
        if sims is None:
            return None
        best = int(sims.argmax())
        return self._keys[int(candidates[best])], float(sims[best])

    # -- diagnostics ------------------------------------------------------------------
    def index_stats(self) -> Dict[str, int]:
        """Structural and cumulative counters for the metrics registry:
        live vs stored rows (the difference is tombstones), removal and
        compaction counts, layer sizes, query traffic and cap pressure."""
        stored = len(self._keys)
        return {
            "rows": self.rows,
            "bands": self.bands,
            "bucket_cap": self.bucket_cap if self.bucket_cap is not None else -1,
            "live": self._live_count,
            "stored": stored,
            "tombstones": stored - self._live_count,
            "removals": self.removals,
            "compactions": self.compactions,
            "base_rows": self._base_count,
            "overflow_buckets": len(self._buckets),
            "queries": self.queries,
            "capped_bucket_hits": self.capped_bucket_hits,
        }

    def _live_bucket_populations(self) -> List[int]:
        """Live population of every bucket (both layers merged by key)."""
        by_key = self._base.live_populations(self._alive) if self._base is not None else {}
        for bucket_key, rows in self._buckets.items():
            live = int(np.count_nonzero(self._alive[rows]))
            by_key[bucket_key] = by_key.get(bucket_key, 0) + live
        return [p for p in by_key.values() if p > 0]

    def bucket_stats(self) -> BucketStats:
        populations = sorted(self._live_bucket_populations(), reverse=True)
        return BucketStats(
            total_buckets=len(populations),
            max_population=populations[0] if populations else 0,
            overpopulated=sum(1 for p in populations if p >= 128),
            populations=populations,
        )

    def bucket_summary(self) -> Dict[str, int]:
        """Scalar bucket-distribution gauges for the metrics registry.

        Same aggregates as :meth:`bucket_stats` but without materializing
        or sorting the populations list — cheap enough to sample per run.
        """
        pops = self._live_bucket_populations()
        return {
            "total_buckets": len(pops),
            "max_population": max(pops) if pops else 0,
            "overpopulated": sum(1 for p in pops if p >= 128),
        }
