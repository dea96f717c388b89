"""Content-addressed MinHash fingerprint cache.

Merge workloads are full of identical-bodied functions: exact duplicates
in the input, and whole re-runs over the same module (benchmark repeats,
a warm serve daemon).  Fingerprints are pure functions of the *encoded
instruction stream* and the :class:`MinHashConfig`, so they can be shared
content-addressed:

* key = stream length + two 32-bit FNV-1a passes over the stream (one
  unsalted, one salted) + the config; :func:`content_keys` computes both
  passes for every stream of a pack in one sweep over word columns;
* an in-memory LRU layer bounds resident entries (``maxsize``);
* an optional on-disk layer (``.repro-cache/`` by default) persists
  fingerprints across CLI invocations as one ``.npz`` per config.

Only whole packs are looked up (:func:`~repro.fingerprint.batch.minhash_module`):
keying a single stream costs more than fingerprinting it.

Hit/miss/eviction counters feed the pipeline profiler and the perf bench.
"""

from __future__ import annotations

import json
import os
import threading
import zipfile
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .fnv import FNV32_OFFSET, FNV32_PRIME, fnv1a_32_ints
from .minhash import MinHashConfig

__all__ = ["CacheStats", "FingerprintCache", "DEFAULT_CACHE_DIR", "CACHE_FORMAT_VERSION"]

DEFAULT_CACHE_DIR = ".repro-cache"

# Version of the .npz disk layout.  Bump when the key derivation or the
# array schema changes; files with a different (or missing) version are
# skipped on load — a cold cache is always correct, silently mixing
# incompatible fingerprints never is.
CACHE_FORMAT_VERSION = 2

# Second-pass key salt: prepended to the stream so the two 32-bit FNV-1a
# hashes are independent, giving a 64-bit effective content key.
_KEY_SALT = 0x9E3779B9
# The FNV-1a state after hashing the salt: where the salted pass starts.
_SALTED_OFFSET = fnv1a_32_ints([_KEY_SALT])

# (stream length, fnv1a(stream), fnv1a(salt || stream))
ContentKey = Tuple[int, int, int]
# ((k, shingle_size), length, h1, h2)
ConfigKey = Tuple[int, int]
CacheKey = Tuple[ConfigKey, int, int, int]


@dataclass
class CacheStats:
    """Cache effectiveness counters (reported by the perf bench)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    disk_entries_loaded: int = 0
    # Disk files rejected on load, split by why: a *version* skip means a
    # file written under an older/newer CACHE_FORMAT_VERSION (expected
    # after an upgrade — cold start, not data loss), an *invalid* skip
    # means a malformed/truncated/inconsistent file.  The undifferentiated
    # total is kept for report compatibility.
    disk_files_skipped_version: int = 0
    disk_files_skipped_invalid: int = 0

    @property
    def disk_files_skipped(self) -> int:
        return self.disk_files_skipped_version + self.disk_files_skipped_invalid

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "disk_entries_loaded": self.disk_entries_loaded,
            "disk_files_skipped": self.disk_files_skipped,
            "disk_files_skipped_version": self.disk_files_skipped_version,
            "disk_files_skipped_invalid": self.disk_files_skipped_invalid,
            "hit_rate": self.hit_rate,
        }


def _config_key(config: MinHashConfig) -> ConfigKey:
    return (config.k, config.shingle_size)


def content_keys(flat: np.ndarray, lens: np.ndarray) -> List[ContentKey]:
    """Content keys for every stream packed in ``(flat, lens)``.

    Both FNV-1a passes run in one sweep over word columns, with
    ``fnv1a_32_array_u32``'s arithmetic (xor one little-endian byte, then
    multiply in uint32).  The streams are ordered longest first (stably),
    so the streams still longer than column *j* are a prefix of that
    order; column *j* gathers their word *j* straight from ``flat`` and
    steps the unsalted and salted states together as one ``(2, n)``
    array.  No padded matrix is built: scratch is O(n), and a module
    costs about ten array operations per word of its longest stream.
    """
    lens = np.asarray(lens, dtype=np.int64)
    n = lens.shape[0]
    if n == 0:
        return []
    words = np.asarray(flat, dtype=np.uint64).astype("<u4")
    order = np.argsort(-lens, kind="stable")
    by_len = lens[order]
    # active[j] = how many streams are longer than j
    active = np.searchsorted(-by_len, -np.arange(int(by_len[0])), side="left")
    cursor = (np.cumsum(lens) - lens)[order]
    state = np.empty((2, n), dtype=np.uint32)
    state[0] = FNV32_OFFSET
    state[1] = _SALTED_OFFSET
    column = np.empty(n, dtype="<u4")
    octets = column.view(np.uint8).reshape(n, 4)
    prime = np.uint32(FNV32_PRIME)
    for m in active.tolist():
        np.take(words, cursor[:m], out=column[:m])
        cursor[:m] += 1
        live = state[:, :m]
        for byte in range(4):
            np.bitwise_xor(live, octets[:m, byte], out=live)
            np.multiply(live, prime, out=live)
    keys = np.empty((2, n), dtype=np.uint32)
    keys[:, order] = state
    return list(zip(lens.tolist(), keys[0].tolist(), keys[1].tolist()))


class FingerprintCache:
    """LRU fingerprint store keyed by encoded-stream content + config.

    Thread-safe (one lock around the entry map).
    """

    def __init__(
        self,
        maxsize: int = 1 << 20,
        directory: Optional[str] = None,
    ) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self.directory = directory
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[CacheKey, Tuple[np.ndarray, int]]" = OrderedDict()
        if directory is not None:
            self.load(directory)

    def __len__(self) -> int:
        return len(self._entries)

    # -- keying ----------------------------------------------------------------------
    def keys_for(
        self, flat: np.ndarray, lens: np.ndarray, config: MinHashConfig
    ) -> List[CacheKey]:
        """Full cache keys for every stream packed in ``(flat, lens)``."""
        ckey = _config_key(config)
        return [(ckey, length, h1, h2) for length, h1, h2 in content_keys(flat, lens)]

    # -- lookup ----------------------------------------------------------------------
    def get(self, key: CacheKey) -> Optional[Tuple[np.ndarray, int]]:
        """``(values, num_shingles)`` for *key*, or None on a miss.

        The values array is returned as a copy so callers can never mutate
        a cached fingerprint in place.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry[0].copy(), entry[1]

    def put(self, key: CacheKey, values: np.ndarray, num_shingles: int) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return
            self._entries[key] = (
                np.array(values, dtype=np.uint32, copy=True),
                int(num_shingles),
            )
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    # -- disk layer ------------------------------------------------------------------
    def _config_path(self, directory: str, ckey: ConfigKey) -> str:
        k, shingle = ckey
        return os.path.join(directory, f"minhash-k{k}-s{shingle}.npz")

    def save(self, directory: Optional[str] = None) -> List[str]:
        """Persist all entries under *directory* (one ``.npz`` per config).

        Returns the written paths.  A ``stats.json`` sidecar records the
        session counters for post-hoc inspection.
        """
        directory = directory or self.directory or DEFAULT_CACHE_DIR
        os.makedirs(directory, exist_ok=True)
        with self._lock:
            by_config: Dict[ConfigKey, List[Tuple[CacheKey, Tuple[np.ndarray, int]]]] = {}
            for key, entry in self._entries.items():
                by_config.setdefault(key[0], []).append((key, entry))
        paths = []
        for ckey, items in by_config.items():
            path = self._config_path(directory, ckey)
            np.savez_compressed(
                path,
                format_version=np.array([CACHE_FORMAT_VERSION], dtype=np.int64),
                config=np.array(ckey, dtype=np.int64),
                lengths=np.array([key[1] for key, _ in items], dtype=np.int64),
                h1=np.array([key[2] for key, _ in items], dtype=np.uint64),
                h2=np.array([key[3] for key, _ in items], dtype=np.uint64),
                num_shingles=np.array([e[1] for _, e in items], dtype=np.int64),
                values=np.stack([e[0] for _, e in items]),
            )
            paths.append(path)
        with open(os.path.join(directory, "stats.json"), "w", encoding="utf-8") as fh:
            json.dump(self.stats.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return paths

    def _read_npz(self, path: str):
        """Parse and validate one saved ``.npz``.

        Returns ``(parsed, skip_reason)``: on success *parsed* is the
        ``(ckey, lengths, h1, h2, counts, values)`` tuple and *skip_reason*
        is None; otherwise *parsed* is None and *skip_reason* is
        ``"version"`` (well-formed file written under a different
        CACHE_FORMAT_VERSION — the expected post-upgrade cold start) or
        ``"invalid"`` (malformed/truncated/inconsistent file).  Either way
        a rejected file means a cold start for its entries, never an
        exception and never silently mixed-in fingerprints computed under
        different rules.
        """
        try:
            with np.load(path) as payload:
                version = payload["format_version"]
                if version.shape != (1,):
                    return None, "invalid"
                if int(version[0]) != CACHE_FORMAT_VERSION:
                    return None, "version"
                cfg = payload["config"]
                if cfg.shape != (2,):
                    return None, "invalid"
                ckey = (int(cfg[0]), int(cfg[1]))
                lengths = payload["lengths"]
                h1 = payload["h1"]
                h2 = payload["h2"]
                counts = payload["num_shingles"]
                values = payload["values"]
        except (OSError, KeyError, ValueError, zipfile.BadZipFile):
            return None, "invalid"
        n = lengths.shape[0]
        if not (h1.shape == h2.shape == counts.shape == (n,)):
            return None, "invalid"
        # The values matrix must hold one k-wide row per key, with k from
        # the config the file claims — a mismatch means the file was
        # written under different encoding rules than its name suggests.
        if values.ndim != 2 or values.shape != (n, ckey[0]):
            return None, "invalid"
        return (ckey, lengths, h1, h2, counts, values), None

    def load(self, directory: Optional[str] = None) -> int:
        """Load previously saved entries from *directory*; returns the count.

        Files that fail validation are skipped and counted by reason —
        ``stats.disk_files_skipped_version`` for format-version mismatches,
        ``stats.disk_files_skipped_invalid`` for malformed arrays or
        truncated zips — and the cache simply starts cold for those
        entries.
        """
        directory = directory or self.directory or DEFAULT_CACHE_DIR
        if not os.path.isdir(directory):
            return 0
        loaded = 0
        for name in sorted(os.listdir(directory)):
            if not name.endswith(".npz"):
                continue
            parsed, skip_reason = self._read_npz(os.path.join(directory, name))
            if parsed is None:
                if skip_reason == "version":
                    self.stats.disk_files_skipped_version += 1
                else:
                    self.stats.disk_files_skipped_invalid += 1
                continue
            ckey, lengths, h1, h2, counts, values = parsed
            with self._lock:
                for i in range(lengths.shape[0]):
                    key = (ckey, int(lengths[i]), int(h1[i]), int(h2[i]))
                    if key not in self._entries:
                        self._entries[key] = (
                            values[i].astype(np.uint32, copy=True),
                            int(counts[i]),
                        )
                        loaded += 1
        self.stats.disk_entries_loaded += loaded
        return loaded

    # -- columnar-store interop --------------------------------------------------------
    def spill_to_store(self, store) -> int:
        """Append entries matching *store*'s config into a
        :class:`~repro.fingerprint.store.FingerprintStore`; returns the
        number appended.  Entries whose content key is already present in
        the store are skipped (the store is append-only).  The store must
        have been created with ``store_encoded=False`` — a cache holds no
        encoded streams.
        """
        ckey = _config_key(store.config)
        existing = store.content_key_set()
        with self._lock:
            pending = [
                (key, entry)
                for key, entry in self._entries.items()
                if key[0] == ckey and (key[1], key[2], key[3]) not in existing
            ]
        if not pending:
            return 0
        store.append_fingerprints(
            values=np.stack([entry[0] for _, entry in pending]),
            lengths=np.array([key[1] for key, _ in pending], dtype=np.int64),
            h1=np.array([key[2] for key, _ in pending], dtype=np.int64),
            h2=np.array([key[3] for key, _ in pending], dtype=np.int64),
            num_shingles=np.array([entry[1] for _, entry in pending], dtype=np.int64),
        )
        return len(pending)

    def load_from_store(self, store, limit: Optional[int] = None) -> int:
        """Warm the cache from a :class:`FingerprintStore`; returns the count.

        Rows stream through the store's memmap in order (oldest first), so
        with ``limit`` (or ``maxsize``) pressure the newest rows win LRU.
        """
        ckey = _config_key(store.config)
        meta = np.asarray(store.meta)
        values = store.values
        n = meta.shape[0] if limit is None else min(meta.shape[0], limit)
        loaded = 0
        with self._lock:
            for i in range(n):
                key = (ckey, int(meta[i, 0]), int(meta[i, 1]), int(meta[i, 2]))
                if key in self._entries:
                    continue
                self._entries[key] = (
                    np.array(values[i], dtype=np.uint32, copy=True),
                    int(meta[i, 3]),
                )
                loaded += 1
                while len(self._entries) > self.maxsize:
                    self._entries.popitem(last=False)
                    self.stats.evictions += 1
        self.stats.disk_entries_loaded += loaded
        return loaded
