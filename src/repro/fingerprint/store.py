"""Memory-mapped, append-only columnar fingerprint store.

The corpus-scale regime (10^5–10^6 functions, ROADMAP item 2) cannot hold
``MinHashFingerprint`` objects — or even one dense in-RAM signature matrix
plus per-function Python bookkeeping — resident for the whole corpus.  This
module streams the output of :func:`repro.fingerprint.batch.encode_module` /
:func:`minhash_encoded_batch` into a directory of flat, append-only columns
that are read back through ``np.memmap``, so working-set size is governed by
the page cache rather than corpus size:

``header.json``
    ``{"magic": "f3m-fpstore", "format_version": 2, "config": {...},
    "count": n, "encoded_total": m, "store_encoded": bool}`` — rewritten
    atomically (tmp + rename) after every append, so a crash mid-append
    leaves at worst unreferenced trailing bytes.
``values.u32``
    the ``(n, k)`` uint32 signature matrix, row-major.
``meta.i64``
    ``(n, 4)`` int64 sidecar: encoded stream length, the two salted FNV-1a
    content hashes (:func:`repro.fingerprint.cache.content_keys`), and the
    shingle count.  Rows are exactly the :class:`FingerprintCache` key +
    entry minus the values, which is what lets the cache spill into and
    load from a store.
``encoded.u64`` / ``offsets.i64`` (optional, ``store_encoded=True``)
    the concatenated encoded instruction streams and per-row cumulative
    end offsets, so the store doubles as the corpus container: any row
    range's streams can be sliced back out without re-generating IR.

Appends are plain ``O_APPEND``-style writes of contiguous bytes; memmap
views are recreated lazily after each append.  Fingerprints written through
:meth:`FingerprintStore.append_encoded` are bit-identical to the in-RAM
path because they come from the same ``minhash_encoded_batch`` call.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from .batch import minhash_encoded_batch
from .cache import content_keys
from .minhash import MinHashConfig

__all__ = ["FingerprintStore", "StoreFormatError"]

_MAGIC = "f3m-fpstore"
_FORMAT_VERSION = 2

# meta.i64 column indices
_META_LEN, _META_H1, _META_H2, _META_SHINGLES = 0, 1, 2, 3
_META_COLS = 4


class StoreFormatError(ValueError):
    """The directory is not a fingerprint store this code can read."""


def _config_to_dict(config: MinHashConfig) -> Dict[str, object]:
    return {"k": config.k, "shingle_size": config.shingle_size}


def _config_from_dict(payload: Dict[str, object]) -> MinHashConfig:
    return MinHashConfig(k=int(payload["k"]), shingle_size=int(payload["shingle_size"]))


class FingerprintStore:
    """Append-only columnar MinHash store for one :class:`MinHashConfig`."""

    def __init__(self, directory: str, config: MinHashConfig, store_encoded: bool,
                 count: int, encoded_total: int) -> None:
        self.directory = directory
        self.config = config
        self.store_encoded = store_encoded
        self._count = count
        self._encoded_total = encoded_total
        self._values_mm: Optional[np.memmap] = None
        self._meta_mm: Optional[np.memmap] = None
        self._encoded_mm: Optional[np.memmap] = None
        self._offsets_mm: Optional[np.memmap] = None

    # -- lifecycle -------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        directory: str,
        config: Optional[MinHashConfig] = None,
        *,
        store_encoded: bool = True,
    ) -> "FingerprintStore":
        """Create an empty store at *directory* (must not already be one)."""
        config = config or MinHashConfig()
        os.makedirs(directory, exist_ok=True)
        if os.path.exists(os.path.join(directory, "header.json")):
            raise StoreFormatError(f"store already exists at {directory}")
        store = cls(directory, config, store_encoded, 0, 0)
        for name in store._column_names():
            # Truncate stale column files from a half-deleted store.
            open(store._path(name), "wb").close()
        store._write_header()
        return store

    @classmethod
    def open(cls, directory: str) -> "FingerprintStore":
        """Open an existing store, validating magic and format version."""
        path = os.path.join(directory, "header.json")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                header = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreFormatError(f"unreadable store header at {path}: {exc}") from exc
        if header.get("magic") != _MAGIC:
            raise StoreFormatError(f"{path}: bad magic {header.get('magic')!r}")
        if header.get("format_version") != _FORMAT_VERSION:
            raise StoreFormatError(
                f"{path}: format_version {header.get('format_version')!r}, "
                f"expected {_FORMAT_VERSION}"
            )
        try:
            config = _config_from_dict(header["config"])
            count = int(header["count"])
            encoded_total = int(header["encoded_total"])
            store_encoded = bool(header["store_encoded"])
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreFormatError(f"{path}: malformed header: {exc}") from exc
        store = cls(directory, config, store_encoded, count, encoded_total)
        store._check_column_sizes()
        return store

    def _path(self, name: str) -> str:
        return os.path.join(self.directory, name)

    def _column_names(self) -> Tuple[str, ...]:
        names = ("values.u32", "meta.i64")
        if self.store_encoded:
            names += ("encoded.u64", "offsets.i64")
        return names

    def _write_header(self) -> None:
        header = {
            "magic": _MAGIC,
            "format_version": _FORMAT_VERSION,
            "config": _config_to_dict(self.config),
            "count": self._count,
            "encoded_total": self._encoded_total,
            "store_encoded": self.store_encoded,
        }
        tmp = self._path("header.json.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, self._path("header.json"))

    def _check_column_sizes(self) -> None:
        expect = {
            "values.u32": self._count * self.config.k * 4,
            "meta.i64": self._count * _META_COLS * 8,
        }
        if self.store_encoded:
            expect["encoded.u64"] = self._encoded_total * 8
            expect["offsets.i64"] = self._count * 8
        for name, size in expect.items():
            try:
                actual = os.path.getsize(self._path(name))
            except OSError as exc:
                raise StoreFormatError(f"missing column {name}: {exc}") from exc
            if actual < size:
                raise StoreFormatError(
                    f"column {name} truncated: {actual} bytes < expected {size}"
                )

    # -- views -----------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    def _invalidate(self) -> None:
        self._values_mm = None
        self._meta_mm = None
        self._encoded_mm = None
        self._offsets_mm = None

    @property
    def values(self) -> np.ndarray:
        """The ``(n, k)`` uint32 signature matrix, memory-mapped read-only."""
        if self._count == 0:
            return np.empty((0, self.config.k), dtype=np.uint32)
        if self._values_mm is None or self._values_mm.shape[0] != self._count:
            self._values_mm = np.memmap(
                self._path("values.u32"), dtype=np.uint32, mode="r",
                shape=(self._count, self.config.k),
            )
        return self._values_mm

    @property
    def meta(self) -> np.ndarray:
        """The ``(n, 4)`` int64 sidecar: length, h1, h2, num_shingles."""
        if self._count == 0:
            return np.empty((0, _META_COLS), dtype=np.int64)
        if self._meta_mm is None or self._meta_mm.shape[0] != self._count:
            self._meta_mm = np.memmap(
                self._path("meta.i64"), dtype=np.int64, mode="r",
                shape=(self._count, _META_COLS),
            )
        return self._meta_mm

    @property
    def lengths(self) -> np.ndarray:
        return self.meta[:, _META_LEN]

    @property
    def num_shingles(self) -> np.ndarray:
        return self.meta[:, _META_SHINGLES]

    @property
    def offsets(self) -> np.ndarray:
        """Per-row cumulative end offsets into ``encoded.u64``."""
        if not self.store_encoded:
            raise StoreFormatError("store was created without encoded streams")
        if self._count == 0:
            return np.empty(0, dtype=np.int64)
        if self._offsets_mm is None or self._offsets_mm.shape[0] != self._count:
            self._offsets_mm = np.memmap(
                self._path("offsets.i64"), dtype=np.int64, mode="r",
                shape=(self._count,),
            )
        return self._offsets_mm

    @property
    def encoded(self) -> np.ndarray:
        if not self.store_encoded:
            raise StoreFormatError("store was created without encoded streams")
        if self._encoded_total == 0:
            return np.empty(0, dtype=np.uint64)
        if self._encoded_mm is None or self._encoded_mm.shape[0] != self._encoded_total:
            self._encoded_mm = np.memmap(
                self._path("encoded.u64"), dtype=np.uint64, mode="r",
                shape=(self._encoded_total,),
            )
        return self._encoded_mm

    def encoded_slice(self, start: int, stop: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(flat, lens)`` of rows ``[start, stop)`` — the exact shape
        ``encode_module`` produced, sliceable without loading other rows."""
        if not (0 <= start <= stop <= self._count):
            raise IndexError(f"row range [{start}, {stop}) out of [0, {self._count})")
        lens = np.asarray(self.lengths[start:stop])
        off = self.offsets
        lo = int(off[start - 1]) if start > 0 else 0
        hi = int(off[stop - 1]) if stop > start else lo
        return np.asarray(self.encoded[lo:hi]), lens

    def iter_chunks(self, chunk_rows: int) -> Iterator[Tuple[int, int, np.ndarray]]:
        """Yield ``(start, stop, values_view)`` over the store in row chunks."""
        if chunk_rows <= 0:
            raise ValueError("chunk_rows must be positive")
        values = self.values
        for start in range(0, self._count, chunk_rows):
            stop = min(start + chunk_rows, self._count)
            yield start, stop, values[start:stop]

    # -- appends ---------------------------------------------------------------------
    def _append_column(self, name: str, data: np.ndarray, dtype) -> None:
        with open(self._path(name), "ab") as fh:
            fh.write(np.ascontiguousarray(data, dtype=dtype).tobytes())

    def append_encoded(self, flat: np.ndarray, lens: np.ndarray) -> Tuple[int, int]:
        """MinHash the encoded streams with the store's config and append.

        *flat*/*lens* are one ``encode_module`` output.  Returns the
        ``[start, stop)`` row range the batch landed in.  Fingerprints are
        produced by the same :func:`minhash_encoded_batch` the in-RAM path
        uses, so stored signatures are bit-identical to it.
        """
        flat = np.asarray(flat, dtype=np.uint64)
        lens = np.asarray(lens, dtype=np.int64)
        values, counts = minhash_encoded_batch(flat, lens, self.config)
        keys = content_keys(flat, lens)
        meta = np.empty((lens.shape[0], _META_COLS), dtype=np.int64)
        meta[:, _META_LEN] = lens
        meta[:, _META_H1] = [h1 for _, h1, _ in keys]
        meta[:, _META_H2] = [h2 for _, _, h2 in keys]
        meta[:, _META_SHINGLES] = counts
        return self._append_rows(values, meta, flat, lens)

    def append_fingerprints(
        self,
        values: np.ndarray,
        lengths: np.ndarray,
        h1: np.ndarray,
        h2: np.ndarray,
        num_shingles: np.ndarray,
    ) -> Tuple[int, int]:
        """Append pre-computed fingerprints (cache spill path).

        Only valid on stores created with ``store_encoded=False`` — the
        encoded streams are not available from a fingerprint cache, and a
        partially-populated encoded column would desynchronize the layout.
        """
        if self.store_encoded:
            raise StoreFormatError(
                "append_fingerprints requires a store_encoded=False store"
            )
        n = np.asarray(values).shape[0]
        meta = np.empty((n, _META_COLS), dtype=np.int64)
        meta[:, _META_LEN] = np.asarray(lengths, dtype=np.int64)
        meta[:, _META_H1] = np.asarray(h1, dtype=np.int64)
        meta[:, _META_H2] = np.asarray(h2, dtype=np.int64)
        meta[:, _META_SHINGLES] = np.asarray(num_shingles, dtype=np.int64)
        return self._append_rows(np.asarray(values), meta, None, None)

    def _append_rows(
        self,
        values: np.ndarray,
        meta: np.ndarray,
        flat: Optional[np.ndarray],
        lens: Optional[np.ndarray],
    ) -> Tuple[int, int]:
        n = values.shape[0]
        if values.shape[1] != self.config.k:
            raise ValueError(f"values have k={values.shape[1]}, store has k={self.config.k}")
        if n == 0:
            return self._count, self._count
        self._append_column("values.u32", values, np.uint32)
        self._append_column("meta.i64", meta, np.int64)
        if self.store_encoded:
            self._append_column("encoded.u64", flat, np.uint64)
            new_offsets = self._encoded_total + np.cumsum(lens, dtype=np.int64)
            self._append_column("offsets.i64", new_offsets, np.int64)
            self._encoded_total += int(flat.shape[0])
        start = self._count
        self._count += n
        self._write_header()
        self._invalidate()
        return start, self._count

    # -- diagnostics -----------------------------------------------------------------
    def content_key_set(self) -> set:
        """All ``(length, h1, h2)`` content keys currently stored."""
        meta = np.asarray(self.meta)
        return set(
            zip(
                meta[:, _META_LEN].tolist(),
                meta[:, _META_H1].tolist(),
                meta[:, _META_H2].tolist(),
            )
        )

    def stats(self) -> Dict[str, object]:
        """Scalar store gauges for the metrics registry / bench metadata."""
        on_disk = 0
        for name in self._column_names():
            try:
                on_disk += os.path.getsize(self._path(name))
            except OSError:
                pass
        return {
            "count": self._count,
            "k": self.config.k,
            "encoded_total": self._encoded_total,
            "store_encoded": self.store_encoded,
            "bytes_on_disk": on_disk,
            "format_version": _FORMAT_VERSION,
        }
