"""Tests for the memmap columnar FingerprintStore and its cache interop."""

import json
import os

import numpy as np
import pytest

from repro.fingerprint import (
    FingerprintCache,
    FingerprintStore,
    MinHashConfig,
    StoreFormatError,
)
from repro.fingerprint.batch import minhash_encoded_batch
from repro.fingerprint.cache import content_keys

CFG = MinHashConfig(k=16)


def _pack(streams):
    lens = np.array([len(s) for s in streams], dtype=np.int64)
    flat = np.array([v for s in streams for v in s], dtype=np.uint64)
    return flat, lens


def _streams(n, seed=3):
    rng = np.random.RandomState(seed)
    return [
        [int(v) for v in rng.randint(0, 1000, size=rng.randint(2, 9))]
        for _ in range(n)
    ]


class TestRoundTrip:
    def test_append_encoded_bit_identical(self, tmp_path):
        streams = _streams(25)
        flat, lens = _pack(streams)
        store = FingerprintStore.create(str(tmp_path / "s"), CFG)
        store.append_encoded(flat, lens)
        expected_values, expected_counts = minhash_encoded_batch(flat, lens, CFG)
        assert len(store) == 25
        assert np.array_equal(np.asarray(store.values), expected_values)
        assert np.array_equal(np.asarray(store.num_shingles), expected_counts)
        assert np.array_equal(np.asarray(store.lengths), lens)

    def test_chunked_appends_equal_one_shot(self, tmp_path):
        streams = _streams(30)
        flat, lens = _pack(streams)
        whole = FingerprintStore.create(str(tmp_path / "whole"), CFG)
        whole.append_encoded(flat, lens)
        chunked = FingerprintStore.create(str(tmp_path / "chunked"), CFG)
        for lo in range(0, 30, 7):
            hi = min(lo + 7, 30)
            cf, cl = _pack(streams[lo:hi])
            chunked.append_encoded(cf, cl)
        assert np.array_equal(np.asarray(whole.values), np.asarray(chunked.values))
        assert np.array_equal(np.asarray(whole.meta), np.asarray(chunked.meta))
        assert np.array_equal(np.asarray(whole.encoded), np.asarray(chunked.encoded))

    def test_encoded_slice_mid_range(self, tmp_path):
        streams = _streams(12)
        flat, lens = _pack(streams)
        store = FingerprintStore.create(str(tmp_path / "s"), CFG)
        store.append_encoded(flat, lens)
        got_flat, got_lens = store.encoded_slice(4, 9)
        want_flat, want_lens = _pack(streams[4:9])
        assert np.array_equal(got_flat, want_flat)
        assert np.array_equal(got_lens, want_lens)
        full_flat, full_lens = store.encoded_slice(0, 12)
        assert np.array_equal(full_flat, flat)
        assert np.array_equal(full_lens, lens)

    def test_reopen_matches(self, tmp_path):
        flat, lens = _pack(_streams(10))
        store = FingerprintStore.create(str(tmp_path / "s"), CFG)
        store.append_encoded(flat, lens)
        reopened = FingerprintStore.open(str(tmp_path / "s"))
        assert reopened.config == CFG
        assert len(reopened) == 10
        assert np.array_equal(np.asarray(reopened.values), np.asarray(store.values))

    def test_iter_chunks_covers_store(self, tmp_path):
        flat, lens = _pack(_streams(11))
        store = FingerprintStore.create(str(tmp_path / "s"), CFG)
        store.append_encoded(flat, lens)
        seen = []
        for start, stop, view in store.iter_chunks(4):
            assert view.shape == (stop - start, CFG.k)
            seen.append((start, stop))
        assert seen == [(0, 4), (4, 8), (8, 11)]


class TestValidation:
    def test_create_refuses_existing(self, tmp_path):
        FingerprintStore.create(str(tmp_path / "s"), CFG)
        with pytest.raises(StoreFormatError, match="already exists"):
            FingerprintStore.create(str(tmp_path / "s"), CFG)

    def test_open_rejects_bad_magic(self, tmp_path):
        store = FingerprintStore.create(str(tmp_path / "s"), CFG)
        header_path = os.path.join(store.directory, "header.json")
        with open(header_path) as fh:
            header = json.load(fh)
        header["magic"] = "not-a-store"
        with open(header_path, "w") as fh:
            json.dump(header, fh)
        with pytest.raises(StoreFormatError, match="bad magic"):
            FingerprintStore.open(store.directory)

    @pytest.mark.parametrize("version", [1, 99])
    def test_open_rejects_future_version(self, tmp_path, version):
        """A newer store, or one of format 1 (whose config also carried
        the salt seed and an independent-hashes flag), is refused."""
        store = FingerprintStore.create(str(tmp_path / "s"), CFG)
        header_path = os.path.join(store.directory, "header.json")
        with open(header_path) as fh:
            header = json.load(fh)
        header["format_version"] = version
        if version == 1:
            header["config"].update(seed=0xF3F3F3, independent_hashes=False)
        with open(header_path, "w") as fh:
            json.dump(header, fh)
        with pytest.raises(StoreFormatError, match="format_version"):
            FingerprintStore.open(store.directory)

    def test_open_rejects_truncated_column(self, tmp_path):
        flat, lens = _pack(_streams(8))
        store = FingerprintStore.create(str(tmp_path / "s"), CFG)
        store.append_encoded(flat, lens)
        values_path = os.path.join(store.directory, "values.u32")
        with open(values_path, "r+b") as fh:
            fh.truncate(os.path.getsize(values_path) // 2)
        with pytest.raises(StoreFormatError, match="truncated"):
            FingerprintStore.open(store.directory)

    def test_append_fingerprints_needs_bare_store(self, tmp_path):
        store = FingerprintStore.create(str(tmp_path / "s"), CFG)
        with pytest.raises(StoreFormatError, match="store_encoded"):
            store.append_fingerprints(
                np.zeros((1, CFG.k), dtype=np.uint32),
                np.array([3]),
                np.array([1]),
                np.array([2]),
                np.array([2]),
            )

    def test_wrong_k_rejected(self, tmp_path):
        store = FingerprintStore.create(
            str(tmp_path / "s"), CFG, store_encoded=False
        )
        with pytest.raises(ValueError, match="k="):
            store.append_fingerprints(
                np.zeros((1, CFG.k + 1), dtype=np.uint32),
                np.array([3]),
                np.array([1]),
                np.array([2]),
                np.array([2]),
            )


class TestCacheInterop:
    def _warm_cache(self, streams):
        cache = FingerprintCache()
        flat, lens = _pack(streams)
        values, counts = minhash_encoded_batch(flat, lens, CFG)
        for key, i in zip(cache.keys_for(flat, lens, CFG), range(len(streams))):
            cache.put(key, values[i], int(counts[i]))
        return cache, values, counts

    def test_spill_and_reload(self, tmp_path):
        streams = _streams(9)
        cache, values, counts = self._warm_cache(streams)
        store = FingerprintStore.create(
            str(tmp_path / "s"), CFG, store_encoded=False
        )
        assert cache.spill_to_store(store) == 9
        # Idempotent: everything is already present by content key.
        assert cache.spill_to_store(store) == 0
        fresh = FingerprintCache()
        assert fresh.load_from_store(store) == 9
        flat, lens = _pack(streams)
        for key, i in zip(fresh.keys_for(flat, lens, CFG), range(9)):
            entry = fresh.get(key)
            assert entry is not None
            assert np.array_equal(entry[0], values[i])
            assert entry[1] == int(counts[i])

    def test_spill_skips_other_configs(self, tmp_path):
        cache, _, _ = self._warm_cache(_streams(5))
        other = FingerprintStore.create(
            str(tmp_path / "s"), MinHashConfig(k=8), store_encoded=False
        )
        assert cache.spill_to_store(other) == 0

    def test_content_keys_match_store_meta(self, tmp_path):
        streams = _streams(7)
        flat, lens = _pack(streams)
        store = FingerprintStore.create(str(tmp_path / "s"), CFG)
        store.append_encoded(flat, lens)
        assert store.content_key_set() == set(content_keys(flat, lens))


class TestCacheFormatValidation:
    def _saved_dir(self, tmp_path, streams):
        cache, _, _ = TestCacheInterop()._warm_cache(streams)
        cache.save(str(tmp_path))
        return [
            os.path.join(str(tmp_path), name)
            for name in sorted(os.listdir(str(tmp_path)))
            if name.endswith(".npz")
        ]

    def test_round_trip_loads(self, tmp_path):
        self._saved_dir(tmp_path, _streams(6))
        fresh = FingerprintCache()
        assert fresh.load(str(tmp_path)) == 6
        assert fresh.stats.disk_files_skipped == 0

    @pytest.mark.parametrize("version", [1, 999])
    def test_wrong_version_skipped_cold(self, tmp_path, version):
        """A newer file, or one of format 1 (a 4-wide config with the salt
        seed and an independent-hashes flag), starts the cache cold."""
        paths = self._saved_dir(tmp_path, _streams(6))
        with np.load(paths[0]) as payload:
            arrays = dict(payload)
        arrays["format_version"] = np.array([version], dtype=np.int64)
        if version == 1:
            k, shingle = arrays["config"].tolist()
            arrays["config"] = np.array([k, shingle, 0xF3F3F3, 0], dtype=np.int64)
        np.savez_compressed(paths[0], **arrays)
        fresh = FingerprintCache()
        assert fresh.load(str(tmp_path)) == 0
        assert fresh.stats.disk_files_skipped == 1
        assert fresh.stats.disk_files_skipped_version == 1

    def test_legacy_file_without_version_skipped(self, tmp_path):
        paths = self._saved_dir(tmp_path, _streams(4))
        with np.load(paths[0]) as payload:
            arrays = {k: v for k, v in payload.items() if k != "format_version"}
        np.savez_compressed(paths[0], **arrays)
        fresh = FingerprintCache()
        assert fresh.load(str(tmp_path)) == 0
        assert fresh.stats.disk_files_skipped == 1

    def test_truncated_zip_skipped(self, tmp_path):
        paths = self._saved_dir(tmp_path, _streams(4))
        with open(paths[0], "r+b") as fh:
            fh.truncate(os.path.getsize(paths[0]) // 3)
        fresh = FingerprintCache()
        assert fresh.load(str(tmp_path)) == 0
        assert fresh.stats.disk_files_skipped == 1

    def test_shape_mismatch_skipped(self, tmp_path):
        paths = self._saved_dir(tmp_path, _streams(4))
        with np.load(paths[0]) as payload:
            arrays = dict(payload)
        arrays["values"] = arrays["values"][:, :-1]  # k mismatch vs config
        np.savez_compressed(paths[0], **arrays)
        fresh = FingerprintCache()
        assert fresh.load(str(tmp_path)) == 0
        assert fresh.stats.disk_files_skipped == 1
