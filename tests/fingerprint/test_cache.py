"""Content-addressed fingerprint cache: keying, LRU, counters, disk layer."""

import os

import numpy as np

from repro.fingerprint import FingerprintCache, MinHashConfig
from repro.fingerprint.cache import content_keys
from repro.merge.pass_ import FunctionMergingPass, PassConfig
from repro.search.pairing import MinHashLSHRanker
from repro.workloads.suites import build_workload


def _pack(streams):
    lens = np.array([len(s) for s in streams], dtype=np.int64)
    flat = np.array([v for s in streams for v in s], dtype=np.uint64)
    return flat, lens


class TestContentKeys:
    def test_identical_streams_share_keys(self):
        flat, lens = _pack([[1, 2, 3], [4, 5], [1, 2, 3]])
        keys = content_keys(flat, lens)
        assert keys[0] == keys[2]
        assert keys[0] != keys[1]

    def test_length_disambiguates(self):
        # Same prefix, different lengths: distinct keys.
        flat, lens = _pack([[7, 7], [7, 7, 7]])
        a, b = content_keys(flat, lens)
        assert a != b

    def test_empty_stream_keyed(self):
        flat, lens = _pack([[], [1]])
        keys = content_keys(flat, lens)
        assert len(keys) == 2
        assert keys[0] != keys[1]

    def test_config_distinguishes_cache_keys(self):
        cache = FingerprintCache()
        flat, lens = _pack([[1, 2, 3]])
        k1 = cache.keys_for(flat, lens, MinHashConfig(k=16))
        k2 = cache.keys_for(flat, lens, MinHashConfig(k=32))
        assert k1 != k2


class TestLruAndCounters:
    def _key(self, cache, stream, config):
        flat, lens = _pack([stream])
        return cache.keys_for(flat, lens, config)[0]

    def test_miss_then_hit(self):
        cache = FingerprintCache()
        config = MinHashConfig(k=8)
        key = self._key(cache, [1, 2, 3], config)
        assert cache.get(key) is None
        cache.put(key, np.arange(8, dtype=np.uint32), 2)
        values, count = cache.get(key)
        assert count == 2
        assert np.array_equal(values, np.arange(8, dtype=np.uint32))
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.hit_rate == 0.5

    def test_get_returns_a_copy(self):
        cache = FingerprintCache()
        config = MinHashConfig(k=4)
        key = self._key(cache, [9], config)
        cache.put(key, np.ones(4, dtype=np.uint32), 1)
        values, _ = cache.get(key)
        values[:] = 0
        fresh, _ = cache.get(key)
        assert np.array_equal(fresh, np.ones(4, dtype=np.uint32))

    def test_eviction_is_lru(self):
        cache = FingerprintCache(maxsize=2)
        config = MinHashConfig(k=4)
        keys = [self._key(cache, [i, i + 1], config) for i in range(3)]
        v = np.zeros(4, dtype=np.uint32)
        cache.put(keys[0], v, 1)
        cache.put(keys[1], v, 1)
        cache.get(keys[0])  # key 0 is now most recent
        cache.put(keys[2], v, 1)  # evicts key 1
        assert cache.stats.evictions == 1
        assert cache.get(keys[0]) is not None
        assert cache.get(keys[1]) is None

    def test_put_is_idempotent(self):
        cache = FingerprintCache()
        config = MinHashConfig(k=4)
        key = self._key(cache, [5, 6], config)
        cache.put(key, np.zeros(4, dtype=np.uint32), 1)
        cache.put(key, np.ones(4, dtype=np.uint32), 9)
        values, count = cache.get(key)
        # First write wins; fingerprints are content-addressed, so a second
        # put for the same key is by definition the same fingerprint.
        assert count == 1
        assert np.array_equal(values, np.zeros(4, dtype=np.uint32))


class TestDiskLayer:
    def test_round_trip(self, tmp_path):
        directory = str(tmp_path / "cache")
        cache = FingerprintCache()
        config = MinHashConfig(k=8)
        flat, lens = _pack([[1, 2, 3], [4, 5, 6]])
        keys = cache.keys_for(flat, lens, config)
        cache.put(keys[0], np.arange(8, dtype=np.uint32), 2)
        cache.put(keys[1], np.arange(8, 16, dtype=np.uint32), 3)
        paths = cache.save(directory)
        assert paths and all(p.endswith(".npz") for p in paths)

        fresh = FingerprintCache(directory=directory)
        assert fresh.stats.disk_entries_loaded == 2
        values, count = fresh.get(keys[0])
        assert count == 2
        assert np.array_equal(values, np.arange(8, dtype=np.uint32))

    def test_load_missing_directory_is_noop(self, tmp_path):
        cache = FingerprintCache()
        assert cache.load(str(tmp_path / "nope")) == 0

    def test_save_multiple_configs(self, tmp_path):
        directory = str(tmp_path / "cache")
        cache = FingerprintCache()
        flat, lens = _pack([[1, 2, 3]])
        for config in (MinHashConfig(k=8), MinHashConfig(k=16, shingle_size=3)):
            key = cache.keys_for(flat, lens, config)[0]
            cache.put(key, np.zeros(config.k, dtype=np.uint32), 1)
        paths = cache.save(directory)
        assert len(paths) == 2
        fresh = FingerprintCache()
        assert fresh.load(directory) == 2


class TestOtherVersionFiles:
    """A format-1 file has a different name from format 2's, so nothing
    overwrites it; ``save`` deletes it so loads stop skipping it."""

    def _format1_file(self, directory):
        os.makedirs(directory)
        path = os.path.join(directory, "minhash-k200-s2-seedf3f3f3.npz")
        np.savez_compressed(
            path,
            format_version=np.array([1], dtype=np.int64),
            config=np.array([200, 2, 0xF3F3F3, 0], dtype=np.int64),
            lengths=np.array([3], dtype=np.int64),
            h1=np.array([1], dtype=np.uint64),
            h2=np.array([2], dtype=np.uint64),
            num_shingles=np.array([2], dtype=np.int64),
            values=np.zeros((1, 200), dtype=np.uint32),
        )
        return path

    def test_load_merge_save_twice_removes_format1_file(self, tmp_path):
        directory = str(tmp_path / "cache")
        self._format1_file(directory)
        foreign = os.path.join(directory, "minhash-notes.npz")
        with open(foreign, "wb") as fh:
            fh.write(b"not a cache file")
        skipped = []
        for _ in range(2):
            cache = FingerprintCache()
            cache.load(directory)
            skipped.append(cache.stats.disk_files_skipped_version)
            module = build_workload(12, name="cachefiles")
            FunctionMergingPass(MinHashLSHRanker(cache=cache), PassConfig()).run(module)
            cache.save(directory)
        assert skipped == [1, 0]
        npz = sorted(n for n in os.listdir(directory) if n.endswith(".npz"))
        assert npz == ["minhash-k200-s2.npz", "minhash-notes.npz"]
        fresh = FingerprintCache()
        assert fresh.load(directory) > 0
        assert fresh.stats.disk_files_skipped_version == 0
