"""The frozen band-sharded index is serial-identical.

The contract under test is exactness, not speed: for any shard count, a
``ShardedLSHIndex`` built from a fingerprint store must answer
``best_match`` — per key and through the batched ``best_match_all``
kernel — exactly as the serial ``LSHIndex`` over the same fingerprints.
"""

import numpy as np
import pytest

from repro.fingerprint import FingerprintStore, MinHashConfig, MinHashFingerprint
from repro.fingerprint.batch import minhash_encoded_batch
from repro.search import LSHIndex, LSHQueryStats, ShardedLSHIndex, shard_ranges

CFG = MinHashConfig(k=16)
ROWS, BANDS = 2, 8


def fp(seq):
    return MinHashFingerprint.from_encoded(seq, CFG)


class TestShardRanges:
    def test_cover_and_order(self):
        for bands in (1, 7, 8, 100):
            for shards in (1, 2, 3, 8, 200):
                ranges = shard_ranges(bands, shards)
                # Contiguous, ordered, covering [0, bands).
                assert ranges[0][0] == 0
                assert ranges[-1][1] == bands
                for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
                    assert hi == lo
                assert len(ranges) == min(max(1, shards), bands)


def _flat(streams):
    lens = np.array([len(s) for s in streams], dtype=np.int64)
    flat = np.array([v for s in streams for v in s], dtype=np.uint64)
    return flat, lens


def _store_with(tmp_path, streams, config=CFG):
    flat, lens = _flat(streams)
    store = FingerprintStore.create(str(tmp_path / "store"), config)
    store.append_encoded(flat, lens)
    return store, flat, lens


def _serial_reference(flat, lens, bucket_cap=3):
    values, counts = minhash_encoded_batch(flat, lens, CFG)
    fps = [
        MinHashFingerprint(values[i], CFG, int(counts[i]))
        for i in range(len(lens))
    ]
    serial = LSHIndex(rows=ROWS, bands=BANDS, bucket_cap=bucket_cap)
    serial.insert_batch(list(range(len(fps))), fps)
    return serial


def _streams(n, seed=7):
    rng = np.random.RandomState(seed)
    out = []
    for i in range(n):
        fam = i % 5
        seq = [int(fam * 50 + j) for j in range(6)]
        if rng.rand() < 0.5:
            seq[int(rng.randint(0, 6))] = int(rng.randint(0, 400))
        out.append(seq)
    return out


class TestFrozenStoreMode:
    @pytest.mark.parametrize("shards", [1, 3, 8])
    def test_best_match_all_matches_serial(self, tmp_path, shards):
        store, flat, lens = _store_with(tmp_path, _streams(60))
        serial = _serial_reference(flat, lens)
        index = ShardedLSHIndex.from_store(
            store, rows=ROWS, bands=BANDS, bucket_cap=3, shards=shards
        )
        best, sims = index.best_match_all(batch_rows=17)
        for key in range(60):
            # Same candidates in the same order, same probe accounting.
            s_stats, f_stats = LSHQueryStats(), LSHQueryStats()
            assert index.query(key, f_stats) == serial.query(key, s_stats)
            assert vars(f_stats) == vars(s_stats)
            expected = serial.best_match(key)
            got = index.best_match(key)
            assert got == expected
            if expected is None:
                assert best[key] == -1
            else:
                assert (best[key], sims[key]) == expected

    def test_rebuild_after_store_grows_reads_new_shards(self, tmp_path):
        # A second build into the same (default) shard directory must map
        # the new shard files, not a previous build's.
        streams = _streams(60)
        store, _, _ = _store_with(tmp_path, streams[:20])
        ShardedLSHIndex.from_store(store, rows=ROWS, bands=BANDS, bucket_cap=3, shards=2)
        store.append_encoded(*_flat(streams[20:]))
        index = ShardedLSHIndex.from_store(
            store, rows=ROWS, bands=BANDS, bucket_cap=3, shards=2
        )
        serial = _serial_reference(*_flat(streams))
        best, sims = index.best_match_all()
        for key in range(60):
            expected = serial.best_match(key)
            if expected is None:
                assert best[key] == -1
            else:
                assert (best[key], sims[key]) == expected

    def test_frozen_remove_tombstones_and_guards(self, tmp_path):
        store, flat, lens = _store_with(tmp_path, _streams(20))
        serial = _serial_reference(flat, lens)
        index = ShardedLSHIndex.from_store(
            store, rows=ROWS, bands=BANDS, bucket_cap=3, shards=2
        )
        victims = [0, 5, 11]
        for key in victims:
            serial.remove(key)
            index.remove(key)
        assert index.removals == len(victims)
        assert index.index_stats()["tombstones"] == len(victims)
        for key in range(20):
            if key in victims:
                continue
            assert index.best_match(key) == serial.best_match(key)
        best, _ = index.best_match_all()
        for key in victims:
            assert best[key] not in victims or best[key] == -1
        with pytest.raises(RuntimeError):
            index.insert(99, fp([1, 2, 3]))
        with pytest.raises(RuntimeError):
            index.compact()

    def test_fingerprint_reconstruction(self, tmp_path):
        store, flat, lens = _store_with(tmp_path, _streams(10))
        index = ShardedLSHIndex.from_store(
            store, rows=ROWS, bands=BANDS, bucket_cap=3
        )
        values, counts = minhash_encoded_batch(flat, lens, CFG)
        for key in range(10):
            rebuilt = index.fingerprint(key)
            assert np.array_equal(rebuilt.values, values[key])
            assert rebuilt.num_shingles == int(counts[key])
