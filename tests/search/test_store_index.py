"""The store-backed index answers what the in-RAM index answers.

``LSHIndex.from_store`` builds a frozen index over a fingerprint store:
keys are store rows, the signature matrix is the store's memmap and the
columnar bucket layer is built band range by band range.  The contract
under test is exactness: for the same fingerprints it must answer
``query``, ``best_match`` and ``probe`` exactly as an ``LSHIndex`` that
``insert_batch``-ed them, and its ranged bucket build must equal the
one-range build array for array.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.search.lsh as lsh
from repro.fingerprint import FingerprintStore, MinHashConfig, MinHashFingerprint
from repro.fingerprint.batch import minhash_encoded_batch
from repro.search import LSHIndex, LSHQueryStats

CFG = MinHashConfig(k=16)
ROWS, BANDS = 2, 8


def fp(seq):
    return MinHashFingerprint.from_encoded(seq, CFG)


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


def _one_range(n, bands, keys):
    with mock.patch.object(lsh, "_BUILD_KEY_BUDGET", max(1, n * bands)):
        return lsh.build_columnar_buckets(n, bands, lambda lo, hi: keys[:, lo:hi])


class TestRangedBuild:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(0, 40),
        bands=st.integers(1, 13),
        budget=st.integers(1, 300),
        seed=st.integers(0, 2**16),
    )
    def test_ranged_build_equals_one_range(self, n, bands, budget, seed):
        # Few distinct values, so buckets hold many rows and span ranges.
        values = np.random.RandomState(seed).randint(0, 5, size=(n, 2 * bands))
        keys = lsh.band_bucket_keys(values.astype(np.uint32), 2, bands)
        whole = _one_range(n, bands, keys)
        with mock.patch.object(lsh, "_BUILD_KEY_BUDGET", budget):
            ranged = lsh.build_columnar_buckets(n, bands, lambda lo, hi: keys[:, lo:hi])
        assert ranged.width == whole.width == bands
        for name in ("rows", "sorted_keys", "starts_flat", "ends_flat"):
            got, want = getattr(ranged, name), getattr(whole, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name

    def test_one_range_equals_one_argsort(self):
        values = np.random.RandomState(3).randint(0, 4, size=(30, 2 * BANDS))
        keys = lsh.band_bucket_keys(values.astype(np.uint32), ROWS, BANDS)
        layer = _one_range(30, BANDS, keys)
        flat = keys.ravel()
        order = np.argsort(flat, kind="stable")
        assert np.array_equal(layer.sorted_keys, flat[order])
        assert np.array_equal(layer.rows, order // BANDS)
        for pos in range(flat.shape[0]):
            members = np.flatnonzero(layer.sorted_keys == flat[pos])
            assert (layer.starts_flat[pos], layer.ends_flat[pos]) == (
                members[0],
                members[-1] + 1,
            )

    def test_range_width_at_module_and_corpus_scale(self):
        # A 201-function module at 100 bands sorts every key at once, so
        # merge decisions on modules never see a second range.
        assert lsh._BUILD_KEY_BUDGET // 201 >= 100
        # A 200,000-function corpus builds one band per range.
        assert lsh._BUILD_KEY_BUDGET // 200_000 <= 1


class TestFrozenStoreMode:
    @pytest.mark.parametrize("seed", [1, 3, 8])
    def test_best_match_matches_serial(self, tmp_path, seed):
        store, flat, lens = _store_with(tmp_path, _streams(60, seed))
        serial = _serial_reference(flat, lens)
        index = LSHIndex.from_store(store, rows=ROWS, bands=BANDS, bucket_cap=3)
        for key in range(60):
            # Same candidates in the same order, same probe accounting.
            s_stats, f_stats = LSHQueryStats(), LSHQueryStats()
            assert index.query(key, f_stats) == serial.query(key, s_stats)
            assert vars(f_stats) == vars(s_stats)
            assert index.best_match(key) == serial.best_match(key)
            probe = serial.fingerprint(key)
            assert index.probe(probe) == serial.probe(probe)
        assert index.index_stats() == serial.index_stats()

    def test_rebuild_after_store_grows(self, tmp_path):
        streams = _streams(60)
        store, _, _ = _store_with(tmp_path, streams[:20])
        first = LSHIndex.from_store(store, rows=ROWS, bands=BANDS, bucket_cap=3)
        store.append_encoded(*_flat(streams[20:]))
        index = LSHIndex.from_store(store, rows=ROWS, bands=BANDS, bucket_cap=3)
        serial = _serial_reference(*_flat(streams))
        assert len(first) == 20 and len(index) == 60
        for key in range(60):
            assert index.best_match(key) == serial.best_match(key)

    def test_frozen_remove_tombstones_and_guards(self, tmp_path):
        store, flat, lens = _store_with(tmp_path, _streams(20))
        serial = _serial_reference(flat, lens)
        index = LSHIndex.from_store(store, rows=ROWS, bands=BANDS, bucket_cap=3)
        victims = [0, 5, 11]
        for key in victims:
            serial.remove(key)
            index.remove(key)
        assert index.removals == len(victims)
        assert index.index_stats()["tombstones"] == len(victims)
        assert index.index_stats()["compactions"] == 0
        for key in range(20):
            assert (key in index) == (key not in victims)
            if key not in victims:
                assert index.best_match(key) == serial.best_match(key)
        assert index.bucket_stats() == serial.bucket_stats()
        for op, call in [
            ("insert", lambda: index.insert(99, fp([1, 2, 3]))),
            ("insert_batch", lambda: index.insert_batch([99], [fp([1, 2, 3])])),
            ("compact", index.compact),
            ("clone", index.clone),
        ]:
            with pytest.raises(RuntimeError, match=op):
                call()
        assert len(index) == 17

    def test_keys_are_rows(self, tmp_path):
        store, _, _ = _store_with(tmp_path, _streams(10))
        index = LSHIndex.from_store(store, rows=ROWS, bands=BANDS)
        assert 9 in index and np.int64(9) in index
        for absent in (10, -1, "f0", 1.5):
            assert absent not in index
        with pytest.raises(KeyError):
            index.best_match(10)
        index.remove(10)  # absent: a no-op, as in the in-RAM index
        assert index.removals == 0

    def test_bands_must_fit_the_store_k(self, tmp_path):
        store, _, _ = _store_with(tmp_path, _streams(4))
        assert LSHIndex.from_store(store, rows=ROWS).bands == CFG.k // ROWS
        with pytest.raises(ValueError):
            LSHIndex.from_store(store, rows=ROWS, bands=BANDS + 1)

    def test_fingerprint_reconstruction(self, tmp_path):
        store, flat, lens = _store_with(tmp_path, _streams(10))
        index = LSHIndex.from_store(store, rows=ROWS, bands=BANDS, bucket_cap=3)
        values, counts = minhash_encoded_batch(flat, lens, CFG)
        for key in range(10):
            rebuilt = index.fingerprint(key)
            assert rebuilt.values.dtype == np.uint32
            assert np.array_equal(rebuilt.values, values[key])
            assert rebuilt.num_shingles == int(counts[key])
            assert rebuilt.config == CFG
