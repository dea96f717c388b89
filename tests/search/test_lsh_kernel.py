"""The vectorized candidate kernel answers exactly what the bucket walk does.

``tests/reference/lsh.py::ReferenceLSHIndex`` walks plain-list buckets one
member at a time.  Seeded random sequences of index operations drive it and
``LSHIndex`` side by side with tiny bucket caps, so capped buckets, overflow
members behind a columnar base layer, tombstones inside cap windows and
compactions all occur; after every operation each live key's candidate
list, best match and query accounting must be identical.  The frozen
store-backed index must agree with the same oracle.
"""

import random
import tracemalloc

import numpy as np
import pytest

from repro.fingerprint import FingerprintStore, MinHashConfig, MinHashFingerprint
from repro.search import LSHIndex, LSHQueryStats
from tests.reference import ReferenceLSHIndex

CFG = MinHashConfig(k=16)
ROWS, BANDS = 2, 8


def _stream(rng: random.Random):
    """A member of one of a few families: most band hashes are shared, so
    buckets overflow even tiny caps."""
    family = rng.randrange(4)
    stream = [family * 100 + j for j in range(8)]
    for _ in range(rng.randrange(3)):
        stream[rng.randrange(8)] = rng.randrange(1000)
    return stream


def _fingerprint(rng: random.Random) -> MinHashFingerprint:
    return MinHashFingerprint.from_encoded(_stream(rng), CFG)


def _assert_same(index: LSHIndex, oracle: ReferenceLSHIndex, probe: MinHashFingerprint):
    assert len(index) == len(oracle)
    for key in list(oracle._row_of):
        assert (key in index) == (key in oracle)
        if key not in oracle:
            continue
        got_stats, want_stats = LSHQueryStats(), LSHQueryStats()
        assert index.query(key, got_stats) == oracle.query(key, want_stats)
        assert vars(got_stats) == vars(want_stats)
        got_stats, want_stats = LSHQueryStats(), LSHQueryStats()
        assert index.best_match(key, got_stats) == oracle.best_match(key, want_stats)
        assert vars(got_stats) == vars(want_stats)
    got_stats, want_stats = LSHQueryStats(), LSHQueryStats()
    assert index.probe(probe, got_stats) == oracle.probe(probe, want_stats)
    assert vars(got_stats) == vars(want_stats)
    assert (index.queries, index.capped_bucket_hits) == (
        oracle.queries,
        oracle.capped_bucket_hits,
    )


def _run(seed: int, steps: int = 60) -> int:
    """Replay one random operation sequence; returns the capped buckets hit."""
    rng = random.Random(seed)
    cap = rng.randint(2, 5)
    ratio = rng.choice([None, 1.0, 0.5])
    index = LSHIndex(rows=ROWS, bands=BANDS, bucket_cap=cap, compact_ratio=ratio)
    oracle = ReferenceLSHIndex(rows=ROWS, bands=BANDS, bucket_cap=cap, compact_ratio=ratio)
    next_key = 0
    if rng.random() < 0.3:
        # Single inserts first: the later batch lands in the overflow layer.
        for _ in range(rng.randint(1, 4)):
            fingerprint = _fingerprint(rng)
            index.insert(next_key, fingerprint)
            oracle.insert(next_key, fingerprint)
            next_key += 1
    batch = [_fingerprint(rng) for _ in range(rng.randint(10, 80))]
    keys = list(range(next_key, next_key + len(batch)))
    next_key += len(batch)
    index.insert_batch(keys, batch)
    oracle.insert_batch(keys, batch)
    for _ in range(steps):
        op = rng.random()
        live = [key for key in oracle._row_of if key in oracle]
        if op < 0.3:
            fingerprint = _fingerprint(rng)
            # Re-insert a removed key now and then: it takes a fresh row.
            dead = [key for key in oracle._row_of if key not in oracle]
            key = rng.choice(dead) if dead and rng.random() < 0.3 else next_key
            next_key += key == next_key
            index.insert(key, fingerprint)
            oracle.insert(key, fingerprint)
        elif op < 0.4:
            more = [_fingerprint(rng) for _ in range(rng.randint(1, 5))]
            keys = list(range(next_key, next_key + len(more)))
            next_key += len(more)
            index.insert_batch(keys, more)
            oracle.insert_batch(keys, more)
        elif op < 0.75 and live:
            victim = rng.choice(live)
            index.remove(victim)
            oracle.remove(victim)
        elif op < 0.82:
            index.compact()
            oracle.compact()
        elif op < 0.9:
            # Carry on with the clone; the source must keep its answers.
            source, source_oracle = index, oracle
            index, oracle = index.clone(), oracle.clone()
            fingerprint = _fingerprint(rng)
            index.insert(next_key, fingerprint)
            oracle.insert(next_key, fingerprint)
            next_key += 1
            _assert_same(source, source_oracle, fingerprint)
        _assert_same(index, oracle, _fingerprint(rng))
    return index.capped_bucket_hits


class TestKernelMatchesWalk:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_operation_sequences(self, seed):
        assert _run(seed) > 0  # the caps really bite

    def test_uncapped(self):
        rng = random.Random(99)
        index = LSHIndex(rows=ROWS, bands=BANDS, bucket_cap=None)
        oracle = ReferenceLSHIndex(rows=ROWS, bands=BANDS, bucket_cap=None)
        batch = [_fingerprint(rng) for _ in range(30)]
        index.insert_batch(list(range(30)), batch)
        oracle.insert_batch(list(range(30)), batch)
        for key in range(30, 36):
            fingerprint = _fingerprint(rng)
            index.insert(key, fingerprint)
            oracle.insert(key, fingerprint)
        _assert_same(index, oracle, _fingerprint(rng))

    def test_empty_index_probe(self):
        index = LSHIndex(rows=ROWS, bands=BANDS, bucket_cap=3)
        stats = LSHQueryStats()
        assert index.probe(_fingerprint(random.Random(0)), stats) == []
        assert stats.buckets_probed == BANDS


class TestQueryCost:
    def test_query_memory_independent_of_stored_rows(self):
        """A query's working arrays scale with the buckets it reads, not
        with the index: querying every row of a large index stays linear."""
        n = 50_000
        # Fibonacci hashing of 0, 1, 2, ...: distinct rows, near-singleton buckets.
        golden = np.uint64(0x9E3779B97F4A7C15)
        values = np.arange(n * CFG.k, dtype=np.uint64) * golden >> np.uint64(32)
        values = values.astype(np.uint32).reshape(n, CFG.k)
        index = LSHIndex(rows=ROWS, bands=BANDS, bucket_cap=4)
        index.insert_batch(list(range(n)), [MinHashFingerprint(v, CFG, 8) for v in values])
        index.insert(n, MinHashFingerprint(values[0].copy(), CFG, 8))
        index.remove(1)
        probe = index.fingerprint(0)
        queries = (lambda: index.query(0), lambda: index.best_match(n), lambda: index.probe(probe))
        for run in queries:
            run()  # warm any lazily built state
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < n  # bytes; an n-long int64 array would be 8n
        assert index.best_match(0) == (n, 1.0)


class TestStoreIndexMatchesWalk:
    @pytest.mark.parametrize("seed,cap", [(1, 2), (2, 3), (3, 5), (8, 4)])
    def test_best_match_and_query(self, tmp_path, seed, cap):
        rng = random.Random(seed * 10 + cap)
        streams = [_stream(rng) for _ in range(50)]
        lens = np.array([len(s) for s in streams], dtype=np.int64)
        flat = np.array([v for s in streams for v in s], dtype=np.uint64)
        store = FingerprintStore.create(str(tmp_path / "store"), CFG)
        store.append_encoded(flat, lens)
        index = LSHIndex.from_store(store, rows=ROWS, bands=BANDS, bucket_cap=cap)
        oracle = ReferenceLSHIndex(rows=ROWS, bands=BANDS, bucket_cap=cap, compact_ratio=None)
        oracle.insert_batch(range(50), [index.fingerprint(key) for key in range(50)])
        for victim in rng.sample(range(50), 6):
            index.remove(victim)
            oracle.remove(victim)
        probe = _fingerprint(rng)
        _assert_same(index, oracle, probe)
        for key in range(50):
            assert index.best_match(key) == oracle.best_match(key)
        assert index.capped_bucket_hits > 0
