"""Copy-on-write clones, external-fingerprint probes, tombstone re-insert
and the configurable compaction ratio — the serve-daemon index primitives."""

import pytest

from repro.fingerprint import MinHashConfig, MinHashFingerprint
from repro.search import LSHIndex


def fp(seq, k=200):
    return MinHashFingerprint.from_encoded(seq, MinHashConfig(k=k))


def seq(i, drift=0):
    base = list(range(i * 7, i * 7 + 40))
    if drift:
        base[:drift] = range(9000 + i, 9000 + i + drift)
    return base


def populated(n=20, **kwargs):
    index = LSHIndex(rows=2, bands=100, **kwargs)
    index.insert_batch([f"f{i}" for i in range(n)], [fp(seq(i % 5, drift=i // 5)) for i in range(n)])
    return index


def answers(index):
    return {key: index.best_match(key) for key in list(index._row_of) if key in index}


class TestTombstoneReinsert:
    def test_removed_key_can_reenter(self):
        index = LSHIndex(rows=2, bands=100)
        index.insert("a", fp(seq(0)))
        index.insert("b", fp(seq(0)))
        index.remove("a")
        index.insert("a", fp(seq(0, drift=3)))
        assert "a" in index
        assert len(index) == 2
        name, _ = index.best_match("b")
        assert name == "a"

    def test_live_duplicate_still_rejected(self):
        index = LSHIndex(rows=2, bands=100)
        index.insert("a", fp(seq(0)))
        with pytest.raises(ValueError):
            index.insert("a", fp(seq(1)))
        with pytest.raises(ValueError):
            index.insert_batch(["a"], [fp(seq(1))])

    def test_compaction_after_reinsert_keeps_new_row(self):
        index = LSHIndex(rows=2, bands=100, compact_ratio=None)
        index.insert("a", fp(seq(0)))
        index.insert("b", fp(seq(0)))
        index.remove("a")
        index.insert("a", fp(seq(0, drift=2)))
        index.compact()
        assert len(index) == 2
        assert index.index_stats()["tombstones"] == 0
        assert index.best_match("b")[0] == "a"


class TestCompactRatio:
    def test_default_ratio_matches_historical_half_live(self):
        index = populated(n=100)
        for i in range(50):
            index.remove(f"f{i}")
        assert index.compactions == 0  # 50 live, 50 tombstones: not yet
        index.remove("f50")
        assert index.compactions == 1  # 49 live, 51 tombstones: > ratio*live

    def test_low_ratio_compacts_earlier(self):
        index = populated(n=100, compact_ratio=0.25)
        for i in range(20):
            index.remove(f"f{i}")
        assert index.compactions == 0
        index.remove("f20")
        assert index.compactions == 1  # 79 live, 21 dead > 0.25*79

    def test_none_disables_auto_compaction(self):
        index = populated(n=100, compact_ratio=None)
        for i in range(99):
            index.remove(f"f{i}")
        assert index.compactions == 0
        assert index.index_stats()["tombstones"] == 99

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ValueError):
            LSHIndex(compact_ratio=0.0)
        with pytest.raises(ValueError):
            LSHIndex(compact_ratio=-1.0)

    def test_ranker_and_pass_config_plumb_the_knob(self):
        from repro.merge.pass_ import FunctionMergingPass, PassConfig
        from repro.search.pairing import MinHashLSHRanker

        ranker = MinHashLSHRanker(compact_ratio=0.25)
        assert ranker.compact_ratio == 0.25
        ranker.preprocess([])
        assert ranker._index.compact_ratio == 0.25

        with pytest.raises(ValueError):
            PassConfig(lsh_compact_ratio=0.0)
        ranker2 = MinHashLSHRanker()
        FunctionMergingPass(ranker2, PassConfig(lsh_compact_ratio=0.5))
        assert ranker2.compact_ratio == 0.5


class TestClone:
    def test_clone_answers_identically(self):
        index = populated()
        dup = index.clone()
        assert answers(dup) == answers(index)

    def test_clone_mutations_invisible_to_source(self):
        index = populated()
        before = answers(index)
        dup = index.clone()
        dup.remove("f0")
        dup.insert("new", fp(seq(0)))
        dup.insert_batch(["n2", "n3"], [fp(seq(1)), fp(seq(2))])
        assert answers(index) == before
        assert "new" in dup and "new" not in index
        assert "f0" not in dup and "f0" in index

    def test_clone_compaction_does_not_corrupt_source(self):
        index = populated()
        before = answers(index)
        dup = index.clone()
        for i in range(15):
            dup.remove(f"f{i}")
        dup.compact()
        assert answers(index) == before
        assert dup.index_stats()["tombstones"] == 0

    def test_source_compaction_does_not_corrupt_clone(self):
        index = populated()
        dup = index.clone()
        before = answers(dup)
        for i in range(15):
            index.remove(f"f{i}")
        index.compact()
        assert answers(dup) == before

    def test_clone_chain(self):
        index = populated()
        gen2 = index.clone().clone()
        gen2.insert("x", fp(seq(3)))
        assert "x" in gen2 and "x" not in index

    def test_capacity_growth_unshares_buffers(self):
        index = populated(n=8)
        dup = index.clone()
        before = answers(index)
        # Push the clone past the shared buffer capacity.
        dup.insert_batch(
            [f"g{i}" for i in range(300)], [fp(seq(i % 7)) for i in range(300)]
        )
        assert not dup._buffers_shared
        assert answers(index) == before


class TestStoreIndexClone:
    def test_frozen_store_backed_index_refuses_clone(self, tmp_path):
        import numpy as np

        from repro.fingerprint.store import FingerprintStore

        config = MinHashConfig()
        store = FingerprintStore.create(str(tmp_path / "s"), config, store_encoded=False)
        fps = [fp(seq(i)) for i in range(6)]
        store.append_fingerprints(
            values=np.stack([f.values for f in fps]),
            lengths=np.full(6, 40, dtype=np.int64),
            h1=np.arange(6, dtype=np.int64),
            h2=np.arange(100, 106, dtype=np.int64),
            num_shingles=np.full(6, 38, dtype=np.int64),
        )
        index = LSHIndex.from_store(store, rows=2, bands=100)
        with pytest.raises(RuntimeError):
            index.clone()


class TestProbe:
    def test_probe_matches_resident_query_plus_self(self):
        index = populated()
        resident = index.fingerprint("f0")
        probe_hits = dict(index.probe(resident))
        query_hits = dict(index.query("f0"))
        assert probe_hits.pop("f0") == 1.0  # probe sees the resident twin
        assert probe_hits == query_hits

    def test_probe_skips_tombstones(self):
        index = LSHIndex(rows=2, bands=100)
        index.insert("a", fp(seq(0)))
        index.insert("b", fp(seq(0)))
        index.remove("a")
        hits = dict(index.probe(fp(seq(0))))
        assert "a" not in hits and "b" in hits

    def test_probe_is_read_only(self):
        index = populated()
        live = len(index)
        index.probe(fp([1, 2, 3, 4, 5]))
        assert len(index) == live

    def test_probe_rejects_undersized_fingerprint(self):
        index = populated()
        with pytest.raises(ValueError):
            index.probe(fp([1, 2, 3], k=50))
