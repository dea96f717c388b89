"""FingerprintDatabase: incremental submits, snapshot reads, hot merges."""

from __future__ import annotations

import random

import pytest

from repro.fingerprint.store import FingerprintStore
from repro.harness.serve_bench import (
    build_delta_text,
    declare_external_callees,
    run_serve_bench,
)
from repro.ir.clone import clone_function
from repro.ir.module import Module
from repro.ir.parser import parse_module
from repro.ir.printer import print_function, print_module
from repro.ir.verifier import verify_module
from repro.merge.pass_ import FunctionMergingPass, PassConfig
from repro.harness.experiments import make_ranker
from repro.serve import DeltaError, FingerprintDatabase, ServeConfig
from repro.workloads.mutate import make_variant
from repro.workloads.suites import build_workload
from tests.ir.test_clone import FORWARD
from tests.reference import reference_merge_corpus


@pytest.fixture
def db(corpus_text) -> FingerprintDatabase:
    database = FingerprintDatabase()
    database.apply_delta(module_text=corpus_text)
    return database


def _probe_text(db: FingerprintDatabase, name: str) -> str:
    probe = Module("probe")
    clone_function(db.module.get_function(name), name, probe)
    declare_external_callees(probe)
    return print_module(probe)


class TestSubmit:
    def test_initial_submit_populates_corpus(self, db, corpus_text):
        snap = db.snapshot
        assert snap.version == 1
        parsed = parse_module(corpus_text)
        assert set(snap.entries) == {f.name for f in parsed.defined_functions()}
        assert len(snap.index) == len(snap.entries)

    def test_empty_delta_is_a_noop_commit(self, db):
        before = len(db.snapshot.entries)
        result = db.apply_delta()
        assert result["version"] == 2
        assert result["added"] == result["changed"] == result["removed"] == []
        assert len(db.snapshot.entries) == before

    def test_changed_function_keeps_identity(self, db):
        target = db.module.get_function("fam0.base")
        delta = Module("delta")
        make_variant(target, "fam0.base", random.Random(3), 2, delta)
        declare_external_callees(delta)
        result = db.apply_delta(module_text=print_module(delta))
        assert result["changed"] == ["fam0.base"]
        # Same Function object — call sites elsewhere in the corpus still
        # point at it; only the body was replaced.
        assert db.module.get_function("fam0.base") is target
        assert db.snapshot.entries["fam0.base"].version == 2

    def test_remove_unreferenced_function_erases_it(self, db):
        # driver functions call others but nothing calls a driver
        victims = [
            name for name in db.snapshot.entries
            if not db.module.get_function(name).callers()
        ]
        victim = victims[0]
        db.apply_delta(removed=[victim])
        assert db.module.get_function(victim) is None
        assert victim not in db.snapshot.entries
        with pytest.raises(DeltaError):
            db.query(name=victim)

    def test_remove_referenced_function_demotes_to_declaration(self, db):
        referenced = [
            name for name in db.snapshot.entries
            if db.module.get_function(name).callers()
        ]
        victim = referenced[0]
        db.apply_delta(removed=[victim])
        func = db.module.get_function(victim)
        assert func is not None and func.is_declaration
        assert victim not in db.snapshot.entries

    @pytest.mark.parametrize(
        "removed", [["no.such.fn"], ["fam0.base", "fam0.base"]]
    )
    def test_bad_removals_rejected_before_mutation(self, db, removed):
        version = db.version
        text = db.dump()
        with pytest.raises(DeltaError):
            db.apply_delta(removed=removed)
        assert db.version == version
        assert db.dump() == text

    def test_defined_and_removed_conflict(self, db):
        delta = Module("delta")
        make_variant(
            db.module.get_function("fam0.base"), "fam0.base",
            random.Random(1), 1, delta,
        )
        declare_external_callees(delta)
        with pytest.raises(DeltaError):
            db.apply_delta(module_text=print_module(delta), removed=["fam0.base"])

    def test_rollback_on_mid_commit_failure_restores_corpus(self, db):
        text = db.dump()
        version = db.version
        # Unknown removal after a defined delta function would still fail
        # validation up front; force a mid-commit failure instead via a
        # delta whose module text does not verify.
        with pytest.raises(Exception):
            db.apply_delta(module_text="def @broken(i32 %a) -> i32 {\n")
        assert db.version == version
        assert db.dump() == text
        assert db.rollbacks == 0  # parse failures never reach the transaction


class TestQuery:
    def test_query_by_name_ranks_family(self, db):
        result = db.query(name="fam0.base", limit=5)
        names = [m["name"] for m in result["matches"]]
        assert any(n.startswith("fam0.") for n in names)
        sims = [m["similarity"] for m in result["matches"]]
        assert sims == sorted(sims, reverse=True)

    def test_query_by_text_probe_finds_resident_twin(self, db):
        result = db.query(text=_probe_text(db, "fam0.base"), limit=3)
        top = result["matches"][0]
        assert top["name"].startswith("fam0.")
        assert top["similarity"] == 1.0

    def test_query_needs_exactly_one_selector(self, db):
        with pytest.raises(DeltaError):
            db.query()
        with pytest.raises(DeltaError):
            db.query(name="fam0.base", text="def @x() -> i32 { ret 0 }")

    def test_probe_text_must_define_one_function(self, db, corpus_text):
        with pytest.raises(DeltaError):
            db.query(text=corpus_text)


class TestMerge:
    def test_merge_decisions_identical_to_one_shot(self, db, corpus_text):
        served = db.merge_text(corpus_text)
        module = parse_module(corpus_text)
        report = FunctionMergingPass(make_ranker("f3m"), PassConfig()).run(module)
        assert served["module"] == print_module(module)
        assert served["merges"] == report.merges

    def test_result_cache_round_trip(self, db, corpus_text):
        first = db.merge_text(corpus_text)
        assert first["cached"] is False
        second = db.merge_text(corpus_text)
        assert second["cached"] is True
        assert second["module"] == first["module"]
        assert db.result_hits == 1

    def test_no_result_cache_bypasses_lru(self, db, corpus_text):
        db.merge_text(corpus_text)
        again = db.merge_text(corpus_text, use_result_cache=False)
        assert again["cached"] is False
        assert db.result_hits == 0

    def test_merge_corpus_does_not_mutate_corpus(self, db):
        before = db.dump()
        result = db.merge_corpus()
        assert result["merges"] > 0
        assert db.dump() == before

    def test_merge_corpus_reads_no_text(self, db, monkeypatch):
        """The request module is copied from the corpus: nothing is parsed,
        and the only module printed is the merged one."""
        from repro.serve import db as serve_db

        def no_parse(*args, **kwargs):
            raise AssertionError("merge_corpus parsed text")

        printed = []
        real_print = serve_db.print_module
        monkeypatch.setattr(serve_db, "parse_module", no_parse)
        monkeypatch.setattr(
            serve_db, "print_module", lambda m: printed.append(m) or real_print(m)
        )
        result = db.merge_corpus(use_result_cache=False)
        assert len(printed) == 1 and printed[0] is not db.module
        assert result["module"] == real_print(printed[0])

    def test_corpus_result_cache_keys_on_version(self, db):
        first = db.merge_corpus()
        assert first["cached"] is False
        second = db.merge_corpus()
        assert second["cached"] is True and second["module"] == first["module"]
        # A client sending the dump is a different key: its digest.
        assert db.merge_text(db.dump())["cached"] is False
        target = db.module.get_function("fam0.base")
        delta = Module("delta")
        make_variant(target, "fam0.base", random.Random(7), 2, delta)
        declare_external_callees(delta)
        db.apply_delta(module_text=print_module(delta))
        third = db.merge_corpus()
        assert third["cached"] is False
        assert third["module"] == reference_merge_corpus(db)["module"]

    def test_forward_operand_delta_keeps_corpus_valid(self, db):
        """A delta whose function uses a value in a block placed before its
        dominating definition is cloned into the corpus with every operand
        remapped, so the corpus itself verifies."""
        db.apply_delta(module_text=FORWARD)
        verify_module(db.module)
        func = db.module.get_function("fwd")
        assert print_function(func) == FORWARD.strip()
        assert db.merge_corpus()["module"] == reference_merge_corpus(db)["module"]

    def test_result_cache_evicts_at_capacity(self, corpus_text):
        database = FingerprintDatabase(ServeConfig(result_cache_size=1))
        database.apply_delta(module_text=corpus_text)
        database.merge_text(corpus_text)
        # A different request text has a different digest and displaces the
        # sole cached entry.
        database.merge_text(_probe_text(database, "fam0.base"))
        assert database.result_evictions >= 1


class TestMaintenance:
    def test_lru_eviction_caps_corpus(self, corpus_text):
        database = FingerprintDatabase(ServeConfig(max_functions=10))
        result = database.apply_delta(module_text=corpus_text)
        assert len(database.snapshot.entries) == 10
        assert result["evicted"]
        assert len(database.snapshot.index) == 10

    def test_compact_preserves_queries_and_version(self, db):
        target = db.module.get_function("fam0.base")
        delta = Module("delta")
        make_variant(target, "fam0.base", random.Random(5), 1, delta)
        declare_external_callees(delta)
        db.apply_delta(module_text=print_module(delta))
        before = db.query(name="fam0.base", limit=5)
        stats = db.compact()
        assert stats["tombstones"] == 0
        assert db.version == before["version"]
        after = db.query(name="fam0.base", limit=5)
        assert after["matches"] == before["matches"]

    def test_flush_and_warm_start_round_trip(self, db, tmp_path, corpus_text):
        store_dir = str(tmp_path / "store")
        result = db.flush(directory=store_dir)
        assert result["spilled"] > 0
        store = FingerprintStore.open(store_dir)
        assert len(store) == result["spilled"]
        warm = FingerprintDatabase(ServeConfig(store_dir=store_dir))
        assert warm.fingerprints.stats.disk_entries_loaded == result["spilled"]
        # Warm start: fingerprinting the same corpus is all cache hits.
        warm.apply_delta(module_text=corpus_text)
        assert warm.fingerprints.stats.misses == 0

    def test_flush_without_directory_rejected(self, db):
        with pytest.raises(DeltaError):
            db.flush()

    def test_stats_shape(self, db, corpus_text):
        db.merge_text(corpus_text)
        stats = db.stats()
        assert stats["version"] == 1
        assert stats["functions"] == len(db.snapshot.entries)
        assert stats["commits"] == 1
        assert stats["index"]["live"] == stats["functions"]
        caches = stats["caches"]
        for key in (
            "fingerprint_hits",
            "fingerprint_misses",
            "alignment_misses",
            "plan_misses",
            "result_misses",
            "fingerprint_disk_skipped_version",
            "fingerprint_disk_skipped_invalid",
        ):
            assert key in caches

    def test_cross_request_cache_warmth(self, db, corpus_text):
        """Submitting then merging the same corpus reuses fingerprints."""
        before = db.fingerprints.stats.hits
        db.merge_text(corpus_text, use_result_cache=False)
        assert db.fingerprints.stats.hits > before


class TestDeltaBench:
    @pytest.mark.parametrize("broken", [False, True])
    def test_corpus_series_joins_decisions_identical(self, monkeypatch, broken):
        """The serve bench times a warm corpus merge after its delta and
        demands its text equal a one-shot merge of the dump."""
        if broken:
            real = FingerprintDatabase.merge_corpus

            def off_by_one(self, use_result_cache=True):
                result = dict(real(self, use_result_cache))
                result["module"] += "\n"
                return result

            monkeypatch.setattr(FingerprintDatabase, "merge_corpus", off_by_one)
        rows, metadata = run_serve_bench(sizes=[16], repeats=1)
        assert rows[0]["warm_corpus_s"] > 0
        assert rows[0]["decisions_identical"] is not broken
        assert metadata["headline"]["decisions_identical"] is not broken

    def test_build_delta_text_parses_and_applies(self, db):
        delta_text, changed = build_delta_text(db.module, 0.1, seed=11)
        assert changed
        result = db.apply_delta(module_text=delta_text)
        assert result["changed"] == sorted(changed)

    def test_incremental_matches_serial_replay(self, corpus_text):
        """The incrementally maintained index gives every function the same
        best match as a serial replay of the identical op sequence."""
        from repro.fingerprint.batch import minhash_module
        from repro.fingerprint.minhash import MinHashConfig
        from repro.search.lsh import LSHIndex

        database = FingerprintDatabase()
        database.apply_delta(module_text=corpus_text)
        corpus = parse_module(corpus_text)
        delta_text, _ = build_delta_text(corpus, 0.15, seed=23)
        database.apply_delta(module_text=delta_text)

        config = MinHashConfig()
        serial = LSHIndex(
            rows=2, bands=config.k // 2, bucket_cap=100,
            compact_ratio=database.config.compact_ratio,
        )
        defined = corpus.defined_functions()
        serial.insert_batch(
            [f.name for f in defined], minhash_module(defined, config)
        )
        delta = parse_module(delta_text)
        ddef = delta.defined_functions()
        for name in sorted(f.name for f in ddef):
            serial.remove(name)
        serial.insert_batch(
            [f.name for f in ddef], minhash_module(ddef, config)
        )
        snap = database.snapshot
        for name in snap.entries:
            assert snap.index.best_match(name) == serial.best_match(name), name
