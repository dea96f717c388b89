"""Tests for the ranking strategies (exhaustive vs MinHash+LSH)."""

import random

import pytest

from repro.search import ExhaustiveRanker, MinHashLSHRanker
from repro.workloads import make_variant
from tests.conftest import build_diamond, build_loop, build_straightline
from tests.reference import ReferenceMinHashRanker


def _population(module):
    base = build_diamond(module, "base")
    rng = random.Random(5)
    near = make_variant(base, "near", rng, 1, module)
    far1 = build_loop(module, "far1")
    far2 = build_straightline(module, "far2")
    return [base, near, far1, far2]


class TestExhaustiveRanker:
    def test_finds_nearest_neighbour(self, module):
        funcs = _population(module)
        ranker = ExhaustiveRanker()
        ranker.preprocess(funcs)
        match = ranker.best_match(funcs[0])
        assert match is not None
        assert match.function.name == "near"
        assert match.similarity > 0.8

    def test_comparison_count_is_quadratic(self, module):
        funcs = _population(module)
        ranker = ExhaustiveRanker()
        ranker.preprocess(funcs)
        for f in funcs:
            ranker.best_match(f)
        # n queries x (n-1) live candidates each.
        assert ranker.stats.comparisons == len(funcs) * (len(funcs) - 1)

    def test_removal_excludes_candidates(self, module):
        funcs = _population(module)
        ranker = ExhaustiveRanker()
        ranker.preprocess(funcs)
        ranker.remove(funcs[1])
        match = ranker.best_match(funcs[0])
        assert match.function.name != "near"

    def test_single_function_no_match(self, module):
        func = build_diamond(module)
        ranker = ExhaustiveRanker()
        ranker.preprocess([func])
        assert ranker.best_match(func) is None

    def test_similarity_helper(self, module):
        funcs = _population(module)
        ranker = ExhaustiveRanker()
        ranker.preprocess(funcs)
        assert ranker.similarity(funcs[0], funcs[0]) == 1.0


class TestMinHashLSHRanker:
    def test_finds_near_duplicate(self, module):
        funcs = _population(module)
        ranker = MinHashLSHRanker()
        ranker.preprocess(funcs)
        match = ranker.best_match(funcs[0])
        assert match is not None
        assert match.function.name == "near"

    def test_threshold_filters_matches(self, module):
        funcs = _population(module)
        ranker = MinHashLSHRanker(threshold=0.999)
        ranker.preprocess(funcs)
        # 'near' was mutated, so its similarity is below 0.999.
        match = ranker.best_match(funcs[0])
        assert match is None or match.similarity >= 0.999

    def test_removal(self, module):
        funcs = _population(module)
        ranker = MinHashLSHRanker()
        ranker.preprocess(funcs)
        ranker.remove(funcs[1])
        match = ranker.best_match(funcs[0])
        assert match is None or match.function.name != "near"

    def test_stats_accumulate(self, module):
        funcs = _population(module)
        ranker = MinHashLSHRanker()
        ranker.preprocess(funcs)
        for f in funcs:
            ranker.best_match(f)
        assert ranker.stats.queries == len(funcs)
        assert ranker.stats.buckets_probed > 0

    def test_adaptive_configuration(self, module):
        funcs = _population(module)
        ranker = MinHashLSHRanker(adaptive=True)
        ranker.preprocess(funcs)
        # Small module: paper defaults.
        assert ranker.parameters.bands == 100
        assert ranker.threshold == 0.05
        assert ranker.config.k == 200
        assert ranker.name == "f3m-adaptive"

    def test_custom_bands_and_rows(self, module):
        funcs = _population(module)
        ranker = MinHashLSHRanker(rows=4, bands=50)
        ranker.preprocess(funcs)
        assert ranker._index.rows == 4
        assert ranker._index.bands == 50

    def test_preprocess_required(self, module):
        ranker = MinHashLSHRanker()
        with pytest.raises(AssertionError):
            ranker.best_match(build_diamond(module))


class TestExhaustiveRankerBookkeeping:
    def _many(self, n=80):
        from repro.workloads import build_workload

        return build_workload(n, "exh").defined_functions()

    def test_remove_frees_entries(self, module):
        funcs = _population(module)
        ranker = ExhaustiveRanker()
        ranker.preprocess(funcs)
        assert len(ranker._fingerprints) == len(funcs)
        ranker.remove(funcs[0])
        # No leaked fingerprint/index entries for removed functions.
        assert id(funcs[0]) not in ranker._fingerprints
        assert id(funcs[0]) not in ranker._index_of
        assert len(ranker._fingerprints) == len(funcs) - 1

    def test_compaction_when_mostly_dead(self):
        funcs = self._many()
        ranker = ExhaustiveRanker()
        ranker.preprocess(funcs)
        rows_before = len(ranker._functions)
        for func in funcs[: int(len(funcs) * 0.7)]:
            ranker.remove(func)
        # The matrix compacted: stored rows shrank, and dead rows never
        # outnumber live ones while the matrix is big enough to rebuild.
        assert len(ranker._functions) < rows_before
        assert ranker._live_count <= len(ranker._functions)
        assert len(ranker._functions) <= max(64, 2 * ranker._live_count)
        survivors = funcs[int(len(funcs) * 0.7) :]
        for func in survivors:
            match = ranker.best_match(func)
            if match is not None:
                assert match.function in survivors

    def test_results_unchanged_by_compaction(self):
        funcs = self._many()
        removed, kept = funcs[:60], funcs[60:]
        compacted = ExhaustiveRanker()
        compacted.preprocess(funcs)
        for func in removed:
            compacted.remove(func)
        fresh = ExhaustiveRanker()
        fresh.preprocess(kept)
        for func in kept:
            a, b = compacted.best_match(func), fresh.best_match(func)
            if a is None or b is None:
                assert a is None and b is None
            else:
                assert a.function is b.function
                assert a.similarity == b.similarity


class TestBatchedRanker:
    def _funcs(self, n=60):
        from repro.workloads import build_workload

        return build_workload(n, "batched").defined_functions()

    def test_batched_matches_per_function_ranking(self):
        funcs = self._funcs()
        batched = MinHashLSHRanker()
        batched.preprocess(funcs)
        loop = ReferenceMinHashRanker()
        loop.preprocess(funcs)
        for func in funcs:
            a, b = batched.best_match(func), loop.best_match(func)
            if a is None or b is None:
                assert a is None and b is None
            else:
                assert a.function is b.function
                assert a.similarity == b.similarity

    def test_preprocess_stage_times_reported(self):
        funcs = self._funcs(20)
        ranker = MinHashLSHRanker()
        ranker.preprocess(funcs)
        assert set(ranker.stage_times) == {"fingerprint", "index"}
        assert all(v >= 0 for v in ranker.stage_times.values())

    def test_batched_insert_uses_cache(self):
        from repro.fingerprint import FingerprintCache

        funcs = self._funcs(20)
        cache = FingerprintCache()
        ranker = MinHashLSHRanker(cache=cache)
        ranker.preprocess(funcs)
        assert cache.stats.misses > 0
        # A second ranker's preprocess() of a known body hits the cache.
        extra = MinHashLSHRanker(cache=cache)
        extra.preprocess(funcs[:1])
        assert cache.stats.hits > 0


def _decisions(report):
    return [(a.function, a.candidate, str(a.outcome), a.saving) for a in report.attempts]


class TestDecisionEquivalence:
    """A whole merging pass ranks identically through the production
    ranker and the per-function reference, remerges included.  The second
    case forces index compactions (low ratio) and capped buckets."""

    @pytest.mark.parametrize("compact_ratio,bucket_cap", [(1.0, 100), (0.1, 4)])
    def test_merge_decisions_identical(self, compact_ratio, bucket_cap):
        from repro.ir.printer import print_module
        from repro.merge.pass_ import FunctionMergingPass, PassConfig
        from repro.workloads import build_workload

        config = PassConfig(verify=False, lsh_compact_ratio=compact_ratio)
        results = []
        for ranker in (
            MinHashLSHRanker(bucket_cap=bucket_cap),
            ReferenceMinHashRanker(bucket_cap=bucket_cap),
        ):
            module = build_workload(200, "decision-eq")
            report = FunctionMergingPass(ranker, config).run(module)
            stats = ranker.stats
            results.append(
                (_decisions(report), stats.comparisons, stats.capped_buckets, print_module(module))
            )
        assert results[0] == results[1]
        assert sum(1 for d in results[0][0] if d[2] == "merged") > 10
