"""Bit-identity of the batched fingerprint engine vs the reference kernel.

The batched engine's whole contract is "same bits, fewer array calls":
every test here compares it against the per-function kernel of
``tests/reference/minhash.py`` — property-tested across random streams and
MinHash configurations, plus the IR-level entry points (all of which,
``MinHashFingerprint.from_encoded`` included, run the batched engine) over
generated workloads.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.fingerprint import (
    EncodingOptions,
    FingerprintCache,
    MinHashConfig,
    MinHashFingerprint,
    encode_function,
    encode_module,
    exact_jaccard,
    minhash_encoded_batch,
    minhash_encoded_one,
    minhash_function,
    minhash_module,
)
from repro.search.pairing import MinHashLSHRanker
from repro.workloads import build_workload
from tests.reference import ReferenceMinHashRanker, reference_minhash


def _functions(n=40, tag="batch"):
    return build_workload(n, tag).defined_functions()


def _assert_rows_match(values, counts, streams, config):
    for i, stream in enumerate(streams):
        ref_values, ref_shingles = reference_minhash(stream, config)
        assert np.array_equal(values[i], ref_values), f"row {i} differs"
        assert int(counts[i]) == ref_shingles
        single = MinHashFingerprint.from_encoded(stream, config)
        assert single.values.dtype == np.uint32
        assert np.array_equal(single.values, ref_values), f"row {i} differs alone"
        assert single.num_shingles == ref_shingles


def _pack(streams):
    lens = np.array([len(s) for s in streams], dtype=np.int64)
    flat = np.array([v for s in streams for v in s], dtype=np.uint64)
    return flat, lens


configs = st.builds(
    MinHashConfig,
    k=st.integers(min_value=1, max_value=64),
    shingle_size=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**20),
    independent_hashes=st.booleans(),
)
streams = st.lists(
    st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=24),
    max_size=12,
)


class TestEncodedBatchProperty:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(streams=streams, config=configs)
    def test_bit_identical_to_reference(self, streams, config):
        """minhash_encoded_batch and from_encoded == the reference kernel
        per stream, for any config — including empty streams and streams
        shorter than the shingle."""
        flat, lens = _pack(streams)
        values, counts = minhash_encoded_batch(flat, lens, config)
        assert values.shape == (len(streams), config.k)
        _assert_rows_match(values, counts, streams, config)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        common=st.lists(st.integers(min_value=0, max_value=1000), min_size=12, max_size=60),
        extra_a=st.lists(st.integers(min_value=2000, max_value=3000), max_size=20),
        extra_b=st.lists(st.integers(min_value=4000, max_value=5000), max_size=20),
    )
    def test_similarity_estimates_jaccard(self, common, extra_a, extra_b):
        """Batched MinHash similarity lands within 3/sqrt(k) of the exact
        Jaccard index (the paper's estimator-error envelope).  The bound
        assumes near-independent samples, which needs a non-degenerate
        shingle population (see the matching guard in test_minhash.py)."""
        from repro.fingerprint import shingle_set

        config = MinHashConfig(k=200)
        a, b = common + extra_a, common + extra_b
        assume(len(shingle_set(a, config.shingle_size)) >= 10)
        assume(len(shingle_set(b, config.shingle_size)) >= 10)
        flat, lens = _pack([a, b])
        values, counts = minhash_encoded_batch(flat, lens, config)
        fa = MinHashFingerprint(values[0], config, int(counts[0]))
        fb = MinHashFingerprint(values[1], config, int(counts[1]))
        truth = exact_jaccard(a, b, config.shingle_size)
        assert abs(fa.similarity(fb) - truth) <= 3.0 / np.sqrt(config.k)


class TestOneRowPath:
    """``minhash_encoded_one`` (the path ``from_encoded`` takes) against the
    reference kernel and the batch engine's one-row pack."""

    @staticmethod
    def _check(stream, config):
        ref_values, ref_shingles = reference_minhash(stream, config)
        values, shingles = minhash_encoded_one(stream, config)
        assert values.dtype == np.uint32 and values.shape == (config.k,)
        assert np.array_equal(values, ref_values)
        assert shingles == ref_shingles
        flat, lens = _pack([stream])
        batch_values, batch_counts = minhash_encoded_batch(flat, lens, config)
        assert np.array_equal(batch_values[0], values)
        assert int(batch_counts[0]) == shingles

    @pytest.mark.parametrize("independent", [False, True])
    @pytest.mark.parametrize("stream", [[], [7], [1, 2, 3], [0xFFFFFFFF] * 4])
    def test_empty_and_short_streams(self, stream, independent):
        for shingle_size in (1, 2, 4):
            config = MinHashConfig(k=32, shingle_size=shingle_size, independent_hashes=independent)
            self._check(stream, config)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        stream=st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=5, max_size=60),
        config=configs,
    )
    def test_streams_of_5_to_60_words(self, stream, config):
        self._check(stream, config)

    def test_default_config(self):
        """k = 200, the configuration the pass's remerge inserts use."""
        rng = np.random.default_rng(3)
        for size in (0, 1, 5, 17, 60):
            self._check(rng.integers(0, 2**32, size).tolist(), MinHashConfig())


class TestEncodeModule:
    def test_matches_encode_function(self):
        funcs = _functions()
        flat, lens = encode_module(funcs)
        offsets = np.cumsum(lens) - lens
        for i, func in enumerate(funcs):
            ref = encode_function(func)
            got = flat[offsets[i] : offsets[i] + lens[i]].tolist()
            assert got == ref, func.name

    def test_predicate_ablation_falls_back_identically(self):
        funcs = _functions(20, "pred")
        options = EncodingOptions(include_predicates=True)
        flat, lens = encode_module(funcs, options)
        offsets = np.cumsum(lens) - lens
        for i, func in enumerate(funcs):
            ref = encode_function(func, options)
            assert flat[offsets[i] : offsets[i] + lens[i]].tolist() == ref

    def test_empty_input(self):
        flat, lens = encode_module([])
        assert flat.size == 0 and lens.size == 0


class TestMinhashModule:
    @pytest.mark.parametrize(
        "config",
        [
            MinHashConfig(),
            MinHashConfig(k=16, shingle_size=1),
            MinHashConfig(k=64, shingle_size=3),
            MinHashConfig(k=32, independent_hashes=True),
        ],
    )
    def test_matches_minhash_function(self, config):
        funcs = _functions()
        batched = minhash_module(funcs, config)
        for func, fp in zip(funcs, batched):
            ref_values, ref_shingles = reference_minhash(encode_function(func), config)
            assert np.array_equal(fp.values, ref_values), func.name
            assert fp.num_shingles == ref_shingles
            assert np.array_equal(minhash_function(func, config).values, ref_values)

    def test_cache_returns_identical_fingerprints(self):
        funcs = _functions()
        config = MinHashConfig(k=48)
        cache = FingerprintCache()
        cached = minhash_module(funcs, config, cache=cache)
        plain = minhash_module(funcs, config)
        for a, b in zip(cached, plain):
            assert np.array_equal(a.values, b.values)
            assert a.num_shingles == b.num_shingles
        # Re-running over the same module hits for every unique body.
        before = cache.stats.hits
        minhash_module(funcs, config, cache=cache)
        assert cache.stats.hits > before
        assert cache.stats.hit_rate > 0


class TestRankerFingerprints:
    def test_ranker_fingerprints_match_reference(self):
        """The F3M ranker's resident fingerprints (batched engine, bulk index
        insert) equal the per-function reference ranker's."""
        funcs = _functions(40, "ranker-fp")
        ranker, reference = MinHashLSHRanker(), ReferenceMinHashRanker()
        ranker.preprocess(funcs)
        reference.preprocess(funcs)
        for func in funcs:
            got, ref = ranker.fingerprint(func), reference.fingerprint(func)
            assert np.array_equal(got.values, ref.values), func.name
            assert got.num_shingles == ref.num_shingles

    def test_insert_bypasses_cache(self):
        """A function inserted one at a time is fingerprinted directly:
        the cache's counters do not move, and the stored fingerprint is
        the one a ranker without a cache stores."""
        funcs = _functions(12, "insert")
        config = MinHashConfig(k=40)
        cache = FingerprintCache()
        cached, plain = MinHashLSHRanker(config, cache=cache), MinHashLSHRanker(config)
        cached.preprocess(funcs[:6])
        plain.preprocess(funcs[:6])
        before = cache.stats.to_dict()
        entries = len(cache)
        # funcs[:6] have cached bodies; funcs[6:] do not.
        for func in funcs:
            cached.remove(func)
            plain.remove(func)
            cached.insert(func)
            plain.insert(func)
            got, want = cached.fingerprint(func), plain.fingerprint(func)
            assert np.array_equal(got.values, want.values), func.name
            assert got.num_shingles == want.num_shingles
            ref_values, ref_shingles = reference_minhash(encode_function(func), config)
            assert np.array_equal(got.values, ref_values)
            assert got.num_shingles == ref_shingles
        assert cache.stats.to_dict() == before
        assert len(cache) == entries
