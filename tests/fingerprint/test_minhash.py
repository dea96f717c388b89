"""MinHash tests, including the Jaccard-estimation property (hypothesis)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.fingerprint import (
    MinHashConfig,
    MinHashFingerprint,
    exact_jaccard,
    shingle_set,
    shingles,
)
from tests.reference import reference_minhash, shingle_hashes


class TestShingles:
    def test_window_count(self):
        assert len(shingles([1, 2, 3, 4], k=2)) == 3
        assert shingles([1, 2, 3], k=2) == [(1, 2), (2, 3)]

    def test_short_sequences(self):
        assert shingles([7], k=2) == [(7,)]
        assert shingles([], k=2) == []

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            shingles([1], k=0)

    def test_hashes_match_set_cardinality_upper_bound(self):
        seq = [1, 2, 3, 2, 1]
        hashes = shingle_hashes(seq, 2)
        assert hashes.shape == (4,)

    def test_shingle_set(self):
        assert shingle_set([1, 2, 1, 2], 2) == {(1, 2), (2, 1)}


class TestFingerprint:
    def test_identical_sequences_identical_fingerprints(self):
        cfg = MinHashConfig(k=64)
        a = MinHashFingerprint.from_encoded([1, 2, 3, 4, 5], cfg)
        b = MinHashFingerprint.from_encoded([1, 2, 3, 4, 5], cfg)
        assert a.similarity(b) == 1.0

    def test_disjoint_sequences_low_similarity(self):
        cfg = MinHashConfig(k=128)
        a = MinHashFingerprint.from_encoded(list(range(100, 150)), cfg)
        b = MinHashFingerprint.from_encoded(list(range(900, 950)), cfg)
        assert a.similarity(b) < 0.1

    def test_empty_fingerprint_only_matches_itself(self):
        cfg = MinHashConfig(k=32)
        empty = MinHashFingerprint.from_encoded([], cfg)
        other = MinHashFingerprint.from_encoded([1, 2, 3], cfg)
        assert empty.similarity(empty) == 1.0
        assert empty.similarity(other) < 0.5

    def test_incompatible_sizes_rejected(self):
        a = MinHashFingerprint.from_encoded([1, 2], MinHashConfig(k=32))
        b = MinHashFingerprint.from_encoded([1, 2], MinHashConfig(k=64))
        with pytest.raises(ValueError):
            a.similarity(b)

    def test_distance_is_one_minus_similarity(self):
        cfg = MinHashConfig(k=64)
        a = MinHashFingerprint.from_encoded([1, 2, 3, 4], cfg)
        b = MinHashFingerprint.from_encoded([1, 2, 3, 9], cfg)
        assert a.distance(b) == pytest.approx(1.0 - a.similarity(b))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MinHashConfig(k=0)
        with pytest.raises(ValueError):
            MinHashConfig(shingle_size=0)


class TestEstimationQuality:
    """MinHash similarity must estimate the exact Jaccard index within
    O(1/sqrt(k)) — the property the whole ranking strategy rests on."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        base=st.lists(st.integers(0, 500), min_size=8, max_size=120),
        edits=st.integers(0, 25),
        seed=st.integers(0, 2**16),
    )
    def test_estimate_within_bound(self, base, edits, seed):
        rng = np.random.default_rng(seed)
        variant = list(base)
        for _ in range(edits):
            pos = int(rng.integers(0, len(variant)))
            variant[pos] = int(rng.integers(0, 500))
        # The O(1/sqrt(k)) concentration bound assumes the xor-salted
        # samples are close to independent, which needs a non-degenerate
        # shingle population; near-constant sequences (a handful of
        # distinct shingles) correlate the salts and genuinely exceed it.
        assume(len(shingle_set(base, 2)) >= 8)
        assume(len(shingle_set(variant, 2)) >= 8)
        k = 256
        cfg = MinHashConfig(k=k)
        fa = MinHashFingerprint.from_encoded(base, cfg)
        fb = MinHashFingerprint.from_encoded(variant, cfg)
        estimated = fa.similarity(fb)
        exact = exact_jaccard(base, variant)
        # 4 standard errors of the k-sample estimator.
        assert abs(estimated - exact) <= 4.0 / np.sqrt(k) + 1e-9

    def test_estimate_improves_with_k(self):
        rng = np.random.default_rng(42)
        base = list(rng.integers(0, 300, size=80))
        variant = list(base)
        for pos in rng.integers(0, 80, size=12):
            variant[int(pos)] = int(rng.integers(0, 300))
        exact = exact_jaccard(base, variant)
        errors = {}
        for k in (16, 64, 256):
            cfg = MinHashConfig(k=k)
            fa = MinHashFingerprint.from_encoded(base, cfg)
            fb = MinHashFingerprint.from_encoded(variant, cfg)
            errors[k] = abs(fa.similarity(fb) - exact)
        # Not strictly monotone per-sample, but k=256 should beat k=16.
        assert errors[256] <= errors[16] + 0.05

    def test_xor_trick_close_to_independent_hashes(self):
        """The paper's single-hash-xor-salts trick must behave like truly
        independent hash functions for estimation purposes."""
        rng = np.random.default_rng(7)
        base = list(rng.integers(0, 400, size=100))
        variant = list(base)
        for pos in rng.integers(0, 100, size=20):
            variant[int(pos)] = int(rng.integers(0, 400))
        exact = exact_jaccard(base, variant)
        cfg = MinHashConfig(k=256)

        def independent_fingerprint(stream):
            values, shingles = reference_minhash(stream, cfg, independent=True)
            return MinHashFingerprint(values, cfg, shingles)

        for independent in (False, True):
            if independent:
                fa, fb = independent_fingerprint(base), independent_fingerprint(variant)
            else:
                fa = MinHashFingerprint.from_encoded(base, cfg)
                fb = MinHashFingerprint.from_encoded(variant, cfg)
            assert abs(fa.similarity(fb) - exact) <= 0.3


class TestExactJaccard:
    def test_identical(self):
        assert exact_jaccard([1, 2, 3], [1, 2, 3]) == 1.0

    def test_disjoint(self):
        assert exact_jaccard([1, 2, 3], [7, 8, 9]) == 0.0

    def test_empty_both(self):
        assert exact_jaccard([], []) == 1.0
