"""Tests for FNV-1a hashing, including the vectorized variant."""

import numpy as np
import pytest

from repro.fingerprint import fnv1a_32, fnv1a_32_ints, fnv1a_32_pair, salts
from repro.fingerprint.fnv import fnv1a_32_array_u32
from tests.reference.fnv import fnv1a_32_array


class TestScalar:
    def test_reference_vectors(self):
        # Published FNV-1a 32-bit test vectors.
        assert fnv1a_32(b"") == 0x811C9DC5
        assert fnv1a_32(b"a") == 0xE40C292C
        assert fnv1a_32(b"foobar") == 0xBF9CF968

    def test_ints_equals_bytes(self):
        # Hashing the int 0x04030201 byte-by-byte little-endian equals
        # hashing the same bytes directly.
        assert fnv1a_32_ints([0x04030201]) == fnv1a_32(bytes([1, 2, 3, 4]))

    def test_pair_equals_general(self):
        a, b = 0xDEADBEEF, 0x12345678
        assert fnv1a_32_pair(a, b) == fnv1a_32_ints([a, b])

    def test_order_sensitivity(self):
        assert fnv1a_32_ints([1, 2]) != fnv1a_32_ints([2, 1])


class TestVectorized:
    def test_matches_scalar_1d(self):
        values = np.array([0, 1, 0xDEADBEEF, 0xFFFFFFFF], dtype=np.uint32)
        out = fnv1a_32_array(values)
        for v, h in zip(values.tolist(), out.tolist()):
            assert h == fnv1a_32_ints([v])

    def test_matches_scalar_2d(self):
        rows = np.array([[1, 2], [3, 4], [0xDEADBEEF, 0]], dtype=np.uint32)
        out = fnv1a_32_array(rows)
        for row, h in zip(rows.tolist(), out.tolist()):
            assert h == fnv1a_32_ints(row)

    def test_empty(self):
        assert fnv1a_32_array(np.empty(0, dtype=np.uint32)).size == 0

    @pytest.mark.parametrize("shape", [(0,), (5,), (7, 1), (64, 2), (9, 7), (3, 0)])
    def test_u32_kernel_matches_reference(self, shape):
        # fnv1a_32_array_u32 (byte view, uint32 state) hashes every engine
        # and shingle; the masked uint64 fnv1a_32_array is its reference.
        rng = np.random.default_rng(sum(shape) + 1)
        values = rng.integers(0, 1 << 32, size=shape, dtype=np.uint64)
        values.flat[:1] = 0xFFFFFFFF
        got = fnv1a_32_array_u32(values.astype(np.uint32))
        assert got.dtype == np.uint32
        assert np.array_equal(got, fnv1a_32_array(values))
        rows = values if values.ndim == 2 else values[:, None]
        for row, h in zip(rows.tolist()[:8], got.tolist()):
            assert h == fnv1a_32_ints(row)


class TestSalts:
    def test_deterministic(self):
        assert np.array_equal(salts(16, seed=1), salts(16, seed=1))

    def test_seed_sensitivity(self):
        assert not np.array_equal(salts(16, seed=1), salts(16, seed=2))

    def test_distinct_values(self):
        s = salts(200)
        assert len(np.unique(s)) == 200

    @pytest.mark.parametrize("seed", [0, 1, 0xF3F3F3, 2**40 + 3, 2**130 + 99])
    @pytest.mark.parametrize("k", [1, 2, 3, 200, 201, 1000])
    def test_equals_numpy_default_rng(self, k, seed):
        # salts() spells out SeedSequence + PCG64 so the fingerprint path
        # never imports numpy.random; numpy's generator is the oracle.
        want = np.random.default_rng(seed).integers(0, 1 << 32, size=k, dtype=np.uint32)
        got = salts(k, seed)
        assert got.dtype == np.uint32
        assert np.array_equal(got, want)
