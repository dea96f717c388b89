"""Fowler–Noll–Vo hashing (FNV-1a variant).

The paper hashes shingles with FNV-1a, "chosen for its robustness to
permutations, computational efficiency, widespread use in practice, and
simple implementation" (Section III-B).  Instead of k independent hash
functions, a single FNV-1a output is xor-ed with k random salts — the same
speed trick the paper uses.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "fnv1a_32",
    "fnv1a_32_ints",
    "fnv1a_32_pair",
    "fnv1a_32_array_u32",
    "salts",
]

FNV32_OFFSET = 0x811C9DC5
FNV32_PRIME = 0x01000193
_U32 = 0xFFFFFFFF


def fnv1a_32(data: bytes) -> int:
    """32-bit FNV-1a over raw bytes."""
    h = FNV32_OFFSET
    for byte in data:
        h ^= byte
        h = (h * FNV32_PRIME) & _U32
    return h


def fnv1a_32_ints(values: Iterable[int]) -> int:
    """32-bit FNV-1a over a sequence of 32-bit integers, byte by byte."""
    h = FNV32_OFFSET
    for value in values:
        v = value & _U32
        for shift in (0, 8, 16, 24):
            h ^= (v >> shift) & 0xFF
            h = (h * FNV32_PRIME) & _U32
    return h


def fnv1a_32_pair(a: int, b: int) -> int:
    """FNV-1a of exactly two 32-bit integers (the hot path for K=2 shingles)."""
    h = FNV32_OFFSET
    for v in (a & _U32, b & _U32):
        h ^= v & 0xFF
        h = (h * FNV32_PRIME) & _U32
        h ^= (v >> 8) & 0xFF
        h = (h * FNV32_PRIME) & _U32
        h ^= (v >> 16) & 0xFF
        h = (h * FNV32_PRIME) & _U32
        h ^= (v >> 24) & 0xFF
        h = (h * FNV32_PRIME) & _U32
    return h


def fnv1a_32_array(values: "np.ndarray") -> "np.ndarray":
    """Vectorized FNV-1a over the rows of a ``(n, w)`` uint32 array.

    Each row is hashed as *w* little-endian 32-bit words, matching
    :func:`fnv1a_32_ints` exactly.
    """
    values = np.asarray(values, dtype=np.uint64)
    if values.ndim == 1:
        values = values[:, None]
    h = np.full(values.shape[0], FNV32_OFFSET, dtype=np.uint64)
    prime = np.uint64(FNV32_PRIME)
    mask = np.uint64(_U32)
    for col in range(values.shape[1]):
        word = values[:, col]
        for shift in (0, 8, 16, 24):
            h ^= (word >> np.uint64(shift)) & np.uint64(0xFF)
            h = (h * prime) & mask
    return h.astype(np.uint32)


def fnv1a_32_array_u32(values: "np.ndarray") -> "np.ndarray":
    """Bit-identical to :func:`fnv1a_32_array`, computed in uint32.

    The hash state is a 32-bit value throughout, so uint32 wraparound
    multiplication replaces the explicit ``& 0xFFFFFFFF`` masking and the
    arrays move half the memory.  The batched engine and the LSH band keys
    hash with this; :class:`~repro.fingerprint.minhash.MinHashFingerprint`
    keeps the original implementation, the reference the tests compare
    against.
    """
    values = np.asarray(values)
    if values.dtype != np.uint32:
        values = values.astype(np.uint32)  # truncation == the & 0xFFFFFFFF mask
    if values.ndim == 1:
        values = values[:, None]
    h = np.full(values.shape[0], FNV32_OFFSET, dtype=np.uint32)
    prime = np.uint32(FNV32_PRIME)
    ff = np.uint32(0xFF)
    tmp = np.empty_like(h)
    for col in range(values.shape[1]):
        word = values[:, col]
        for shift in (0, 8, 16, 24):
            np.right_shift(word, np.uint32(shift), out=tmp)
            np.bitwise_and(tmp, ff, out=tmp)
            np.bitwise_xor(h, tmp, out=h)
            np.multiply(h, prime, out=h)
    return h


def salts(k: int, seed: int = 0xF3F3F3) -> "np.ndarray":
    """*k* deterministic 32-bit xor salts deriving k hash functions from one."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << 32, size=k, dtype=np.uint32)
