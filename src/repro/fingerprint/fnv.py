"""Fowler–Noll–Vo hashing (FNV-1a variant).

The paper hashes shingles with FNV-1a, "chosen for its robustness to
permutations, computational efficiency, widespread use in practice, and
simple implementation" (Section III-B).  Instead of k independent hash
functions, a single FNV-1a output is xor-ed with k random salts — the same
speed trick the paper uses.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

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


def fnv1a_32_array_u32(values: "np.ndarray") -> "np.ndarray":
    """Vectorized FNV-1a over the rows of a ``(n, w)`` uint32 array.

    Each row is hashed as *w* little-endian 32-bit words, matching
    :func:`fnv1a_32_ints` exactly.  The hash state is a 32-bit value
    throughout, so uint32 wraparound multiplication replaces explicit
    ``& 0xFFFFFFFF`` masking, and a little-endian byte view of the words
    replaces shift-and-mask byte extraction: two array operations per
    byte.  The batched fingerprint engine and the LSH band keys hash with
    this; the fingerprint cache's content keys step the same arithmetic
    column by column.  The masked uint64 kernel it replaced is the test
    oracle ``tests/reference/fnv.py``.
    """
    values = np.asarray(values)
    if values.dtype != np.uint32:
        values = values.astype(np.uint32)  # truncation == the & 0xFFFFFFFF mask
    if values.ndim == 1:
        values = values[:, None]
    n, width = values.shape
    octets = np.ascontiguousarray(values, dtype="<u4").view(np.uint8).reshape(n, 4 * width)
    h = np.full(n, FNV32_OFFSET, dtype=np.uint32)
    prime = np.uint32(FNV32_PRIME)
    for col in range(4 * width):
        np.bitwise_xor(h, octets[:, col], out=h)
        np.multiply(h, prime, out=h)
    return h


# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) | 4865540595714422341
_U64 = (1 << 64) - 1
_U128 = (1 << 128) - 1


def _seed_sequence_state(seed: int) -> List[int]:
    """The four 64-bit words ``SeedSequence(seed).generate_state(4, uint64)``."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    entropy = [0] if seed == 0 else []
    while seed:
        entropy.append(seed & _U32)
        seed >>= 32
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _U32
        value = (value * hash_const) & _U32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_L * x - _MIX_R * y) & _U32
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    words = []
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _U32
        value = (value * hash_const) & _U32
        words.append(value ^ (value >> 16))
    return [words[i] | (words[i + 1] << 32) for i in range(0, 8, 2)]


def salts(k: int, seed: int = 0xF3F3F3) -> "np.ndarray":
    """*k* deterministic 32-bit xor salts deriving k hash functions from one.

    The values are those of ``np.random.default_rng(seed).integers(0, 1 << 32,
    size=k, dtype=np.uint32)``, generated in pure Python: SeedSequence
    mixing seeds a PCG64 generator, whose XSL-RR outputs are split into two
    32-bit draws each, low half first.  Spelling the generator out keeps
    ``numpy.random`` (and its import cost) off the fingerprinting path.
    """
    s0, s1, s2, s3 = _seed_sequence_state(seed)
    inc = ((((s2 << 64) | s3) << 1) | 1) & _U128
    # PCG's srandom: step from state 0 (giving inc), add the seed, step.
    state = ((inc + ((s0 << 64) | s1)) * _PCG_MULT + inc) & _U128
    out: List[int] = []
    while len(out) < k:
        state = (state * _PCG_MULT + inc) & _U128
        rot = state >> 122
        word = ((state >> 64) ^ state) & _U64
        word = ((word >> rot) | (word << (64 - rot))) & _U64
        out.append(word & _U32)
        out.append(word >> 32)
    return np.array(out[:k], dtype=np.uint32)
