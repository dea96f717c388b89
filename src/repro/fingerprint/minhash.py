"""MinHash fingerprints (paper Section III-B).

A function's fingerprint is a fixed-size vector of *k* minimum hash values,
one per (derived) hash function, over the shingles of its encoded
instruction sequence.  The fraction of equal entries between two
fingerprints estimates the Jaccard index of the underlying shingle sets
within :math:`O(1/\\sqrt{k})`.

Following the paper, the *k* hash functions are derived from a single
FNV-1a hash by xor-ing with *k* fixed random salts, "making its generation
many times faster" with "a very small effect on the quality".  The salts
come from one fixed seed, so fingerprints are reproducible across runs;
the k-independent-hashes alternative the ablation compares against is
``tests/reference/minhash.py``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..ir.function import Function
from .encoding import encode_function
from .fnv import salts
from .shingles import shingle_set

__all__ = ["MinHashConfig", "MinHashFingerprint", "minhash_function", "exact_jaccard"]

# Seed of the salt derivation: every fingerprint of every run uses the
# same k salts for a given k.
SALT_SEED = 0xF3F3F3


@dataclass(frozen=True)
class MinHashConfig:
    """Parameters of the MinHash fingerprint.

    ``k`` — fingerprint size (number of derived hash functions); the paper's
    default is 200, with the adaptive policy shrinking it for large modules.
    ``shingle_size`` — K in the paper, default 2.
    The salts derive from the fixed :data:`SALT_SEED`.
    """

    k: int = 200
    shingle_size: int = 2

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError("fingerprint size k must be positive")
        if self.shingle_size <= 0:
            raise ValueError("shingle size must be positive")


# Bounded LRU of derived salt vectors, keyed by k.  A handful of sizes are
# ever live at once (static + adaptive configs and ablation sweeps), but
# unbounded growth would leak across long parameter sweeps.  The lock makes
# the cache safe under threaded rankers.
_SALT_CACHE: "OrderedDict[int, np.ndarray]" = OrderedDict()
_SALT_CACHE_MAX = 16
_SALT_CACHE_LOCK = threading.Lock()


def _salts_for(k: int) -> np.ndarray:
    with _SALT_CACHE_LOCK:
        cached = _SALT_CACHE.get(k)
        if cached is not None:
            _SALT_CACHE.move_to_end(k)
            return cached
    computed = salts(k, SALT_SEED).astype(np.uint32)
    with _SALT_CACHE_LOCK:
        _SALT_CACHE[k] = computed
        while len(_SALT_CACHE) > _SALT_CACHE_MAX:
            _SALT_CACHE.popitem(last=False)
    return computed


class MinHashFingerprint:
    """A k-entry MinHash vector plus the similarity/estimation operations."""

    __slots__ = ("values", "config", "num_shingles")

    def __init__(self, values: np.ndarray, config: MinHashConfig, num_shingles: int) -> None:
        self.values = values
        self.config = config
        self.num_shingles = num_shingles

    @classmethod
    def from_encoded(
        cls, encoded: Sequence[int], config: MinHashConfig = MinHashConfig()
    ) -> "MinHashFingerprint":
        """The fingerprint of one encoded stream: the batched engine's row
        for a one-function pack (an empty stream gets all-ones values,
        which match nothing but another empty stream)."""
        from .batch import minhash_encoded_one  # batch imports this module

        values, count = minhash_encoded_one(encoded, config)
        return cls(values, config, count)

    # -- similarity -----------------------------------------------------------------
    def similarity(self, other: "MinHashFingerprint") -> float:
        """Estimated Jaccard index: fraction of matching hash entries."""
        if self.config.k != other.config.k:
            raise ValueError("cannot compare fingerprints of different sizes")
        return float(np.count_nonzero(self.values == other.values)) / self.config.k

    def distance(self, other: "MinHashFingerprint") -> float:
        """Estimated Jaccard distance (1 − similarity)."""
        return 1.0 - self.similarity(other)

    def __len__(self) -> int:
        return self.config.k


def minhash_function(
    func: Function, config: MinHashConfig = MinHashConfig()
) -> MinHashFingerprint:
    """MinHash fingerprint of a function's encoded instruction sequence."""
    return MinHashFingerprint.from_encoded(encode_function(func), config)


def exact_jaccard(encoded_a: Sequence[int], encoded_b: Sequence[int], k: int = 2) -> float:
    """Ground-truth Jaccard index of two functions' shingle sets."""
    sa = shingle_set(encoded_a, k)
    sb = shingle_set(encoded_b, k)
    if not sa and not sb:
        return 1.0
    union = len(sa | sb)
    return len(sa & sb) / union if union else 1.0
