"""Shingling: fixed-length overlapping subsequences of encoded instructions.

The paper splits the encoded instruction sequence into shingles of length
K = 2 ("we empirically found that this produces the best results: K > 2
leads to fewer hash matches and higher cost ... K = 1 works on individual
instructions and does not capture the function's structure").
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

__all__ = ["shingles", "shingle_set"]


def shingles(encoded: Sequence[int], k: int = 2) -> List[Tuple[int, ...]]:
    """Overlapping length-*k* windows of *encoded*.

    A sequence shorter than *k* yields a single (short) shingle so that tiny
    functions still produce a fingerprint.
    """
    if k <= 0:
        raise ValueError("shingle size must be positive")
    n = len(encoded)
    if n == 0:
        return []
    if n < k:
        return [tuple(encoded)]
    return [tuple(encoded[i : i + k]) for i in range(n - k + 1)]


def shingle_set(encoded: Sequence[int], k: int = 2) -> Set[Tuple[int, ...]]:
    """The *set* of shingles — the ground-truth sets whose Jaccard index
    MinHash estimates (used by tests and the exact-Jaccard oracle)."""
    return set(shingles(encoded, k))
