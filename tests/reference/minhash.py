"""MinHash of one function at a time: hash its shingles, then take k minima."""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.fingerprint.fnv import salts
from repro.fingerprint.minhash import SALT_SEED, MinHashConfig

from .fnv import fnv1a_32_array


def shingle_hashes(encoded: Sequence[int], k: int = 2) -> np.ndarray:
    """FNV-1a hash of every length-*k* shingle, as a uint32 array; a
    sequence shorter than *k* is one short shingle."""
    n = len(encoded)
    if n == 0:
        return np.empty(0, dtype=np.uint32)
    arr = np.asarray(encoded, dtype=np.uint32)
    if n < k:
        return fnv1a_32_array(arr[None, :])
    windows = np.lib.stride_tricks.sliding_window_view(arr, k)
    return fnv1a_32_array(windows)


def reference_minhash(
    encoded: Sequence[int],
    config: MinHashConfig = MinHashConfig(),
    independent: bool = False,
) -> Tuple[np.ndarray, int]:
    """``(values, num_shingles)`` of one encoded stream.

    The k hash functions are the shingle hash xor-ed with k salts (the
    paper's trick, which production computes), or with ``independent``
    k FNV-1a hashes of ``(salt, shingle_hash)`` pairs (the alternative the
    xor-salt ablation compares against).  An empty stream gets all-ones
    values, which match nothing but another empty stream.
    """
    base = shingle_hashes(encoded, config.shingle_size)
    if base.size == 0:
        return np.full(config.k, 0xFFFFFFFF, dtype=np.uint32), 0
    salt_vec = salts(config.k, SALT_SEED).astype(np.uint32)
    if independent:
        cols = []
        for salt in salt_vec:
            pairs = np.stack([np.full(base.shape, salt, dtype=np.uint32), base], axis=1)
            cols.append(fnv1a_32_array(pairs).min())
        values = np.array(cols, dtype=np.uint32)
    else:
        values = (base[:, None] ^ salt_vec[None, :]).min(axis=0)
    return values.astype(np.uint32), int(base.size)
