"""FNV-1a with explicit uint64 masking, and content keys grouped by length."""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.fingerprint.fnv import FNV32_OFFSET, FNV32_PRIME

_U32 = 0xFFFFFFFF

# The salt the fingerprint cache prepends for its second key pass.
KEY_SALT = 0x9E3779B9


def fnv1a_32_array(values: "np.ndarray") -> "np.ndarray":
    """FNV-1a over the rows of a ``(n, w)`` array of 32-bit words.

    Each row is hashed as *w* little-endian 32-bit words: every byte is
    shifted and masked out of a uint64 carrier, and the state is masked
    back to 32 bits after every multiply.  A 1-d array is *n* one-word
    rows.
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


def reference_content_keys(
    flat: np.ndarray, lens: np.ndarray
) -> List[Tuple[int, int, int]]:
    """``(length, fnv1a(stream), fnv1a(salt || stream))`` per packed stream.

    Streams are grouped by length; each group is gathered into an
    ``(m, length)`` matrix and hashed twice, once with the salt word
    prepended as an extra first column.
    """
    flat = np.asarray(flat, dtype=np.uint64)
    lens = np.asarray(lens, dtype=np.int64)
    n = lens.shape[0]
    offsets = np.cumsum(lens) - lens
    h1 = np.empty(n, dtype=np.uint32)
    h2 = np.empty(n, dtype=np.uint32)
    for length in np.unique(lens).tolist():
        rows = np.flatnonzero(lens == length)
        gather = offsets[rows][:, None] + np.arange(length, dtype=np.int64)[None, :]
        streams = flat[gather].reshape(rows.shape[0], length)
        h1[rows] = fnv1a_32_array(streams)
        salted = np.empty((rows.shape[0], length + 1), dtype=np.uint64)
        salted[:, 0] = KEY_SALT
        salted[:, 1:] = streams
        h2[rows] = fnv1a_32_array(salted)
    return list(zip(lens.tolist(), h1.tolist(), h2.tolist()))
