"""Small numpy kernels shared by the fingerprint and search layers.

``numpy.unique`` imports ``numpy.ma`` on its first call, which costs a fresh
``repro merge`` process tens of milliseconds; these helpers compute the same
answers from a stable sort and a boundary mask, which import nothing.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["first_occurrences", "segments", "sorted_unique"]


def sorted_unique(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct values of 1-D *values* in ascending order, and the index
    of each one's first occurrence, as ``numpy.unique(values, return_index=True)``."""
    values = np.asarray(values)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    first = np.empty(ordered.shape[0], dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first], order[first]


def first_occurrences(values: np.ndarray) -> np.ndarray:
    """Ascending indices of the first occurrence of every distinct value, so
    ``values[first_occurrences(values)]`` dedupes *values* keeping order."""
    first = sorted_unique(values)[1]
    first.sort()
    return first


def segments(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Indices of the concatenated ranges ``[starts[i], starts[i] + counts[i])``."""
    ends = counts.cumsum()
    total = int(ends[-1]) if ends.shape[0] else 0
    out = np.arange(total, dtype=np.int64)
    if total:
        out += (starts - (ends - counts)).repeat(counts)
    return out
