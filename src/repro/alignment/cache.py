"""Content-addressed caches of alignment decisions.

Merge workloads align the same block contents over and over: sibling
functions share identical blocks, remerge rounds re-align merged families,
and partition sweeps revisit the same module.  An alignment decision is a
pure function of the two blocks' *encoded* instruction streams (the
mergeability codes of :class:`~repro.alignment.batch.InstructionInterner`)
and the strategy, so it can be shared content-addressed, mirroring
:class:`~repro.fingerprint.cache.FingerprintCache`:

* per-block key = the stream length plus the encoded stream itself as a
  tuple, so two keys are equal exactly when the streams are and no hit
  can be a collision;
* pair key = the strategy plus both block keys;
* the cached value is the *ops array* — a read-only ``int8`` vector of
  match / gap-A / gap-B decisions from which the segment structure is
  rebuilt against the live instruction lists;
* an in-memory LRU layer bounds resident entries (``maxsize``).

Whole-function plans go through the same :class:`AlignmentCache` class,
keyed by both functions' block keys and opcode-count rows.

Hit/miss/eviction counters feed the merge report and the perf bench.
There is no disk layer: interner codes are assigned in first-seen order,
so keys are only stable within one interner's lifetime.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "AlignmentCacheStats",
    "AlignmentCache",
    "block_key",
    "BlockKey",
    "PairKey",
]

# (stream length, the stream's codes)
BlockKey = Tuple[int, Tuple[int, ...]]
# (strategy, key of block A, key of block B)
PairKey = Tuple[str, BlockKey, BlockKey]


def block_key(codes: Sequence[int]) -> BlockKey:
    """Exact content key of one encoded block body."""
    if isinstance(codes, np.ndarray):
        codes = codes.tolist()
    return (len(codes), tuple(codes))


@dataclass
class AlignmentCacheStats:
    """Cache effectiveness counters (surfaced in the merge report)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class AlignmentCache:
    """A locked LRU map with hit/miss/eviction counters.

    The engine keeps two: block-pair ops arrays keyed by :data:`PairKey`,
    and whole-function *plans* — tuples of ``(block_index_a,
    block_index_b, ops)`` triples in final block order, from which a hit
    rebuilds the :class:`~repro.alignment.model.FunctionAlignment`
    without block scoring, greedy pairing or any per-pair DP.  Values are
    stored and returned as they are: the engine makes every ops array
    read-only before it is cached, so no caller can mutate a cached
    decision.  Shared across remerge rounds, successive passes and
    partition sweeps by handing the same :class:`BatchAlignmentEngine` to
    every pass.
    """

    def __init__(self, maxsize: int = 1 << 18) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self.stats = AlignmentCacheStats()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value for *key*, or None on a miss."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return value

    def put(self, key: Hashable, value: object) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return
            self._entries[key] = value
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
