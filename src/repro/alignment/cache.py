"""Content-addressed cache of block-pair alignment decisions.

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
* the cached value is the *ops array* — an ``int8`` vector of
  match / gap-A / gap-B decisions from which the segment structure is
  rebuilt against the live instruction lists;
* an in-memory LRU layer bounds resident entries (``maxsize``).

Hit/miss/eviction counters feed the merge report and the perf bench.
There is no disk layer: interner codes are assigned in first-seen order,
so keys are only stable within one interner's lifetime.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "AlignmentCacheStats",
    "AlignmentCache",
    "PlanCache",
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
    """LRU store of alignment ops arrays keyed by block-pair content.

    Thread-safe (one lock around the entry map).  Shared across remerge
    rounds, successive passes and partition sweeps by handing the same
    instance (or the same :class:`BatchAlignmentEngine`) to every pass.
    """

    def __init__(self, maxsize: int = 1 << 18) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self.stats = AlignmentCacheStats()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[PairKey, np.ndarray]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: PairKey) -> Optional[np.ndarray]:
        """The cached ops array for *key*, or None on a miss.

        Returned as a copy so callers can never mutate a cached decision.
        """
        with self._lock:
            ops = self._entries.get(key)
            if ops is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return ops.copy()

    def put(self, key: PairKey, ops: np.ndarray) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return
            self._entries[key] = np.array(ops, dtype=np.int8, copy=True)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class PlanCache:
    """LRU store of whole-function alignment *plans*.

    A plan is the content-addressed residue of one function-pair
    alignment: a tuple of ``(block_index_a, block_index_b, ops)`` triples
    in final block order.  On a hit the engine rebuilds the
    :class:`~repro.alignment.model.FunctionAlignment` against the live
    blocks without redoing block scoring, greedy pairing or any per-pair
    DP.  Values are immutable (tuples of read-only arrays), so no
    defensive copies are needed.
    """

    def __init__(self, maxsize: int = 1 << 16) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self.stats = AlignmentCacheStats()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, tuple]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> Optional[tuple]:
        with self._lock:
            plan = self._entries.get(key)
            if plan is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return plan

    def put(self, key: tuple, plan: tuple) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return
            self._entries[key] = plan
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
