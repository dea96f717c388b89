"""Vectorized attempt-stage alignment over encoded instruction streams.

The pure aligner (:mod:`~repro.alignment.hyfm_blocks`) calls
:func:`~repro.alignment.model.mergeable` per DP cell — a Python predicate
over opcodes, types and operand lists, quadratic per block pair.  This
module moves the whole attempt-stage hot path onto integer codes:

* :class:`InstructionInterner` assigns every instruction a dense integer
  *mergeability code* such that code equality is **exactly**
  ``mergeable(a, b)``.  This works because ``mergeable`` is an equivalence
  relation on non-phi, non-terminator instructions: it only tests the
  opcode, identity of the result/operand types, the comparison predicate
  and the alloca allocated type — all per-instruction attributes, interned
  here into one key.  (The 32-bit *fingerprint* encoding of
  :mod:`~repro.fingerprint.encoding` deliberately blurs predicates and
  type identity, so it cannot be reused for alignment decisions.)
* :func:`nw_ops_encoded` runs Needleman–Wunsch over two code streams with
  numpy row-wise DP — the left-gap dependency inside a row is resolved by
  a prefix-scan (``np.maximum.accumulate``) — plus an optional banded mode
  for near-diagonal alignments; :func:`linear_ops_encoded` is HyFM's
  prefix/suffix strategy as three array comparisons.  Both return an
  *ops array* (``int8``: match / gap-A / gap-B) whose decisions are
  bit-identical to the pure-Python aligners (property-tested).
* :class:`BatchAlignmentEngine` memoizes one entry per function — block
  encodings, exact content keys and opcode counts, built in one walk and
  read by the profitability bound too — scores all block pairs of a
  candidate function pair in one vectorized similarity matrix, replays
  the pure greedy pairing order exactly, and shares decisions through a
  content-addressed :class:`~repro.alignment.cache.AlignmentCache`.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.linearizer import linearize_blocks
from ..analysis.size import function_size, instruction_size
from ..fingerprint.opcode_freq import _DIM, _INDEX
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (
    TERMINATOR_OPCODES,
    Alloca,
    FCmp,
    ICmp,
    Instruction,
    Opcode,
)
from ..obs import trace
from .cache import AlignmentCache, PlanCache, block_key
from .hyfm_blocks import _body
from .model import BlockAlignment, FunctionAlignment, SharedSegment, SplitSegment

__all__ = [
    "InstructionInterner",
    "nw_ops_encoded",
    "linear_ops_encoded",
    "ops_to_alignment",
    "BatchAlignmentEngine",
    "OP_MATCH",
    "OP_GAP_A",
    "OP_GAP_B",
]

#: Ops-array entries: consume one instruction from each side, from A only,
#: or from B only.
OP_MATCH, OP_GAP_A, OP_GAP_B = 0, 1, 2

# Below this DP area the numpy per-row overhead loses to the pure loop.
_SMALL_NW_PRODUCT = 256

# Opcodes whose instructions ``mergeable`` rejects even reflexively.
_UNIQUE_OPCODES = TERMINATOR_OPCODES | {Opcode.PHI}

# Banded-mode sentinel: far below any reachable alignment score, far above
# int64 overflow when penalties are added.
_NEG = -(1 << 40)


class InstructionInterner:
    """Dense integer codes where code equality ⇔ :func:`mergeable`.

    Keys hold the type objects themselves: the IR types have no value
    equality, so dict lookup degenerates to the ``is`` checks ``mergeable``
    performs, and the key tuples keep the types alive (an ``id`` can never
    be reused while its entry is live).  Phi and terminator instructions —
    for which ``mergeable`` is false even reflexively — get a fresh code
    per instance, so their codes never compare equal to anything.
    """

    def __init__(self) -> None:
        self._codes: Dict[tuple, int] = {}
        self._singletons: Dict[int, Tuple[Instruction, int]] = {}
        self._next = 0

    def __len__(self) -> int:
        return self._next

    @staticmethod
    def _key(inst: Instruction) -> tuple:
        ops = inst._operands
        return (
            inst.opcode,
            inst.type,
            len(ops),
            tuple([op.type for op in ops]),
            inst.pred if isinstance(inst, (ICmp, FCmp)) else None,
            inst.allocated_type if isinstance(inst, Alloca) else None,
        )

    def code(self, inst: Instruction) -> int:
        if inst.opcode in _UNIQUE_OPCODES:
            entry = self._singletons.get(id(inst))
            if entry is not None:
                return entry[1]
            code = self._next
            self._next += 1
            self._singletons[id(inst)] = (inst, code)
            return code
        key = self._key(inst)
        code = self._codes.get(key)
        if code is None:
            code = self._next
            self._next += 1
            self._codes[key] = code
        return code


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


def _nw_ops_py(
    a: List[int],
    b: List[int],
    match_score: int,
    mismatch_penalty: int,
    gap_penalty: int,
) -> List[List[int]]:
    """The pure-Python DP matrix over integer codes (reference recurrence)."""
    n, m = len(a), len(b)
    score = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        score[i][0] = score[i - 1][0] + gap_penalty
    for j in range(1, m + 1):
        score[0][j] = score[0][j - 1] + gap_penalty
    for i in range(1, n + 1):
        row = score[i]
        prev = score[i - 1]
        code_a = a[i - 1]
        for j in range(1, m + 1):
            diag = prev[j - 1] + (
                match_score if code_a == b[j - 1] else mismatch_penalty
            )
            row[j] = max(diag, prev[j] + gap_penalty, row[j - 1] + gap_penalty)
    return score


def _traceback(
    score: List[List[int]],
    a: List[int],
    b: List[int],
    match_score: int,
    mismatch_penalty: int,
    gap_penalty: int,
) -> np.ndarray:
    """Replay the pure NW traceback preference (diag, then up, then left).

    A mismatch-diagonal emits gap-A then gap-B into the reversed list, so
    the final order is gap-B before gap-A — exactly the two entries
    :func:`~repro.alignment.needleman_wunsch.needleman_wunsch` produces.
    """
    ops: List[int] = []
    i, j = len(a), len(b)
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            matched = a[i - 1] == b[j - 1]
            diag = score[i - 1][j - 1] + (
                match_score if matched else mismatch_penalty
            )
            if score[i][j] == diag:
                if matched:
                    ops.append(OP_MATCH)
                else:
                    ops.append(OP_GAP_A)
                    ops.append(OP_GAP_B)
                i -= 1
                j -= 1
                continue
        if i > 0 and score[i][j] == score[i - 1][j] + gap_penalty:
            ops.append(OP_GAP_A)
            i -= 1
        else:
            ops.append(OP_GAP_B)
            j -= 1
    ops.reverse()
    return np.array(ops, dtype=np.int8)


def nw_ops_encoded(
    codes_a: np.ndarray,
    codes_b: np.ndarray,
    match_score: int = 2,
    mismatch_penalty: int = -1,
    gap_penalty: int = -1,
    band: Optional[int] = None,
) -> np.ndarray:
    """Needleman–Wunsch decisions over two encoded streams, vectorized.

    The DP runs one numpy row at a time: with ``u[k] = candidate[k] − k·g``
    the left-gap recurrence ``row[j] = max(cand[j], row[j−1] + g)`` becomes
    a running maximum, so each row is a prefix scan instead of a Python
    loop.  Tiny problems fall back to the pure loop (same recurrence, same
    traceback — identical decisions either way).

    ``band`` restricts the DP to ``|i − j| ≤ band`` (cells outside score a
    sentinel ``−∞``), an *approximation* for near-diagonal pairs; it is
    ignored when ``|n − m| > band`` would make the end cell unreachable.
    With ``band ≥ max(n, m)`` the result is identical to the full DP.
    """
    a = np.asarray(codes_a, dtype=np.int64)
    b = np.asarray(codes_b, dtype=np.int64)
    n, m = a.shape[0], b.shape[0]
    if band is not None and abs(n - m) > band:
        band = None
    al, bl = a.tolist(), b.tolist()
    if band is None and n * m <= _SMALL_NW_PRODUCT:
        score = _nw_ops_py(al, bl, match_score, mismatch_penalty, gap_penalty)
        return _traceback(score, al, bl, match_score, mismatch_penalty, gap_penalty)

    g = gap_penalty
    jg = np.arange(m + 1, dtype=np.int64) * g
    score = np.empty((n + 1, m + 1), dtype=np.int64)
    score[0] = jg
    if band is not None and band + 1 <= m:
        score[0, band + 1 :] = _NEG
    u = np.empty(m + 1, dtype=np.int64)
    for i in range(1, n + 1):
        prev = score[i - 1]
        diag = prev[:-1] + np.where(b == a[i - 1], match_score, mismatch_penalty)
        np.maximum(diag, prev[1:] + g, out=u[1:])
        u[1:] -= jg[1:]
        u[0] = i * g if band is None or i <= band else _NEG
        row = np.maximum.accumulate(u) + jg
        if band is not None:
            row[: max(0, i - band)] = _NEG
            if i + band + 1 <= m:
                row[i + band + 1 :] = _NEG
        score[i] = row
    return _traceback(
        score.tolist(), al, bl, match_score, mismatch_penalty, gap_penalty
    )


def linear_ops_encoded(codes_a: np.ndarray, codes_b: np.ndarray) -> np.ndarray:
    """HyFM's linear strategy (shared prefix/suffix, split middle) as ops.

    Mirrors :func:`~repro.alignment.hyfm_blocks.align_blocks_linear`: the
    prefix is the longest run of equal leading codes, the suffix the
    longest run of equal trailing codes over what the prefix left.
    """
    a = np.asarray(codes_a, dtype=np.int64)
    b = np.asarray(codes_b, dtype=np.int64)
    n, m = a.shape[0], b.shape[0]
    limit = min(n, m)
    prefix = 0
    if limit:
        eq = a[:limit] == b[:limit]
        # argmin of an all-True array is 0, not "no mismatch" — guard it.
        prefix = limit if eq.all() else int(np.argmin(eq))
    rem = limit - prefix
    suffix = 0
    if rem:
        eq = a[::-1][:rem] == b[::-1][:rem]
        suffix = rem if eq.all() else int(np.argmin(eq))
    ops = np.empty(n + m - prefix - suffix, dtype=np.int8)
    ops[:prefix] = OP_MATCH
    mid_a = n - prefix - suffix
    mid_b = m - prefix - suffix
    ops[prefix : prefix + mid_a] = OP_GAP_A
    ops[prefix + mid_a : prefix + mid_a + mid_b] = OP_GAP_B
    ops[prefix + mid_a + mid_b :] = OP_MATCH
    return ops


def ops_to_alignment(
    ops: np.ndarray,
    block_a: BasicBlock,
    block_b: BasicBlock,
    seq_a: Sequence[Instruction],
    seq_b: Sequence[Instruction],
) -> BlockAlignment:
    """Rebuild the segment structure from an ops array.

    Contiguous matches become one :class:`SharedSegment`, contiguous gap
    runs one :class:`SplitSegment` — the same grouping the pure aligners'
    flush logic produces, so the resulting alignment is structurally
    identical to theirs.
    """
    alignment = BlockAlignment(block_a, block_b)
    segments = alignment.segments
    ia = ib = 0
    shared: List[Tuple[Instruction, Instruction]] = []
    left: List[Instruction] = []
    right: List[Instruction] = []
    for op in ops.tolist():
        if op == OP_MATCH:
            if left or right:
                segments.append(SplitSegment(left, right))
                left, right = [], []
            shared.append((seq_a[ia], seq_b[ib]))
            ia += 1
            ib += 1
        else:
            if shared:
                segments.append(SharedSegment(shared))
                shared = []
            if op == OP_GAP_A:
                left.append(seq_a[ia])
                ia += 1
            else:
                right.append(seq_b[ib])
                ib += 1
    if left or right:
        segments.append(SplitSegment(left, right))
    if shared:
        segments.append(SharedSegment(shared))
    return alignment


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class _FunctionEntry:
    """Everything the engine and the profitability bound know about one
    function version, built in one walk over its blocks in reverse
    postorder.

    Per block: its body (no phis, no terminator), the body's mergeability
    codes as a list and as an ``int64`` array, and its exact content key
    ``(len(codes), tuple(codes))``.  Per function: the ``(blocks × _DIM)``
    opcode-count matrix and block magnitudes (instruction counts) that
    score block pairs, the content key, the tuple of its block keys, and
    ``rows``, the count matrix's bytes.  Block pairing reads the counts of
    phis and terminators too, so a whole-function plan is keyed by both
    ``key`` and ``rows`` (the magnitudes are the rows' sums).  The
    profitability bound's inputs (:meth:`profile`) are computed on first
    use.
    """

    __slots__ = (
        "function",
        "blocks",
        "bodies",
        "codes",
        "arrays",
        "keys",
        "counts",
        "magnitudes",
        "key",
        "rows",
        "code_counts",
        "code_weights",
        "body_weight",
        "total_size",
    )

    def __init__(self, function: Function, interner: InstructionInterner) -> None:
        self.function = function
        self.blocks = blocks = linearize_blocks(function)
        code = interner.code
        bodies: List[List[Instruction]] = []
        codes: List[List[int]] = []
        cells: List[int] = []
        for base, block in enumerate(blocks):
            body = _body(block)
            bodies.append(body)
            codes.append([code(inst) for inst in body])
            base *= _DIM
            cells.extend([base + _INDEX[inst.opcode] for inst in block.instructions])
        self.bodies = bodies
        self.codes = codes
        self.arrays = [np.array(c, dtype=np.int64) for c in codes]
        self.keys = keys = [block_key(c) for c in codes]
        self.key = tuple(keys)
        n = len(blocks)
        self.counts = np.bincount(
            np.array(cells, dtype=np.int64), minlength=n * _DIM
        ).reshape(n, _DIM)
        self.rows = self.counts.tobytes()
        self.magnitudes = np.array(
            [len(block.instructions) for block in blocks], dtype=np.int64
        )
        self.code_counts: Optional[Dict[int, int]] = None

    def profile(self) -> "_FunctionEntry":
        """Fill in the profitability bound's inputs, once: the multiset of
        body codes, each code's size-model weight, the body's total weight
        and :func:`~repro.analysis.size.function_size`."""
        if self.code_counts is None:
            weights: Dict[int, int] = {}
            for body, codes in zip(self.bodies, self.codes):
                for inst, code in zip(body, codes):
                    if code not in weights:
                        weights[code] = instruction_size(inst)
            counts = Counter(chain.from_iterable(self.codes))
            self.code_weights = weights
            self.body_weight = sum(weights[c] * n for c, n in counts.items())
            self.total_size = function_size(self.function)
            self.code_counts = counts
        return self


class BatchAlignmentEngine:
    """Memoized, vectorized, cache-backed drop-in for ``align_functions``.

    Produces a :class:`FunctionAlignment` with exactly the block pairing
    and segment structure of the pure path:

    * each function's linearization, mergeability encodings and block
      opcode counts are memoized in one :class:`_FunctionEntry` (a
      function is scored against many candidates before it is consumed),
      which the profitability bound reads too;
    * all pair similarities are computed as one integer matrix and ranked
      with the pure path's exact ``(−sim, i, j)`` order;
    * per-pair decisions come from the :class:`AlignmentCache` when the
      same block contents were aligned before (remerge rounds, sibling
      functions, partition sweeps), else from the vectorized kernels;
    * whole function-pair decisions come from the :class:`PlanCache` when
      a pair with the same block bodies and the same opcode-count rows
      (which include phis and terminators) was aligned before, skipping
      scoring, greedy pairing and per-pair DP entirely.

    Callers must invalidate functions whose blocks were mutated in place
    or replaced (:meth:`invalidate_function`); the merging pass does this
    for every function captured by a committed or rolled-back transaction.
    """

    def __init__(
        self,
        strategy: str = "linear",
        cache: Optional[AlignmentCache] = None,
        interner: Optional[InstructionInterner] = None,
        nw_band: Optional[int] = None,
        plans: Optional[PlanCache] = None,
    ) -> None:
        if strategy not in ("linear", "nw"):
            raise ValueError(f"unknown alignment strategy {strategy!r}")
        self.strategy = strategy
        self.cache = cache if cache is not None else AlignmentCache()
        self.plans = plans if plans is not None else PlanCache()
        self.interner = interner if interner is not None else InstructionInterner()
        self.nw_band = nw_band
        self._functions: Dict[int, _FunctionEntry] = {}

    # -- memoization -----------------------------------------------------------------
    def function_entry(self, func: Function) -> _FunctionEntry:
        """The memoized entry of *func*'s current version."""
        fe = self._functions.get(id(func))
        if fe is None:
            # The entry holds *func*, so its id cannot be reused while live.
            fe = self._functions[id(func)] = _FunctionEntry(func, self.interner)
        return fe

    def invalidate_function(self, func: Function) -> None:
        """Drop the memoized entry of *func*."""
        self._functions.pop(id(func), None)

    def clear(self) -> None:
        self._functions.clear()

    # -- alignment -------------------------------------------------------------------
    def _strategy_tag(self, strategy: str) -> str:
        """Cache-key spelling of the strategy; a banded NW is its own
        decision space, so engines sharing a cache can never mix bands."""
        if strategy == "nw" and self.nw_band is not None:
            return f"nw@{self.nw_band}"
        return strategy

    def _pair_ops(
        self, fe_a: _FunctionEntry, i: int, fe_b: _FunctionEntry, j: int, strategy: str
    ) -> np.ndarray:
        key = (self._strategy_tag(strategy), fe_a.keys[i], fe_b.keys[j])
        ops = self.cache.get(key)
        if ops is not None:
            return ops
        if strategy == "linear":
            ops = linear_ops_encoded(fe_a.arrays[i], fe_b.arrays[j])
        else:
            ops = nw_ops_encoded(fe_a.arrays[i], fe_b.arrays[j], band=self.nw_band)
        self.cache.put(key, ops)
        return ops

    def align_functions(
        self,
        func_a: Function,
        func_b: Function,
        strategy: Optional[str] = None,
        min_block_similarity: float = 0.0,
    ) -> FunctionAlignment:
        strategy = strategy or self.strategy
        if strategy not in ("linear", "nw"):
            raise ValueError(f"unknown alignment strategy {strategy!r}")
        fe_a = self.function_entry(func_a)
        fe_b = self.function_entry(func_b)
        blocks_a, blocks_b = fe_a.blocks, fe_b.blocks
        na, nb = len(blocks_a), len(blocks_b)

        plan_key = (
            self._strategy_tag(strategy),
            min_block_similarity,
            fe_a.key,
            fe_b.key,
            fe_a.rows,
            fe_b.rows,
        )
        plan = self.plans.get(plan_key)
        if plan is not None:
            trace.event("plan_cache", hit=True)
            return self._apply_plan(plan, fe_a, fe_b)
        trace.event("plan_cache", hit=False)
        # Block-cache telemetry is one summary event per alignment, not one
        # per lookup — a 2000-function run does ~9k lookups, and per-lookup
        # events alone would eat most of the <5% tracing budget.
        traced = trace.enabled()
        if traced:
            hits0, misses0 = self.cache.stats.hits, self.cache.stats.misses

        result = FunctionAlignment(func_a, func_b)
        if na and nb:
            dist = np.abs(fe_a.counts[:, None, :] - fe_b.counts[None, :, :]).sum(axis=2)
            total = fe_a.magnitudes[:, None] + fe_b.magnitudes[None, :]
            # int64/int64 true division matches Python's int/int exactly for
            # these magnitudes, so similarities are bit-identical to
            # OpcodeFingerprint.similarity.
            sim = np.where(total == 0, 1.0, 1.0 - dist / np.maximum(total, 1))
            idx_a, idx_b = np.nonzero(sim >= min_block_similarity)
            sims = sim[idx_a, idx_b]
            # The pure path sorts (−sim, i, j); lexsort orders by its last
            # key first.
            order = np.lexsort((idx_b, idx_a, -sims))

            used_a = [False] * na
            used_b = [False] * nb
            paired: List[Tuple[int, int, np.ndarray]] = []
            for k in order.tolist():
                i = int(idx_a[k])
                j = int(idx_b[k])
                if used_a[i] or used_b[j]:
                    continue
                # Entry blocks must pair with each other; the pure path
                # computes the alignment before this check and discards it,
                # so skipping the compute here changes nothing observable.
                if (i == 0) != (j == 0):
                    continue
                used_a[i] = used_b[j] = True
                ops = self._pair_ops(fe_a, i, fe_b, j, strategy)
                ops.flags.writeable = False
                paired.append((i, j, ops))
            paired.sort(key=lambda t: t[0])
            for i, j, ops in paired:
                result.block_pairs.append(
                    ops_to_alignment(
                        ops, blocks_a[i], blocks_b[j], fe_a.bodies[i], fe_b.bodies[j]
                    )
                )
            result.unmatched_a = [b for b, used in zip(blocks_a, used_a) if not used]
            result.unmatched_b = [b for b, used in zip(blocks_b, used_b) if not used]
            self.plans.put(plan_key, tuple(paired))
        else:
            result.unmatched_a = list(blocks_a)
            result.unmatched_b = list(blocks_b)
            self.plans.put(plan_key, ())
        if traced:
            trace.event(
                "align_cache",
                hits=self.cache.stats.hits - hits0,
                misses=self.cache.stats.misses - misses0,
            )
        return result

    # -- plan application --------------------------------------------------------------
    @staticmethod
    def _apply_plan(
        plan: Tuple[Tuple[int, int, np.ndarray], ...],
        fe_a: _FunctionEntry,
        fe_b: _FunctionEntry,
    ) -> FunctionAlignment:
        result = FunctionAlignment(fe_a.function, fe_b.function)
        used_a = [False] * len(fe_a.blocks)
        used_b = [False] * len(fe_b.blocks)
        for i, j, ops in plan:
            used_a[i] = used_b[j] = True
            result.block_pairs.append(
                ops_to_alignment(
                    ops,
                    fe_a.blocks[i],
                    fe_b.blocks[j],
                    fe_a.bodies[i],
                    fe_b.bodies[j],
                )
            )
        result.unmatched_a = [b for b, used in zip(fe_a.blocks, used_a) if not used]
        result.unmatched_b = [b for b, used in zip(fe_b.blocks, used_b) if not used]
        return result
