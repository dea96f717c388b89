"""The pure-Python aligner and its alignment-engine wrapper.

HyFM-style block-level alignment, one Python predicate call per
comparison:

1. **Block pairing** — blocks of the two functions are paired greedily by
   opcode-frequency fingerprint similarity (most similar blocks first).
2. **Within-pair alignment** — either the linear strategy (match the
   common mergeable prefix and suffix; everything in between is split) or
   full Needleman–Wunsch over the :func:`mergeable` predicate.

:class:`repro.alignment.BatchAlignmentEngine` must reproduce these
decisions exactly from integer mergeability codes and numpy kernels.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from repro.alignment.batch import BatchAlignmentEngine
from repro.alignment.model import (
    BlockAlignment,
    FunctionAlignment,
    SharedSegment,
    SplitSegment,
)
from repro.analysis.linearizer import linearize_blocks
from repro.fingerprint.opcode_freq import OpcodeFingerprint
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import (
    TERMINATOR_OPCODES,
    Alloca,
    FCmp,
    ICmp,
    Instruction,
    Opcode,
)

T = TypeVar("T")


def mergeable(a: Instruction, b: Instruction) -> bool:
    """True if *a* and *b* can be emitted as a single merged instruction.

    Same opcode, result type, operand count and operand types, plus the
    semantic details the fingerprint encoding deliberately blurs
    (comparison predicates, allocated types).  Differing callees of the
    same signature are resolved by operand merging, so type equality
    suffices for calls.
    """
    if a.opcode != b.opcode:
        return False
    if a.type is not b.type:
        return False
    if a.num_operands != b.num_operands:
        return False
    for op_a, op_b in zip(a.operands, b.operands):
        if op_a.type is not op_b.type:
            return False
    if a.is_phi or a.is_terminator:
        return False  # handled structurally by the merger
    if isinstance(a, (ICmp, FCmp)) and a.pred != b.pred:  # type: ignore[union-attr]
        return False
    if isinstance(a, Alloca) and a.allocated_type is not b.allocated_type:  # type: ignore[union-attr]
        return False
    return True


def needleman_wunsch(
    seq_a: Sequence[T],
    seq_b: Sequence[T],
    match_fn: Callable[[T, T], bool],
    match_score: int = 2,
    mismatch_penalty: int = -1,
    gap_penalty: int = -1,
) -> List[Tuple[Optional[T], Optional[T]]]:
    """Globally align two sequences; returns (a, b) pairs with None gaps.

    A pair with both entries non-None is only emitted for *matching*
    elements — mismatching elements are represented as two gap entries, so
    downstream users can treat "both present" as "mergeable".
    """
    n, m = len(seq_a), len(seq_b)
    score = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        score[i][0] = score[i - 1][0] + gap_penalty
    for j in range(1, m + 1):
        score[0][j] = score[0][j - 1] + gap_penalty
    for i in range(1, n + 1):
        row = score[i]
        prev = score[i - 1]
        a_item = seq_a[i - 1]
        for j in range(1, m + 1):
            diag = prev[j - 1] + (
                match_score if match_fn(a_item, seq_b[j - 1]) else mismatch_penalty
            )
            row[j] = max(diag, prev[j] + gap_penalty, row[j - 1] + gap_penalty)

    # Traceback, preferring diagonal, then up, then left.
    out: List[Tuple[Optional[T], Optional[T]]] = []
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            matched = match_fn(seq_a[i - 1], seq_b[j - 1])
            diag = score[i - 1][j - 1] + (match_score if matched else mismatch_penalty)
            if score[i][j] == diag:
                if matched:
                    out.append((seq_a[i - 1], seq_b[j - 1]))
                else:
                    out.append((seq_a[i - 1], None))
                    out.append((None, seq_b[j - 1]))
                i -= 1
                j -= 1
                continue
        if i > 0 and score[i][j] == score[i - 1][j] + gap_penalty:
            out.append((seq_a[i - 1], None))
            i -= 1
        else:
            out.append((None, seq_b[j - 1]))
            j -= 1
    out.reverse()
    return out


def _body(block: BasicBlock) -> List[Instruction]:
    """Alignable instructions: everything but phis and the terminator."""
    insts = block.instructions
    end = len(insts)
    if end and insts[-1].opcode in TERMINATOR_OPCODES:
        end -= 1
    start = 0
    while start < end and insts[start].opcode == Opcode.PHI:
        start += 1
    return insts[start:end]


def align_blocks_linear(block_a: BasicBlock, block_b: BasicBlock) -> BlockAlignment:
    """Linear (O(n+m)) alignment: shared prefix + shared suffix + split middle."""
    seq_a, seq_b = _body(block_a), _body(block_b)
    n, m = len(seq_a), len(seq_b)
    limit = min(n, m)
    prefix = 0
    while prefix < limit and mergeable(seq_a[prefix], seq_b[prefix]):
        prefix += 1
    suffix = 0
    while (
        suffix < limit - prefix
        and mergeable(seq_a[n - 1 - suffix], seq_b[m - 1 - suffix])
    ):
        suffix += 1

    alignment = BlockAlignment(block_a, block_b)
    if prefix:
        alignment.segments.append(
            SharedSegment(list(zip(seq_a[:prefix], seq_b[:prefix])))
        )
    mid_a = seq_a[prefix : n - suffix]
    mid_b = seq_b[prefix : m - suffix]
    if mid_a or mid_b:
        alignment.segments.append(SplitSegment(mid_a, mid_b))
    if suffix:
        alignment.segments.append(
            SharedSegment(list(zip(seq_a[n - suffix :], seq_b[m - suffix :])))
        )
    return alignment


def align_blocks_nw(block_a: BasicBlock, block_b: BasicBlock) -> BlockAlignment:
    """Needleman–Wunsch alignment of a block pair (SalSSA-quality)."""
    entries = needleman_wunsch(_body(block_a), _body(block_b), mergeable)
    alignment = BlockAlignment(block_a, block_b)
    shared: List[Tuple[Instruction, Instruction]] = []
    left: List[Instruction] = []
    right: List[Instruction] = []

    def flush_split() -> None:
        nonlocal left, right
        if left or right:
            alignment.segments.append(SplitSegment(left, right))
            left, right = [], []

    def flush_shared() -> None:
        nonlocal shared
        if shared:
            alignment.segments.append(SharedSegment(shared))
            shared = []

    for a, b in entries:
        if a is not None and b is not None:
            flush_split()
            shared.append((a, b))
        else:
            flush_shared()
            if a is not None:
                left.append(a)
            if b is not None:
                right.append(b)
    flush_split()
    flush_shared()
    return alignment


def align_functions(
    func_a: Function, func_b: Function, strategy: str = "linear"
) -> FunctionAlignment:
    """Pair up blocks of two functions and align each pair.

    Every (a, b) block pair is scored by opcode-frequency similarity, and
    the best-scoring compatible pairs win; ties go to block order.
    Blocks left without a partner are copied into the merged function
    guarded by the function id.
    """
    if strategy not in ("linear", "nw"):
        raise ValueError(f"unknown alignment strategy {strategy!r}")
    align_pair = align_blocks_linear if strategy == "linear" else align_blocks_nw

    blocks_a = linearize_blocks(func_a)
    blocks_b = linearize_blocks(func_b)
    fps_a = [OpcodeFingerprint.from_instructions(b.instructions) for b in blocks_a]
    fps_b = [OpcodeFingerprint.from_instructions(b.instructions) for b in blocks_b]

    scored: List[Tuple[float, int, int]] = []
    for i, fa in enumerate(fps_a):
        for j, fb in enumerate(fps_b):
            scored.append((fa.similarity(fb), i, j))
    scored.sort(key=lambda t: (-t[0], t[1], t[2]))

    result = FunctionAlignment(func_a, func_b)
    used_a = [False] * len(blocks_a)
    used_b = [False] * len(blocks_b)
    for _sim, i, j in scored:
        if used_a[i] or used_b[j]:
            continue
        alignment = align_pair(blocks_a[i], blocks_b[j])
        # Entry blocks must pair with each other (the merged entry dispatch
        # needs a single entry); skip cross pairings involving an entry.
        if (i == 0) != (j == 0):
            continue
        used_a[i] = used_b[j] = True
        result.block_pairs.append(alignment)
    result.unmatched_a = [b for b, used in zip(blocks_a, used_a) if not used]
    result.unmatched_b = [b for b, used in zip(blocks_b, used_b) if not used]
    # Stable order: by position of the A-side block.
    index_a = {id(b): i for i, b in enumerate(blocks_a)}
    result.block_pairs.sort(key=lambda p: index_a[id(p.block_a)])
    return result


class PureAlignmentEngine(BatchAlignmentEngine):
    """Aligns every pair with :func:`align_functions` above.

    No vectorized kernel, memo or cache is consulted, so the engine's
    caches stay empty.  The merging pass's profitability bound still reads
    the inherited function entries, which are not part of the alignment
    decision.
    """

    def align_functions(
        self, func_a: Function, func_b: Function, strategy: Optional[str] = None
    ) -> FunctionAlignment:
        return align_functions(func_a, func_b, strategy or self.strategy)


def alignment_shape(alignment: FunctionAlignment) -> Tuple:
    """A :class:`FunctionAlignment` reduced to comparable indices.

    Blocks and instructions are identified by their position within their
    function (local value names may be empty for void instructions), so
    two alignments of the same function pair compare equal exactly when
    they made the same decisions.
    """
    block_index_a = {id(b): k for k, b in enumerate(alignment.function_a.blocks)}
    block_index_b = {id(b): k for k, b in enumerate(alignment.function_b.blocks)}
    inst_index_a = {
        id(inst): k for k, inst in enumerate(alignment.function_a.instructions())
    }
    inst_index_b = {
        id(inst): k for k, inst in enumerate(alignment.function_b.instructions())
    }
    pairs = []
    for pair in alignment.block_pairs:
        segments = []
        for seg in pair.segments:
            if isinstance(seg, SharedSegment):
                segments.append(
                    ("S", tuple((inst_index_a[id(x)], inst_index_b[id(y)]) for x, y in seg.pairs))
                )
            else:
                segments.append(
                    (
                        "P",
                        tuple(inst_index_a[id(x)] for x in seg.left),
                        tuple(inst_index_b[id(y)] for y in seg.right),
                    )
                )
        pairs.append(
            (block_index_a[id(pair.block_a)], block_index_b[id(pair.block_b)], tuple(segments))
        )
    return (
        tuple(pairs),
        tuple(block_index_a[id(b)] for b in alignment.unmatched_a),
        tuple(block_index_b[id(b)] for b in alignment.unmatched_b),
    )
