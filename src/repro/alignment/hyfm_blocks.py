"""HyFM-style block-level alignment.

HyFM "works on the basic block level, reducing the granularity of the inputs
for the alignment algorithm" and "employs a simpler linear alignment
strategy" (paper Section V).  We reproduce both steps:

1. **Block pairing** — blocks of the two functions are paired greedily by
   opcode-frequency fingerprint distance (most similar blocks first).
2. **Within-pair alignment** — either the linear strategy (match the common
   mergeable prefix and suffix; everything in between is split) or full
   Needleman–Wunsch for the quality-over-speed configuration.
"""

from __future__ import annotations

from typing import List, Tuple

from ..analysis.linearizer import linearize_blocks
from ..fingerprint.opcode_freq import fingerprint_block
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import TERMINATOR_OPCODES, Instruction, Opcode
from .model import BlockAlignment, FunctionAlignment, SharedSegment, SplitSegment, mergeable
from .needleman_wunsch import needleman_wunsch

__all__ = [
    "align_blocks_linear",
    "align_blocks_nw",
    "align_functions",
]

_PHI = Opcode.PHI


def _body(block: BasicBlock) -> List[Instruction]:
    """Alignable instructions: everything but phis and the terminator."""
    insts = block.instructions
    end = len(insts)
    if end and insts[-1].opcode in TERMINATOR_OPCODES:
        end -= 1
    start = 0
    while start < end and insts[start].opcode == _PHI:
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
    func_a: Function,
    func_b: Function,
    strategy: str = "linear",
    min_block_similarity: float = 0.0,
) -> FunctionAlignment:
    """Pair up blocks of two functions and align each pair.

    Blocks are paired greedily: every (a, b) candidate is scored by
    fingerprint similarity, and the best-scoring compatible pairs win.
    Blocks whose best partner shares nothing stay unmatched and will be
    copied into the merged function guarded by the function id.
    """
    if strategy not in ("linear", "nw"):
        raise ValueError(f"unknown alignment strategy {strategy!r}")
    align_pair = align_blocks_linear if strategy == "linear" else align_blocks_nw

    blocks_a = linearize_blocks(func_a)
    blocks_b = linearize_blocks(func_b)
    fps_a = [fingerprint_block(b) for b in blocks_a]
    fps_b = [fingerprint_block(b) for b in blocks_b]

    scored: List[Tuple[float, int, int]] = []
    for i, fa in enumerate(fps_a):
        for j, fb in enumerate(fps_b):
            sim = fa.similarity(fb)
            if sim >= min_block_similarity:
                scored.append((sim, i, j))
    # Highest similarity first; ties broken by block order for determinism.
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
