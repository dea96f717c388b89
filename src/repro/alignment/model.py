"""Alignment data model shared by the alignment engine and the merger.

An alignment of two basic blocks is a list of *segments*: shared segments
(pairs of mergeable instructions that will be emitted once) and split
segments (runs private to one or both functions, which the merger guards
with the function identifier).  Phi nodes and terminators are handled by the
code generator, not the aligner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..ir.basicblock import BasicBlock
from ..ir.instructions import Instruction

__all__ = [
    "SharedSegment",
    "SplitSegment",
    "BlockAlignment",
    "FunctionAlignment",
]


@dataclass
class SharedSegment:
    """A run of instruction pairs emitted once in the merged function."""

    pairs: List[Tuple[Instruction, Instruction]]

    @property
    def length(self) -> int:
        return len(self.pairs)


@dataclass
class SplitSegment:
    """Runs private to each function, guarded by the function id."""

    left: List[Instruction]
    right: List[Instruction]

    @property
    def length(self) -> int:
        return len(self.left) + len(self.right)


@dataclass
class BlockAlignment:
    """Alignment of one block pair, as an ordered list of segments."""

    block_a: BasicBlock
    block_b: BasicBlock
    segments: List[object] = field(default_factory=list)

    @property
    def matched(self) -> int:
        """Number of matched instruction *pairs*."""
        return sum(s.length for s in self.segments if isinstance(s, SharedSegment))

    @property
    def mismatched(self) -> int:
        return sum(s.length for s in self.segments if isinstance(s, SplitSegment))


@dataclass
class FunctionAlignment:
    """Whole-function alignment: paired blocks plus leftovers."""

    function_a: object
    function_b: object
    block_pairs: List[BlockAlignment] = field(default_factory=list)
    unmatched_a: List[BasicBlock] = field(default_factory=list)
    unmatched_b: List[BasicBlock] = field(default_factory=list)

    @property
    def matched_instructions(self) -> int:
        return sum(p.matched for p in self.block_pairs)

    @property
    def total_instructions(self) -> int:
        total = 0
        for pair in self.block_pairs:
            total += len(pair.block_a.instructions) + len(pair.block_b.instructions)
        for block in self.unmatched_a:
            total += len(block.instructions)
        for block in self.unmatched_b:
            total += len(block.instructions)
        return total

    @property
    def alignment_ratio(self) -> float:
        """Fraction of instructions participating in a match (Figs. 4/10)."""
        total = self.total_instructions
        return (2.0 * self.matched_instructions / total) if total else 0.0
