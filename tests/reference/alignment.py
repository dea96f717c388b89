"""The pure-Python aligner behind the alignment-engine interface."""

from __future__ import annotations

from typing import Optional, Tuple

from repro.alignment.batch import BatchAlignmentEngine
from repro.alignment.hyfm_blocks import align_functions
from repro.alignment.model import FunctionAlignment, SharedSegment
from repro.ir.function import Function


class PureAlignmentEngine(BatchAlignmentEngine):
    """Aligns every pair with :func:`repro.alignment.hyfm_blocks.align_functions`.

    No vectorized kernel, memo or cache is consulted, so the engine's
    caches stay empty.  The merging pass's profitability bound still reads
    the inherited function entries, which are not part of the alignment
    decision.
    """

    def align_functions(
        self,
        func_a: Function,
        func_b: Function,
        strategy: Optional[str] = None,
        min_block_similarity: float = 0.0,
    ) -> FunctionAlignment:
        return align_functions(
            func_a, func_b, strategy or self.strategy, min_block_similarity
        )


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
