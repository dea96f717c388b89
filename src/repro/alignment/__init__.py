"""Sequence/block alignment of candidate function pairs."""

from .batch import (
    BatchAlignmentEngine,
    InstructionInterner,
    linear_ops_encoded,
    nw_ops_encoded,
    ops_to_alignment,
)
from .cache import AlignmentCache, AlignmentCacheStats, PlanCache, block_key
from .hyfm_blocks import (
    align_blocks_linear,
    align_blocks_nw,
    align_functions,
)
from .model import (
    BlockAlignment,
    FunctionAlignment,
    SharedSegment,
    SplitSegment,
    mergeable,
)
from .needleman_wunsch import (
    EncodedRatioScorer,
    alignment_ratio_encoded,
    matched_count_encoded,
    needleman_wunsch,
)

__all__ = [
    "align_blocks_linear",
    "align_blocks_nw",
    "align_functions",
    "AlignmentCache",
    "AlignmentCacheStats",
    "BatchAlignmentEngine",
    "block_key",
    "BlockAlignment",
    "EncodedRatioScorer",
    "FunctionAlignment",
    "InstructionInterner",
    "linear_ops_encoded",
    "mergeable",
    "nw_ops_encoded",
    "ops_to_alignment",
    "PlanCache",
    "SharedSegment",
    "SplitSegment",
    "alignment_ratio_encoded",
    "matched_count_encoded",
    "needleman_wunsch",
]
