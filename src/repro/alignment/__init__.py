"""Sequence/block alignment of candidate function pairs."""

from .batch import (
    BatchAlignmentEngine,
    InstructionInterner,
    linear_ops_encoded,
    nw_ops_encoded,
    ops_to_alignment,
)
from .cache import AlignmentCache, AlignmentCacheStats, block_key
from .model import (
    BlockAlignment,
    FunctionAlignment,
    SharedSegment,
    SplitSegment,
)
from .needleman_wunsch import (
    EncodedRatioScorer,
    alignment_ratio_encoded,
    matched_count_encoded,
)

__all__ = [
    "AlignmentCache",
    "AlignmentCacheStats",
    "BatchAlignmentEngine",
    "block_key",
    "BlockAlignment",
    "EncodedRatioScorer",
    "FunctionAlignment",
    "InstructionInterner",
    "linear_ops_encoded",
    "nw_ops_encoded",
    "ops_to_alignment",
    "SharedSegment",
    "SplitSegment",
    "alignment_ratio_encoded",
    "matched_count_encoded",
]
