"""Reference implementations the engines are tested against.

Each one computes what a production engine computes, the slow and obvious
way and through none of the engine's code, so a test can demand
bit-identical answers:

* :class:`ReferenceLSHIndex` — the LSH bucket walk over plain-list
  buckets, one member at a time;
* :class:`ReferenceMinHashRanker` — F3M ranking with per-function MinHash
  fingerprints searched through :class:`ReferenceLSHIndex`;
* :class:`PureAlignmentEngine` — alignment through the pure-Python
  aligner, accepted by ``FunctionMergingPass(alignment_engine=...)``;
* :class:`ReferenceDominatorTree` and :func:`reference_violations` — the
  per-block dominator loop and ``list.index`` dominance scan.
"""

from .alignment import PureAlignmentEngine, alignment_shape
from .dominance import ReferenceDominatorTree, reference_violations
from .lsh import ReferenceLSHIndex
from .ranking import ReferenceMinHashRanker

__all__ = [
    "PureAlignmentEngine",
    "ReferenceDominatorTree",
    "ReferenceLSHIndex",
    "ReferenceMinHashRanker",
    "alignment_shape",
    "reference_violations",
]
