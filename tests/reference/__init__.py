"""Reference implementations the engines are tested against.

Each one computes what a production engine computes, the slow and obvious
way and through none of the engine's code, so a test can demand
bit-identical answers:

* :class:`ReferenceMinHashRanker` — F3M ranking with per-function MinHash
  fingerprints and plain-list LSH buckets;
* :class:`PureAlignmentEngine` — alignment through the pure-Python
  aligner, accepted by ``FunctionMergingPass(alignment_engine=...)``.
"""

from .alignment import PureAlignmentEngine, alignment_shape
from .ranking import ReferenceMinHashRanker

__all__ = ["PureAlignmentEngine", "ReferenceMinHashRanker", "alignment_shape"]
