"""Reference implementations the engines are tested against.

Each one computes what a production engine computes, the slow and obvious
way and through none of the engine's code, so a test can demand
bit-identical answers:

* :class:`ReferenceLSHIndex` — the LSH bucket walk over plain-list
  buckets, one member at a time;
* :func:`reference_minhash` and :func:`shingle_hashes` — one function's
  MinHash values from its shingle hashes and k salts, the kernel the
  batched engine vectorizes, and with ``independent=True`` the k
  independent FNV-1a hashes the xor-salt ablation compares against;
* :class:`ReferenceMinHashRanker` — F3M ranking with per-function MinHash
  fingerprints searched through :class:`ReferenceLSHIndex`;
* :class:`PairwiseRanker` — any ranker with merged functions kept out of
  the candidate pool, the re-merging ablation's pairwise side;
* :func:`~tests.reference.alignment.align_functions` — HyFM's block
  pairing over per-block opcode fingerprints, with each pair aligned
  through the ``mergeable`` predicate (prefix/suffix or a generic
  Needleman–Wunsch), and :class:`PureAlignmentEngine`, which wraps it
  for ``FunctionMergingPass(alignment_engine=...)``;
* :class:`ReferenceDominatorTree` and :func:`reference_violations` — the
  per-block dominator loop and ``list.index`` dominance scan;
* :class:`ReferenceMergeTransaction` and
  :class:`ReferenceRetainingTransaction` — merge transactions that clone
  both originals and every caller before a commit and re-clone them on
  rollback or undo, accepted by
  ``FunctionMergingPass(transaction_factory=...)``;
* :func:`reference_entry` and :class:`ReferenceProfile` — per-block
  encoding with FNV content keys and stacked opcode-count rows, and the
  profitability bound's separate walk for its code counts and weights;
  :func:`encode_function_with_predicates`, the predicate-aware encoding
  the Figure 10 ablation measures;
* :mod:`tests.reference.parser` — the IR text parser with a regex match,
  kind and line stored per token, a method-call cursor, a placeholder
  block for every forward label, and a line-based header prescan that
  tokenizes every header line again;
* :func:`reference_verify_function` and :func:`reference_verify_module` —
  the IR verifier in four walks per function (block shape, phis against
  every block's use-list predecessors, operand scope, returns), with
  dominance from :func:`reference_violations`;
* :func:`reference_merge_functions` — the two-phase merged-function
  generator: every instruction cloned with placeholder operands and dummy
  blocks, then patched in a second walk that inserts the selects, with
  phi incomings last;
* :func:`fnv1a_32_array` and :func:`reference_content_keys` — FNV-1a
  with every byte shifted and masked out of a uint64 carrier, and the
  fingerprint cache's content keys with the streams grouped by length,
  each group hashed as one matrix and again with the salt word prepended.
"""

from .alignment import PureAlignmentEngine, alignment_shape
from .dominance import ReferenceDominatorTree, reference_violations
from .encoding import (
    ReferenceProfile,
    encode_function_with_predicates,
    encode_instruction_with_predicates,
    reference_entry,
)
from .fnv import fnv1a_32_array, reference_content_keys
from .lsh import ReferenceLSHIndex
from .merger import reference_merge_functions
from .minhash import reference_minhash, shingle_hashes
from .ranking import PairwiseRanker, ReferenceMinHashRanker
from .transaction import ReferenceMergeTransaction, ReferenceRetainingTransaction
from .verifier import reference_verify_function, reference_verify_module

__all__ = [
    "PairwiseRanker",
    "PureAlignmentEngine",
    "ReferenceDominatorTree",
    "ReferenceLSHIndex",
    "ReferenceMergeTransaction",
    "ReferenceMinHashRanker",
    "ReferenceProfile",
    "ReferenceRetainingTransaction",
    "alignment_shape",
    "encode_function_with_predicates",
    "encode_instruction_with_predicates",
    "fnv1a_32_array",
    "reference_content_keys",
    "reference_entry",
    "reference_merge_functions",
    "reference_minhash",
    "reference_verify_function",
    "reference_verify_module",
    "reference_violations",
    "shingle_hashes",
]
