"""Alignment ratios of encoded instruction streams.

SalSSA aligned whole functions with Needleman–Wunsch; HyFM replaced it with
a cheaper block-level linear strategy.  Both block-level aligners run in
:class:`~repro.alignment.batch.BatchAlignmentEngine`; this module scores
whole encoded streams by their longest matching subsequences, the
*alignment ratio* oracle behind Figures 4 and 10.
"""

from __future__ import annotations

from difflib import SequenceMatcher
from typing import Sequence

__all__ = [
    "alignment_ratio_encoded",
    "matched_count_encoded",
    "EncodedRatioScorer",
]


def _as_sequence(encoded: Sequence[int]) -> Sequence[int]:
    """A form :class:`difflib.SequenceMatcher` accepts without copying.

    Encoded streams are already lists almost everywhere; only exotic
    callers (generators, arrays) pay for a conversion.
    """
    return encoded if isinstance(encoded, (list, tuple, str)) else list(encoded)


def matched_count_encoded(encoded_a: Sequence[int], encoded_b: Sequence[int]) -> int:
    """Number of aligned (equal) instructions between two encoded sequences.

    Uses :class:`difflib.SequenceMatcher` (a C-accelerated longest-matching
    -subsequence engine) so the all-pairs sweeps behind Figures 4 and 10
    are tractable; for equality matching its result tracks NW closely.
    """
    sm = SequenceMatcher(
        a=_as_sequence(encoded_a), b=_as_sequence(encoded_b), autojunk=False
    )
    return sum(block.size for block in sm.get_matching_blocks())


class EncodedRatioScorer:
    """Ratio-score many candidate streams against one fixed target.

    :class:`difflib.SequenceMatcher` builds its matching index from the
    second sequence; setting the target as ``b`` once and swapping only
    ``a`` per candidate amortizes that cost across a whole one-vs-many
    sweep (the all-pairs oracles, a ranker scoring one function against
    its bucket).  Note ``SequenceMatcher`` is role-asymmetric in corner
    cases: scoring candidate-vs-target can differ marginally from
    target-vs-candidate where tie-breaks between equally long matching
    blocks fall differently.
    """

    def __init__(self, target: Sequence[int]) -> None:
        self._target = _as_sequence(target)
        self._sm = SequenceMatcher(autojunk=False)
        self._sm.set_seq2(self._target)

    def matched_count(self, candidate: Sequence[int]) -> int:
        self._sm.set_seq1(_as_sequence(candidate))
        return sum(block.size for block in self._sm.get_matching_blocks())

    def ratio(self, candidate: Sequence[int]) -> float:
        candidate = _as_sequence(candidate)
        total = len(candidate) + len(self._target)
        if total == 0:
            return 1.0
        return 2.0 * self.matched_count(candidate) / total


def alignment_ratio_encoded(encoded_a: Sequence[int], encoded_b: Sequence[int]) -> float:
    """Alignment ratio 2·matched / (|A| + |B|) of two encoded sequences."""
    total = len(encoded_a) + len(encoded_b)
    if total == 0:
        return 1.0
    return 2.0 * matched_count_encoded(encoded_a, encoded_b) / total
