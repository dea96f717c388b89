"""Opcode-frequency fingerprints — the HyFM/state-of-the-art baseline.

"Each function is associated with a fingerprint, i.e., a vector representing
the frequencies of all the instruction opcodes in its function body"
(paper Section II-A).  Candidate selection is nearest-neighbour search under
Manhattan distance over these vectors; Figures 4–6 show why this correlates
poorly with alignment quality, which is the problem F3M solves.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from ..ir.function import Function
from ..ir.instructions import Opcode

__all__ = ["OpcodeFingerprint", "fingerprint_function"]

_OPCODES: List[Opcode] = sorted(Opcode, key=int)
_INDEX: Dict[int, int] = {int(op): i for i, op in enumerate(_OPCODES)}
_DIM = len(_OPCODES)


class OpcodeFingerprint:
    """A vector of instruction-opcode frequencies with HyFM's metrics."""

    __slots__ = ("counts", "magnitude")

    def __init__(self, counts: np.ndarray) -> None:
        self.counts = counts
        self.magnitude = int(counts.sum())

    @classmethod
    def from_instructions(cls, instructions: Iterable) -> "OpcodeFingerprint":
        counts = np.zeros(_DIM, dtype=np.int64)
        for inst in instructions:
            counts[_INDEX[int(inst.opcode)]] += 1
        return cls(counts)

    def distance(self, other: "OpcodeFingerprint") -> int:
        """Manhattan distance between the frequency vectors."""
        return int(np.abs(self.counts - other.counts).sum())

    def similarity(self, other: "OpcodeFingerprint") -> float:
        """Normalized similarity in [0, 1]: 1 − d / (|A| + |B|).

        Identical fingerprints score 1; disjoint opcode multisets score 0.
        This is the "normalized fingerprint similarity" plotted in the
        paper's Figures 4 and 6.
        """
        total = self.magnitude + other.magnitude
        if total == 0:
            return 1.0
        return 1.0 - self.distance(other) / total

    def __len__(self) -> int:
        return _DIM


def fingerprint_function(func: Function) -> OpcodeFingerprint:
    """Opcode-frequency fingerprint of a whole function."""
    return OpcodeFingerprint.from_instructions(func.instructions())

