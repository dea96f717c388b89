"""Per-function encoding the way the alignment engine and the bound once did it.

The engine memoized one entry per *block*: its body, its mergeability codes
as an ``int64`` array, a content key of two salted 32-bit FNV-1a passes
over the codes' 32-bit halves plus the stream length, and its opcode-count
row (one ``np.zeros`` per block, magnitude ``counts.sum()``).  A function
entry stacked those rows and folded the block keys through FNV again.
The profitability bound walked the same blocks a second time, interning
every body instruction again, to collect its code counts, code weights and
body weight.  :class:`repro.alignment.batch._FunctionEntry` computes all of
it in one walk and must agree with :func:`reference_entry` and
:class:`ReferenceProfile` field by field.  Codes are only comparable
within one interner, so both sides take the production
:class:`~repro.alignment.batch.InstructionInterner`.

:func:`encode_instruction_with_predicates` is the alternative F3M encoding
the Figure 10 ablation measures: the paper's four properties plus the
icmp/fcmp predicate folded into the opcode field.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.alignment.batch import InstructionInterner
from repro.analysis.linearizer import linearize, linearize_blocks
from repro.analysis.size import function_size, instruction_size
from repro.fingerprint.encoding import encode_instruction
from repro.fingerprint.fnv import fnv1a_32_ints
from repro.fingerprint.opcode_freq import _DIM, _INDEX
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import FCmp, ICmp, Instruction

__all__ = [
    "ReferenceBlockEntry",
    "ReferenceFunctionEntry",
    "ReferenceProfile",
    "encode_function_with_predicates",
    "encode_instruction_with_predicates",
    "reference_block_key",
    "reference_entry",
]

_KEY_SALT = 0x9E3779B9


def _body(block: BasicBlock) -> List[Instruction]:
    """Everything but phis and the terminator, through the block's own
    phi and terminator queries."""
    insts = block.instructions
    start = block.first_non_phi_index()
    end = len(insts) - 1 if block.is_terminated else len(insts)
    return insts[start:end]


def reference_block_key(codes: np.ndarray) -> Tuple[int, int, int]:
    """``(length, fnv1a(words), fnv1a(salt || words))`` over each code's
    low and high 32-bit words."""
    values = np.asarray(codes).tolist()
    words: List[int] = []
    for code in values:
        words.append(code & 0xFFFFFFFF)
        words.append((code >> 32) & 0xFFFFFFFF)
    return (len(values), fnv1a_32_ints(words), fnv1a_32_ints([_KEY_SALT] + words))


class ReferenceBlockEntry:
    """One block: body, codes, FNV key, opcode-count row, magnitude."""

    def __init__(self, block: BasicBlock, interner: InstructionInterner) -> None:
        self.block = block
        self.body: List[Instruction] = _body(block)
        self.codes = np.array([interner.code(i) for i in self.body], dtype=np.int64)
        self.key = reference_block_key(self.codes)
        counts = np.zeros(_DIM, dtype=np.int64)
        for inst in block.instructions:
            counts[_INDEX[int(inst.opcode)]] += 1
        self.counts = counts
        self.magnitude = int(counts.sum())


class ReferenceFunctionEntry:
    """Block entries in reverse postorder, their stacked rows, and the
    function key folded from the block keys."""

    def __init__(self, func: Function, entries: List[ReferenceBlockEntry]) -> None:
        self.function = func
        self.blocks = [e.block for e in entries]
        self.entries = entries
        if entries:
            self.counts = np.stack([e.counts for e in entries])
            self.magnitudes = np.array([e.magnitude for e in entries], dtype=np.int64)
        else:
            self.counts = None
            self.magnitudes = None
        words: List[int] = []
        for entry in entries:
            words.extend(entry.key)
        self.key = (
            len(entries),
            fnv1a_32_ints(words),
            fnv1a_32_ints([_KEY_SALT] + words),
        )


def reference_entry(func: Function, interner: InstructionInterner) -> ReferenceFunctionEntry:
    blocks = linearize_blocks(func)
    return ReferenceFunctionEntry(func, [ReferenceBlockEntry(b, interner) for b in blocks])


class ReferenceProfile:
    """The bound's inputs from a second walk over the same blocks."""

    def __init__(self, func: Function, interner: InstructionInterner) -> None:
        self.function = func
        self.total_size = function_size(func)
        counts: Dict[int, int] = {}
        weights: Dict[int, int] = {}
        body_weight = 0
        for block in linearize_blocks(func):
            for inst in _body(block):
                code = interner.code(inst)
                counts[code] = counts.get(code, 0) + 1
                if code not in weights:
                    weights[code] = instruction_size(inst)
                body_weight += weights[code]
        self.code_counts = counts
        self.code_weights = weights
        self.body_weight = body_weight


def encode_instruction_with_predicates(inst: Instruction) -> int:
    """:func:`~repro.fingerprint.encoding.encode_instruction` with a
    compare's predicate xor-ed into the 6-bit opcode field."""
    encoded = encode_instruction(inst)
    if isinstance(inst, (ICmp, FCmp)):
        encoded ^= ((int(inst.pred) & 0x3F) << 1) & 0x3F
    return encoded


def encode_function_with_predicates(func: Function) -> List[int]:
    """The predicate-aware encoding of *func*'s linearized instructions."""
    return [encode_instruction_with_predicates(inst) for inst in linearize(func)]
