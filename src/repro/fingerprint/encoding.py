"""32-bit instruction encoding (paper Section III-B).

Each instruction is translated into one 32-bit integer carrying "the four
most important properties with regards to merging: opcode, result type,
number of operands, and operand types".  Two instructions that can merge
(same opcode, compatible types) encode to the same integer even when their
*operands' identities* differ — this is exactly why MinHash over encoded
shingles correlates with alignment quality where raw text would not.

Bit layout (LSB first)::

    [ 0..5 ]  opcode            (6 bits)
    [ 6..9 ]  operand count     (4 bits, saturated at 15)
    [10..17]  result type id    (8 bits, folded)
    [18..31]  operand type product (14 bits, folded)

For the combined operand type we multiply the per-type ids, exactly as the
paper does ("we multiply all the numerical representations of the operand
types"), then fold into the available bits.  Compare predicates are not
encoded (the alignment checks them later); the predicate-aware variant the
Figure 10 ablation measures is ``tests/reference/encoding.py``.
"""

from __future__ import annotations

from typing import List

from ..ir.function import Function
from ..ir.instructions import Instruction
from ..analysis.linearizer import linearize

__all__ = ["encode_instruction", "encode_function"]

_U32 = 0xFFFFFFFF


def _fold(value: int, bits: int) -> int:
    """xor-fold an arbitrary integer into *bits* bits."""
    mask = (1 << bits) - 1
    out = 0
    value &= (1 << 64) - 1
    while value:
        out ^= value & mask
        value >>= bits
    return out


def encode_instruction(inst: Instruction) -> int:
    """Encode one instruction into a 32-bit integer."""
    opcode = int(inst.opcode) & 0x3F
    noperands = min(inst.num_operands, 15)
    result_ty = _fold(inst.type.type_id, 8)
    product = 1
    for op in inst.operands:
        product = (product * (op.type.type_id | 1)) & ((1 << 64) - 1)
    operand_ty = _fold(product, 14)
    return (
        opcode
        | (noperands << 6)
        | (result_ty << 10)
        | (operand_ty << 18)
    ) & _U32


def encode_function(func: Function) -> List[int]:
    """Encode the linearized instruction sequence of *func*."""
    return [encode_instruction(inst) for inst in linearize(func)]
