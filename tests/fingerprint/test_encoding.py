"""Tests for the 32-bit instruction encoding (paper Section III-B)."""

from repro.fingerprint import encode_function, encode_instruction
from repro.ir import (
    Argument,
    BinaryOp,
    ConstantInt,
    DOUBLE,
    I32,
    I64,
    ICmp,
    ICmpPred,
    Opcode,
)
from tests.conftest import build_diamond, build_straightline
from tests.reference import encode_instruction_with_predicates


def add(type_=I32, a_name="a", b_name="b"):
    return BinaryOp(Opcode.ADD, Argument(type_, a_name, 0), Argument(type_, b_name, 1))


class TestEncoding:
    def test_operand_identity_ignored(self):
        # Same opcode/types but different operand *values* must encode equal:
        # this is what makes MinHash similarity track mergeability.
        i1 = add(a_name="x", b_name="y")
        i2 = BinaryOp(Opcode.ADD, Argument(I32, "p", 0), ConstantInt(I32, 42))
        assert encode_instruction(i1) == encode_instruction(i2)

    def test_opcode_distinguished(self):
        i1 = add()
        i2 = BinaryOp(Opcode.SUB, Argument(I32, "a", 0), Argument(I32, "b", 1))
        assert encode_instruction(i1) != encode_instruction(i2)

    def test_operand_type_distinguished(self):
        assert encode_instruction(add(I32)) != encode_instruction(add(I64))

    def test_result_type_distinguished(self):
        from repro.ir import Cast

        z1 = Cast(Opcode.ZEXT, Argument(I32, "a", 0), I64)
        from repro.ir import IntType

        z2 = Cast(Opcode.ZEXT, Argument(I32, "a", 0), IntType(48))
        assert encode_instruction(z1) != encode_instruction(z2)

    def test_fits_32_bits(self, module):
        func = build_diamond(module)
        for encoded in encode_function(func):
            assert 0 <= encoded <= 0xFFFFFFFF

    def test_function_encoding_length(self, module):
        func = build_straightline(module)
        assert len(encode_function(func)) == func.num_instructions

    def test_deterministic(self, module):
        func = build_diamond(module)
        assert encode_function(func) == encode_function(func)


class TestPredicateOption:
    def test_default_ignores_predicates(self):
        c1 = ICmp(ICmpPred.SLT, Argument(I32, "a", 0), Argument(I32, "b", 1))
        c2 = ICmp(ICmpPred.SGT, Argument(I32, "a", 0), Argument(I32, "b", 1))
        assert encode_instruction(c1) == encode_instruction(c2)

    def test_option_distinguishes_predicates(self):
        """The predicate-aware encoding of the Figure 10 ablation (a test
        oracle) tells the two compares apart."""
        c1 = ICmp(ICmpPred.SLT, Argument(I32, "a", 0), Argument(I32, "b", 1))
        c2 = ICmp(ICmpPred.SGT, Argument(I32, "a", 0), Argument(I32, "b", 1))
        assert encode_instruction_with_predicates(c1) != encode_instruction_with_predicates(c2)
