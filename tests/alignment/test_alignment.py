"""Tests for the alignment layer: mergeability codes, NW, block pairing.

The block and function cases drive :class:`BatchAlignmentEngine`; the
mergeability predicate and the generic Needleman–Wunsch they are checked
against live in the test oracle ``tests/reference/alignment.py``.
"""

import pytest

from repro.alignment import (
    BatchAlignmentEngine,
    InstructionInterner,
    SplitSegment,
    alignment_ratio_encoded,
    matched_count_encoded,
)
from repro.ir import (
    Argument,
    BinaryOp,
    Call,
    ConstantInt,
    DOUBLE,
    Function,
    FunctionType,
    I32,
    I64,
    ICmp,
    ICmpPred,
    Opcode,
    parse_module,
)
from tests.conftest import build_diamond, build_loop, build_straightline
from tests.reference.alignment import mergeable as reference_mergeable
from tests.reference.alignment import needleman_wunsch


def arg(t=I32, n="a", i=0):
    return Argument(t, n, i)


def mergeable(a, b):
    """The reference predicate, checked against the engine's interner:
    two instructions share a mergeability code exactly when they merge."""
    interner = InstructionInterner()
    expected = reference_mergeable(a, b)
    assert (interner.code(a) == interner.code(b)) == expected
    return expected


def align_block_pair(block_a, block_b, strategy="linear"):
    """The engine's alignment of the pair holding *block_a* and *block_b*,
    the only blocks of their functions in these cases."""
    alignment = BatchAlignmentEngine(strategy).align_functions(
        block_a.parent, block_b.parent
    )
    (pair,) = alignment.block_pairs
    assert (pair.block_a, pair.block_b) == (block_a, block_b)
    return pair


def align_functions(func_a, func_b, strategy=None):
    return BatchAlignmentEngine().align_functions(func_a, func_b, strategy)


class TestMergeable:
    def test_same_shape_merges(self):
        a = BinaryOp(Opcode.ADD, arg(), arg(I32, "b", 1))
        b = BinaryOp(Opcode.ADD, arg(I32, "x"), ConstantInt(I32, 3))
        assert mergeable(a, b)

    def test_opcode_mismatch(self):
        a = BinaryOp(Opcode.ADD, arg(), arg(I32, "b", 1))
        b = BinaryOp(Opcode.SUB, arg(), arg(I32, "b", 1))
        assert not mergeable(a, b)

    def test_type_mismatch(self):
        a = BinaryOp(Opcode.ADD, arg(I32), arg(I32, "b", 1))
        b = BinaryOp(Opcode.ADD, arg(I64), arg(I64, "b", 1))
        assert not mergeable(a, b)

    def test_predicate_mismatch(self):
        a = ICmp(ICmpPred.SLT, arg(), arg(I32, "b", 1))
        b = ICmp(ICmpPred.SGT, arg(), arg(I32, "b", 1))
        assert not mergeable(a, b)

    def test_calls_with_same_signature_merge(self, module):
        callee1 = Function(FunctionType(I32, [I32]), "c1", parent=module)
        callee2 = Function(FunctionType(I32, [I32]), "c2", parent=module)
        a = Call(callee1, [arg()])
        b = Call(callee2, [arg()])
        assert mergeable(a, b)

    def test_calls_with_different_signatures_do_not(self, module):
        callee1 = Function(FunctionType(I32, [I32]), "c1", parent=module)
        callee2 = Function(FunctionType(I32, [DOUBLE]), "c2", parent=module)
        a = Call(callee1, [arg()])
        b = Call(callee2, [arg(DOUBLE)])
        assert not mergeable(a, b)

    def test_terminators_never_merge_via_predicate(self, module):
        from repro.ir import Ret

        assert not mergeable(Ret(ConstantInt(I32, 0)), Ret(ConstantInt(I32, 0)))


class TestNeedlemanWunsch:
    def test_identical_sequences(self):
        seq = [1, 2, 3, 4]
        entries = needleman_wunsch(seq, seq, lambda a, b: a == b)
        assert all(a is not None and b is not None for a, b in entries)

    def test_single_insertion(self):
        entries = needleman_wunsch([1, 2, 3], [1, 9, 2, 3], lambda a, b: a == b)
        matched = [(a, b) for a, b in entries if a is not None and b is not None]
        assert len(matched) == 3

    def test_disjoint(self):
        entries = needleman_wunsch([1, 2], [8, 9], lambda a, b: a == b)
        assert not any(a is not None and b is not None for a, b in entries)

    def test_preserves_all_elements(self):
        a, b = [1, 2, 3, 4, 5], [1, 3, 5, 7]
        entries = needleman_wunsch(a, b, lambda x, y: x == y)
        assert [x for x, _ in entries if x is not None] == a
        assert [y for _, y in entries if y is not None] == b


class TestEncodedRatio:
    def test_identical(self):
        assert alignment_ratio_encoded([1, 2, 3], [1, 2, 3]) == 1.0

    def test_disjoint(self):
        assert alignment_ratio_encoded([1, 2], [8, 9]) == 0.0

    def test_empty(self):
        assert alignment_ratio_encoded([], []) == 1.0

    def test_partial(self):
        ratio = alignment_ratio_encoded([1, 2, 3, 4], [1, 2, 9, 4])
        assert 0.5 < ratio < 1.0

    def test_matched_count(self):
        assert matched_count_encoded([5, 6, 7], [5, 6, 7]) == 3


class TestBlockAlignment:
    def test_linear_full_match(self, module):
        f1 = build_diamond(module, "f1", mul_by=2)
        f2 = build_diamond(module, "f2", mul_by=5)
        alignment = align_functions(f1, f2)
        entry = alignment.block_pairs[0]
        assert (entry.block_a, entry.block_b) == (f1.entry, f2.entry)
        assert entry.matched == 2  # add + icmp (terminator excluded)
        assert entry.mismatched == 0

    def test_linear_prefix_suffix_split(self):
        text = """
define i32 @f1(i32 %x) {
entry:
  %a = add i32 %x, 1
  %b = mul i32 %a, 2
  %c = add i32 %b, 3
  ret i32 %c
}
define i32 @f2(i32 %x) {
entry:
  %a = add i32 %x, 1
  %b = sdiv i32 %a, 2
  %c = add i32 %b, 3
  ret i32 %c
}
"""
        m = parse_module(text)
        alignment = align_block_pair(
            m.get_function("f1").entry, m.get_function("f2").entry
        )
        kinds = [type(s).__name__ for s in alignment.segments]
        assert kinds == ["SharedSegment", "SplitSegment", "SharedSegment"]
        assert alignment.matched == 2
        assert alignment.mismatched == 2

    def test_nw_beats_linear_on_insertion(self):
        text = """
define i32 @f1(i32 %x) {
entry:
  %a = add i32 %x, 1
  %b = mul i32 %a, 2
  %c = xor i32 %b, 5
  ret i32 %c
}
define i32 @f2(i32 %x) {
entry:
  %a = add i32 %x, 1
  %e = sdiv i32 %a, 7
  %b = mul i32 %e, 2
  %c = xor i32 %b, 5
  ret i32 %c
}
"""
        m = parse_module(text)
        b1, b2 = m.get_function("f1").entry, m.get_function("f2").entry
        linear = align_block_pair(b1, b2, "linear")
        nw = align_block_pair(b1, b2, "nw")
        assert nw.matched >= linear.matched
        assert nw.matched == 3
        kinds = [type(s).__name__ for s in nw.segments]
        assert kinds == ["SharedSegment", "SplitSegment", "SharedSegment"]
        assert [len(s.right) for s in nw.segments if isinstance(s, SplitSegment)] == [1]


class TestFunctionAlignment:
    def test_identical_functions_align_fully(self, module):
        f1 = build_diamond(module, "f1")
        f2 = build_diamond(module, "f2")
        alignment = align_functions(f1, f2)
        assert len(alignment.block_pairs) == 4
        assert not alignment.unmatched_a and not alignment.unmatched_b
        assert alignment.alignment_ratio > 0.4

    def test_entry_blocks_pair_together(self, module):
        f1 = build_diamond(module, "f1")
        f2 = build_loop(module, "f2")
        alignment = align_functions(f1, f2)
        for pair in alignment.block_pairs:
            is_entry_a = pair.block_a is f1.entry
            is_entry_b = pair.block_b is f2.entry
            assert is_entry_a == is_entry_b

    def test_leftover_blocks_unmatched(self, module):
        f1 = build_diamond(module, "f1")  # 4 blocks
        f2 = build_straightline(module, "f2")  # 1 block
        alignment = align_functions(f1, f2)
        assert len(alignment.block_pairs) == 1
        assert len(alignment.unmatched_a) == 3
        assert alignment.unmatched_b == []

    def test_unknown_strategy_rejected(self, module):
        f1 = build_diamond(module, "f1")
        f2 = build_diamond(module, "f2")
        with pytest.raises(ValueError):
            align_functions(f1, f2, strategy="quantum")

    def test_ratio_bounds(self, module):
        f1 = build_diamond(module, "f1")
        f2 = build_loop(module, "f2")
        ratio = align_functions(f1, f2).alignment_ratio
        assert 0.0 <= ratio <= 1.0
