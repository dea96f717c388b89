"""Tests for the merged-function code generator."""

import pytest

from repro.alignment import BatchAlignmentEngine
from repro.ir import (
    I1,
    I32,
    Interpreter,
    Module,
    parse_module,
    verify_function,
)
from repro.merge import MergeError, MergeOptions, merge_functions
from repro.merge.layout import _merge_parameters
from tests.conftest import build_diamond, build_loop, build_straightline


def merge_pair(module, f1, f2, **opts):
    alignment = BatchAlignmentEngine().align_functions(f1, f2)
    return merge_functions(alignment, module, options=MergeOptions(**opts))


def check_equivalent(module, f1_name, f2_name, result, inputs):
    """The merged function must reproduce both originals on all inputs."""
    interp = Interpreter()
    merged = result.merged
    f1, f2 = result.function_a, result.function_b

    def call_merged(fid, original, args):
        margs = [None] * len(merged.args)
        margs[0] = fid
        pmap = result.param_map_a if fid == 0 else result.param_map_b
        for value, slot in zip(args, pmap):
            margs[slot] = value
        margs = [0 if a is None else a for a in margs]
        return Interpreter().run(merged, margs).value

    for args in inputs:
        assert call_merged(0, f1, args) == Interpreter().run(f1, args).value
        assert call_merged(1, f2, args) == Interpreter().run(f2, args).value


class TestParameterMerging:
    def test_identical_signatures_share_slots(self, module):
        f1 = build_diamond(module, "f1")
        f2 = build_diamond(module, "f2")
        types, map_a, map_b = _merge_parameters(f1, f2)
        assert types[0] is I1
        assert map_a == [1, 2]
        assert map_b == [1, 2]
        assert len(types) == 3

    def test_disjoint_types_append(self, module):
        from repro.ir import DOUBLE, Function, FunctionType

        f1 = Function(FunctionType(I32, [I32]), "f1", parent=module)
        f2 = Function(FunctionType(I32, [DOUBLE]), "f2", parent=module)
        types, map_a, map_b = _merge_parameters(f1, f2)
        assert map_a == [1]
        assert map_b == [2]
        assert len(types) == 3

    def test_partial_overlap(self, module):
        from repro.ir import DOUBLE, Function, FunctionType

        f1 = Function(FunctionType(I32, [I32, DOUBLE]), "f1", parent=module)
        f2 = Function(FunctionType(I32, [DOUBLE, DOUBLE]), "f2", parent=module)
        types, map_a, map_b = _merge_parameters(f1, f2)
        # f2's doubles reuse f1's double slot once, then append.
        assert map_b[0] == 2
        assert map_b[1] == 3


class TestMergeCorrectness:
    def test_identical_functions(self, module):
        f1 = build_diamond(module, "f1")
        f2 = build_diamond(module, "f2")
        result = merge_pair(module, f1, f2)
        verify_function(result.merged)
        # Fully shared: no select needed beyond zero, no private code.
        assert result.num_private == 0
        check_equivalent(module, "f1", "f2", result, [[3, 4], [20, 30]])

    def test_constant_divergence_uses_selects(self, module):
        f1 = build_diamond(module, "f1", mul_by=2)
        f2 = build_diamond(module, "f2", mul_by=9)
        result = merge_pair(module, f1, f2)
        verify_function(result.merged)
        assert result.num_selects >= 1
        check_equivalent(module, "f1", "f2", result, [[3, 4], [20, 30], [0, 0]])

    def test_structurally_different_functions(self, module):
        f1 = build_diamond(module, "f1")
        f2 = build_loop(module, "f2")
        alignment = BatchAlignmentEngine().align_functions(f1, f2)
        # Widen the signature gap: diamond takes 2 args, loop takes 1.
        result = merge_functions(alignment, module)
        verify_function(result.merged)
        merged = result.merged
        interp = Interpreter()
        for x, y in ([3, 4], [50, 60]):
            args = [0] * len(merged.args)
            args[0] = 0
            for val, slot in zip([x, y], result.param_map_a):
                args[slot] = val
            assert interp.run(merged, args).value == interp.run(f1, [x, y]).value
        for (x,) in ([3], [11]):
            args = [0] * len(merged.args)
            args[0] = 1
            for val, slot in zip([x], result.param_map_b):
                args[slot] = val
            assert interp.run(merged, args).value == interp.run(f2, [x]).value

    def test_merged_added_to_module(self, module):
        f1 = build_straightline(module, "f1")
        f2 = build_straightline(module, "f2", k=9)
        result = merge_pair(module, f1, f2)
        assert module.get_function(result.merged.name) is result.merged

    def test_return_type_mismatch_rejected(self, module):
        from repro.ir import DOUBLE, Function, FunctionType, IRBuilder, BasicBlock

        f1 = build_straightline(module, "f1")
        f2 = Function(FunctionType(DOUBLE, [I32]), "f2", parent=module)
        b = IRBuilder(BasicBlock("entry", f2))
        b.ret(b.const_float(DOUBLE, 1.0))
        with pytest.raises(MergeError):
            merge_pair(module, f1, f2)

    def test_declaration_rejected(self, module):
        from repro.ir import Function, FunctionType

        f1 = build_straightline(module, "f1")
        f2 = Function(FunctionType(I32, [I32]), "f2", parent=module)
        with pytest.raises(MergeError):
            merge_pair(module, f1, f2)

    def test_module_unchanged_on_failure(self, module):
        from repro.ir import DOUBLE, Function, FunctionType, IRBuilder, BasicBlock

        f1 = build_straightline(module, "f1")
        f2 = Function(FunctionType(DOUBLE, [I32]), "f2", parent=module)
        b = IRBuilder(BasicBlock("entry", f2))
        b.ret(b.const_float(DOUBLE, 1.0))
        before = len(module)
        with pytest.raises(MergeError):
            merge_pair(module, f1, f2)
        assert len(module) == before


class TestGuardedControlFlow:
    def test_divergent_middle_guarded(self):
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
        module = parse_module(text)
        f1, f2 = module.get_function("f1"), module.get_function("f2")
        result = merge_pair(module, f1, f2)
        verify_function(result.merged)
        assert result.num_private == 2  # one guarded op per side
        interp = Interpreter()
        for x in (0, 5, 100):
            assert (
                interp.run(result.merged, [0, x]).value
                == interp.run(f1, [x]).value
            )
            assert (
                interp.run(result.merged, [1, x]).value
                == interp.run(f2, [x]).value
            )

    def test_loop_vs_loop(self, module):
        f1 = build_loop(module, "f1", trip=5)
        f2 = build_loop(module, "f2", trip=9)
        result = merge_pair(module, f1, f2)
        verify_function(result.merged)
        interp = Interpreter()
        for x in (0, 7):
            assert interp.run(result.merged, [0, x]).value == interp.run(f1, [x]).value
            assert interp.run(result.merged, [1, x]).value == interp.run(f2, [x]).value

    def test_shared_terminators_single_branch(self, module):
        f1 = build_diamond(module, "f1")
        f2 = build_diamond(module, "f2")
        result = merge_pair(module, f1, f2)
        # Identical CFGs: terminators shared, so the merged function has
        # exactly dispatch + 4 pair blocks.
        assert len(result.merged.blocks) == 5
