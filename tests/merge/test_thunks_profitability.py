"""Tests for call-site redirection, thunks, and the profitability model."""

import pytest

from repro.alignment import BatchAlignmentEngine
from repro.ir import (
    BasicBlock,
    Call,
    ConstantInt,
    Function,
    FunctionType,
    I32,
    IRBuilder,
    Interpreter,
    parse_module,
    verify_module,
)
from repro.merge import (
    ProfitabilityModel,
    commit_merge,
    make_thunk,
    merge_functions,
    rewrite_call_sites,
)
from tests.conftest import build_diamond


def _module_with_callers():
    text = """
define i32 @f1(i32 %x, i32 %y) {
entry:
  %a = add i32 %x, %y
  %b = mul i32 %a, 3
  ret i32 %b
}
define i32 @f2(i32 %x, i32 %y) {
entry:
  %a = add i32 %x, %y
  %b = mul i32 %a, 7
  ret i32 %b
}
define i32 @main(i32 %x) {
entry:
  %r1 = call i32 @f1(i32 %x, i32 2)
  %r2 = call i32 @f2(i32 %x, i32 3)
  %s = add i32 %r1, %r2
  ret i32 %s
}
"""
    return parse_module(text)


class TestCommitMerge:
    def test_call_sites_redirected_and_originals_deleted(self):
        module = _module_with_callers()
        f1, f2 = module.get_function("f1"), module.get_function("f2")
        ref = {x: Interpreter().run(module.get_function("main"), [x]).value for x in (0, 5)}
        result = merge_functions(BatchAlignmentEngine().align_functions(f1, f2), module)
        commit_merge(result)
        verify_module(module)
        assert module.get_function("f1") is None
        assert module.get_function("f2") is None
        for x, expected in ref.items():
            assert Interpreter().run(module.get_function("main"), [x]).value == expected

    def test_external_function_kept_as_thunk(self):
        module = _module_with_callers()
        f1, f2 = module.get_function("f1"), module.get_function("f2")
        f1.internal = False  # visible outside the module
        ref = Interpreter().run(module.get_function("main"), [4]).value
        result = merge_functions(BatchAlignmentEngine().align_functions(f1, f2), module)
        commit_merge(result)
        verify_module(module)
        thunk = module.get_function("f1")
        assert thunk is not None and not thunk.is_declaration
        assert len(thunk.blocks) == 1
        # Calling the thunk directly behaves like the original.
        assert Interpreter().run(thunk, [1, 2]).value == (1 + 2) * 3
        assert Interpreter().run(module.get_function("main"), [4]).value == ref

    def test_rewrite_counts_sites(self):
        module = _module_with_callers()
        f1, f2 = module.get_function("f1"), module.get_function("f2")
        result = merge_functions(BatchAlignmentEngine().align_functions(f1, f2), module)
        n = rewrite_call_sites(f1, result.merged, result.param_map_a, 0)
        assert n == 1
        assert len(f1.callers()) == 0

    def test_make_thunk_standalone(self, module):
        f1 = build_diamond(module, "f1")
        f2 = build_diamond(module, "f2")
        result = merge_functions(BatchAlignmentEngine().align_functions(f1, f2), module)
        make_thunk(f1, result.merged, result.param_map_a, 0)
        assert len(f1.blocks) == 1
        assert Interpreter().run(f1, [7, 8]).value == 30

    def test_recursive_calls_rewritten(self):
        text = """
define i32 @r1(i32 %x) {
entry:
  %c = icmp sgt i32 %x, 0
  br i1 %c, label %rec, label %done
rec:
  %d = sub i32 %x, 1
  %v = call i32 @r1(i32 %d)
  %s = add i32 %v, 2
  br label %done
done:
  %p = phi i32 [ %s, %rec ], [ 0, %entry ]
  ret i32 %p
}
define i32 @r2(i32 %x) {
entry:
  %c = icmp sgt i32 %x, 0
  br i1 %c, label %rec, label %done
rec:
  %d = sub i32 %x, 1
  %v = call i32 @r2(i32 %d)
  %s = add i32 %v, 5
  br label %done
done:
  %p = phi i32 [ %s, %rec ], [ 0, %entry ]
  ret i32 %p
}
"""
        module = parse_module(text)
        r1, r2 = module.get_function("r1"), module.get_function("r2")
        ref1 = Interpreter().run(r1, [4]).value
        ref2 = Interpreter().run(r2, [4]).value
        result = merge_functions(BatchAlignmentEngine().align_functions(r1, r2), module)
        commit_merge(result)
        verify_module(module)
        merged = result.merged
        assert Interpreter().run(merged, [0, 4]).value == ref1 == 8
        assert Interpreter().run(merged, [1, 4]).value == ref2 == 20


class TestProfitability:
    def test_identical_merge_is_profitable(self, module):
        f1 = build_diamond(module, "f1")
        f2 = build_diamond(module, "f2")
        result = merge_functions(BatchAlignmentEngine().align_functions(f1, f2), module)
        benefit = ProfitabilityModel().evaluate(result)
        assert benefit.profitable
        assert benefit.saving > 0

    def test_thunk_cost_charged_for_external(self, module):
        f1 = build_diamond(module, "f1")
        f2 = build_diamond(module, "f2")
        result = merge_functions(BatchAlignmentEngine().align_functions(f1, f2), module)
        internal = ProfitabilityModel().evaluate(result)
        f1.internal = False
        external = ProfitabilityModel().evaluate(result)
        assert external.overhead > internal.overhead
        assert external.saving < internal.saving

    def test_callsite_cost_counted(self):
        module = _module_with_callers()
        f1, f2 = module.get_function("f1"), module.get_function("f2")
        result = merge_functions(BatchAlignmentEngine().align_functions(f1, f2), module)
        benefit = ProfitabilityModel().evaluate(result)
        assert benefit.overhead >= 2  # one rewritten call site each
