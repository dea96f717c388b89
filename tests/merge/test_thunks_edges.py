"""Edge cases for call-site rewriting during commit.

Covers the call-graph shapes the basic commit tests miss: invoke sites,
address-taken originals reached indirectly, calls to an original from
inside the merged body, and originals with no callers at all.
"""

from repro.alignment import BatchAlignmentEngine
from repro.ir import (
    BasicBlock,
    Function,
    FunctionType,
    I32,
    IRBuilder,
    Interpreter,
    Opcode,
    PointerType,
    parse_module,
    verify_module,
)
from repro.merge import commit_merge, merge_functions, rewrite_call_sites

PAIR = """
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
"""


def _direct_call_sites(module):
    sites = []
    for func in module.defined_functions():
        for block in func.blocks:
            for inst in block.instructions:
                if inst.opcode in (Opcode.CALL, Opcode.INVOKE):
                    sites.append(inst)
    return sites


class TestInvokeSites:
    def test_invoke_call_sites_rewritten(self):
        text = PAIR + """
define i32 @main(i32 %x) {
entry:
  %r1 = invoke i32 @f1(i32 %x, i32 2) to label %next unwind label %bad
next:
  %r2 = invoke i32 @f2(i32 %x, i32 3) to label %done unwind label %bad
done:
  %s = add i32 %r1, %r2
  ret i32 %s
bad:
  unreachable
}
"""
        module = parse_module(text)
        main = module.get_function("main")
        ref = {x: Interpreter().run(main, [x]).value for x in (0, 6)}
        f1, f2 = module.get_function("f1"), module.get_function("f2")
        result = merge_functions(BatchAlignmentEngine().align_functions(f1, f2), module)
        commit_merge(result)
        verify_module(module)
        # Invokes were retargeted in place, keeping their unwind edges.
        invokes = [
            s for s in _direct_call_sites(module) if s.opcode == Opcode.INVOKE
        ]
        assert len(invokes) == 2
        assert all(s.callee is result.merged for s in invokes)
        for x, expected in ref.items():
            assert Interpreter().run(module.get_function("main"), [x]).value == expected


class TestAddressTaken:
    def _module_with_indirect_use(self):
        module = parse_module(PAIR)
        f1 = module.get_function("f1")
        fnptr = PointerType(FunctionType(I32, [I32, I32]))
        # i32 @apply(fnptr %f, i32 %x): calls through the pointer.
        apply_fn = Function(FunctionType(I32, [fnptr, I32]), "apply", parent=module)
        b = IRBuilder(BasicBlock("entry", apply_fn))
        r = b.call(apply_fn.args[0], [apply_fn.args[1], b.const_int(I32, 2)])
        b.ret(r)
        # i32 @main(i32 %x): passes @f1 as a value — address taken.
        main = Function(FunctionType(I32, [I32]), "main", parent=module)
        b = IRBuilder(BasicBlock("entry", main))
        r = b.call(apply_fn, [f1, main.args[0]])
        b.ret(r)
        return module

    def test_address_taken_original_kept_as_thunk(self):
        module = self._module_with_indirect_use()
        f1, f2 = module.get_function("f1"), module.get_function("f2")
        assert f1.address_taken
        ref = Interpreter().run(module.get_function("main"), [5]).value
        result = merge_functions(BatchAlignmentEngine().align_functions(f1, f2), module)
        commit_merge(result)
        verify_module(module)
        # @f1 survives as a one-block thunk; @f2 had no other uses and dies.
        thunk = module.get_function("f1")
        assert thunk is f1 and len(thunk.blocks) == 1
        assert module.get_function("f2") is None
        # The indirect call still reaches the original behaviour.
        assert Interpreter().run(module.get_function("main"), [5]).value == ref


RECURSIVE_TEMPLATE = """
define i32 @g1(i32 %x) {{
entry:
  %c = icmp sgt i32 %x, 0
  br i1 %c, label %rec, label %done
rec:
  %d = sub i32 %x, 1
  %v = call i32 @g1(i32 %d)
  %s = add i32 %v, 2
  br label %done
done:
  %p = phi i32 [ %s, %rec ], [ 0, %entry ]
  ret i32 %p
}}
define i32 @g2(i32 %x) {{
entry:
  %c = icmp sgt i32 %x, 0
  br i1 %c, label %rec, label %done
rec:
  %d = sub i32 %x, 1
  %v = call i32 @{callee}(i32 %d)
  %s = add i32 %v, 5
  br label %done
done:
  %p = phi i32 [ %s, %rec ], [ 0, %entry ]
  ret i32 %p
}}
"""


class TestMergedBodyCalls:
    def test_call_inside_merged_body_rewritten(self):
        # Both functions call @g1, so the merged body itself contains a
        # call site of an original; rewrite must retarget it like any
        # other caller and both originals must die.
        module = parse_module(RECURSIVE_TEMPLATE.format(callee="g1"))
        g1, g2 = module.get_function("g1"), module.get_function("g2")
        ref1 = Interpreter().run(g1, [4]).value
        ref2 = Interpreter().run(g2, [4]).value
        result = merge_functions(BatchAlignmentEngine().align_functions(g1, g2), module)
        commit_merge(result)
        verify_module(module)
        sites = _direct_call_sites(module)
        assert sites, "the merged body keeps its recursive call"
        assert all(s.callee is result.merged for s in sites)
        assert module.get_function("g1") is None
        assert module.get_function("g2") is None
        assert Interpreter().run(result.merged, [0, 4]).value == ref1
        assert Interpreter().run(result.merged, [1, 4]).value == ref2

    def test_differing_callees_dispatch_through_thunks(self):
        # g1 calls g1, g2 calls g2: the merged body selects the callee by
        # fid, which takes both originals' addresses — they must survive
        # as thunks and recursion must still terminate correctly.
        module = parse_module(RECURSIVE_TEMPLATE.format(callee="g2"))
        g1, g2 = module.get_function("g1"), module.get_function("g2")
        ref1 = Interpreter().run(g1, [4]).value
        ref2 = Interpreter().run(g2, [4]).value
        result = merge_functions(BatchAlignmentEngine().align_functions(g1, g2), module)
        commit_merge(result)
        verify_module(module)
        assert module.get_function("g1") is g1 and len(g1.blocks) == 1
        assert module.get_function("g2") is g2 and len(g2.blocks) == 1
        assert Interpreter().run(g1, [4]).value == ref1
        assert Interpreter().run(g2, [4]).value == ref2


class TestZeroCallers:
    def test_rewrite_returns_zero_without_callers(self):
        module = parse_module(PAIR)
        f1, f2 = module.get_function("f1"), module.get_function("f2")
        result = merge_functions(BatchAlignmentEngine().align_functions(f1, f2), module)
        assert rewrite_call_sites(f1, result.merged, result.param_map_a, 0) == 0

    def test_commit_deletes_uncalled_originals(self):
        module = parse_module(PAIR)
        f1, f2 = module.get_function("f1"), module.get_function("f2")
        ref1 = Interpreter().run(f1, [2, 3]).value
        ref2 = Interpreter().run(f2, [2, 3]).value
        result = merge_functions(BatchAlignmentEngine().align_functions(f1, f2), module)
        commit_merge(result)
        verify_module(module)
        assert module.get_function("f1") is None
        assert module.get_function("f2") is None
        merged = result.merged
        assert Interpreter().run(merged, [0, 2, 3]).value == ref1
        assert Interpreter().run(merged, [1, 2, 3]).value == ref2
