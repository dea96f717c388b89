"""Tests for function and module cloning."""

import pytest

from repro.ir import (
    I32,
    BasicBlock,
    Constant,
    ConstantInt,
    Function,
    FunctionType,
    Interpreter,
    IRBuilder,
    Module,
    clone_function,
    clone_module,
    parse_module,
    print_function,
    verify_function,
    verify_module,
)
from tests.conftest import build_diamond, build_loop, build_straightline
from tests.reference import observable, reference_clone_module


class TestClone:
    def test_clone_is_verifiable_and_equivalent(self, module):
        for builder, args in (
            (build_straightline, [5]),
            (build_loop, [3]),
        ):
            base = builder(module, f"base_{builder.__name__}")
            copy = clone_function(base, f"copy_{builder.__name__}", module)
            verify_function(copy)
            assert (
                Interpreter().run(base, args).value
                == Interpreter().run(copy, args).value
            )

    def test_clone_diamond_two_args(self, module):
        base = build_diamond(module, "base")
        copy = clone_function(base, "copy", module)
        verify_function(copy)
        for args in ([7, 8], [1, 2], [50, 60]):
            assert (
                Interpreter().run(base, args).value
                == Interpreter().run(copy, args).value
            )

    def test_clone_preserves_structure(self, module):
        base = build_loop(module, "base")
        copy = clone_function(base, "copy", module)
        # Identical modulo the function name.
        assert print_function(copy) == print_function(base).replace("@base", "@copy")

    def test_clone_is_independent(self, module):
        base = build_straightline(module, "base")
        copy = clone_function(base, "copy", module)
        copy.entry.instructions[0].set_operand(1, copy.entry.instructions[0].operand(0))
        # Mutating the clone must not touch the original.
        assert Interpreter().run(base, [5]).value == 0x55 ^ ((5 + 3) * 3)

    def test_back_edge_phi_values_remapped(self, module):
        base = build_loop(module, "base")
        copy = clone_function(base, "copy", module)
        base_insts = {id(i) for i in base.instructions()}
        for inst in copy.instructions():
            for op in inst.operands:
                assert id(op) not in base_insts, "clone references original value"


#: ``%x`` is used in ``%use``, a block placed before ``%def`` that defines
#: it and dominates it.
FORWARD = """define i32 @fwd(i32 %a) {
entry:
  br label %def
use:
  %y = add i32 %x, 1
  ret i32 %y
def:
  %x = mul i32 %a, 2
  br label %use
}
"""


class TestForwardOperands:
    def test_non_phi_forward_operand_remapped(self):
        source = parse_module(FORWARD).get_function("fwd")
        uses_before = list(source.blocks[2].instructions[0].uses())
        copy = clone_function(source, "fwd", Module("dest"))
        verify_function(copy)
        originals = {id(i) for i in source.instructions()}
        for inst in copy.instructions():
            for op in inst.operands:
                assert id(op) not in originals, "clone references original value"
        assert print_function(copy) == print_function(source)
        assert list(source.blocks[2].instructions[0].uses()) == uses_before
        assert Interpreter().run(copy, [4]).value == 9


def _mixed_module() -> Module:
    """Built, not parsed: phis completed after their loop bodies, a
    definition with external linkage and a declaration whose arguments are
    named, so its linkage, argument names and use lists are not the ones
    its text gives."""
    mod = Module("mixed")
    build_loop(mod, "loop")
    build_diamond(mod, "diamond")
    ext = Function(FunctionType(I32, [I32]), "ext", parent=mod, internal=False)
    ext.args[0].name = "n"
    caller = build_straightline(mod, "caller")
    caller.internal = False
    b = IRBuilder(caller.entry)
    ret = caller.entry.instructions.pop()
    ret.parent = None
    v = b.call(ext, [caller.entry.instructions[-1]])
    b.ret(b.call(mod.get_function("loop"), [v]))
    ret.drop_all_references()
    return mod


class TestCloneModule:
    def test_equals_round_trip(self):
        mod = _mixed_module()
        verify_module(mod)
        built = clone_module(mod, "copy")
        assert observable(built) == observable(reference_clone_module(mod, "copy"))
        assert built.name == "copy"
        assert [(f.name, f.internal) for f in built.functions] == [
            ("loop", True), ("diamond", True), ("ext", False), ("caller", True)
        ]
        assert [a.name for a in built.get_function("ext").args] == ["arg0"]

    def test_use_order_follows_the_text_not_the_history(self):
        mod = parse_module(
            "define i32 @f(i32 %a) {\nentry:\n  %b = add i32 %a, 1\n"
            "  %c = mul i32 %a, 2\n  %d = add i32 %b, %c\n  ret i32 %d\n}\n"
        )
        arg = mod.get_function("f").args[0]
        first = mod.get_function("f").entry.instructions[0]
        # Rewire %b off %a and back: %a now lists %c before %b, which no
        # parse of the unchanged text does.
        first.set_operand(0, ConstantInt(I32, 0))
        first.set_operand(0, arg)
        assert [user.name for user, _ in arg.uses()] == ["c", "b"]
        built = clone_module(mod)
        assert observable(built) == observable(reference_clone_module(mod))
        assert [user.name for user, _ in built.get_function("f").args[0].uses()] == ["b", "c"]

    def test_constants_are_fresh(self):
        mod = _mixed_module()
        built = clone_module(mod)
        resident = {
            id(op) for f in mod.functions for i in f.instructions() for op in i.operands
        }
        for func in built.functions:
            for inst in func.instructions():
                for slot, op in enumerate(inst.operands):
                    if isinstance(op, Constant):
                        assert id(op) not in resident
                        assert list(op.uses()) == [(inst, slot)]

    def test_resident_module_untouched(self):
        mod = _mixed_module()
        before = observable(mod)
        clone_module(mod)
        assert observable(mod) == before

    def test_operand_from_another_function_rejected(self):
        mod = Module("m")
        donor = build_straightline(mod, "donor")
        thief = build_straightline(mod, "thief")
        thief.entry.instructions[0].set_operand(0, donor.entry.instructions[0])
        with pytest.raises(ValueError, match="@thief"):
            clone_module(mod)

    def test_callee_outside_the_module_rejected(self):
        mod = Module("m")
        stray = build_straightline(Module("other"), "stray")
        caller = Function(FunctionType(I32, [I32]), "caller", parent=mod)
        b = IRBuilder(BasicBlock("entry", caller))
        b.ret(b.call(stray, [caller.args[0]]))
        with pytest.raises(ValueError, match="@stray"):
            clone_module(mod)
