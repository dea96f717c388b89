"""Tests for functions, modules and LTO-style linking."""

import pytest

from repro.ir import (
    BasicBlock,
    Call,
    ConstantInt,
    Function,
    FunctionType,
    I32,
    IRBuilder,
    Module,
    Ret,
    link_modules,
)
from tests.conftest import build_diamond, build_straightline


class TestFunction:
    def test_arguments(self, module):
        func = Function(FunctionType(I32, [I32, I32]), "f", parent=module)
        assert len(func.args) == 2
        assert func.args[0].type is I32
        assert func.args[1].index == 1

    def test_declaration(self, module):
        func = Function(FunctionType(I32, [I32]), "d", parent=module)
        assert func.is_declaration
        with pytest.raises(ValueError):
            func.entry

    def test_num_instructions(self, module):
        func = build_diamond(module)
        assert func.num_instructions == sum(len(b) for b in func.blocks)

    def test_uniquify_names(self, module):
        func = Function(FunctionType(I32, [I32]), "f", parent=module)
        block = BasicBlock("entry", func)
        b = IRBuilder(block)
        v1 = b.add(func.args[0], b.const_int(I32, 1))
        v2 = b.add(v1, b.const_int(I32, 1))
        v1.name = "x"
        v2.name = "x"
        b.ret(v2)
        func.uniquify_names()
        assert v1.name != v2.name

    def test_next_name_skips_names_in_use(self, module):
        func = Function(FunctionType(I32, [I32]), "f", parent=module)
        block = BasicBlock("t2", func)
        b = IRBuilder(block)
        v = b.add(func.args[0], b.const_int(I32, 1), name="t1")
        b.ret(v)
        func.args[0].name = "t3"
        # t1 (instruction), t2 (block) and t3 (argument) are taken.
        assert func.next_name() == "t4"
        assert func.next_name("t") == "t5"

    def test_callers_and_address_taken(self, module):
        callee = build_straightline(module, "callee")
        caller = Function(FunctionType(I32, [I32]), "caller", parent=module)
        b = IRBuilder(BasicBlock("entry", caller))
        r = b.call(callee, [caller.args[0]])
        b.ret(r)
        assert len(callee.callers()) == 1
        assert not callee.address_taken

    def test_drop_body(self, module):
        func = build_diamond(module)
        func.drop_body()
        assert func.is_declaration
        assert not func.blocks

    def test_erase_from_parent(self, module):
        func = build_straightline(module)
        func.erase_from_parent()
        assert module.get_function("line") is None


class TestModule:
    def test_add_and_lookup(self, module):
        func = build_straightline(module)
        assert module.get_function("line") is func
        assert "line" in module
        assert len(module) == 1

    def test_duplicate_names_rejected(self, module):
        build_straightline(module, "dup")
        with pytest.raises(ValueError):
            Function(FunctionType(I32, []), "dup", parent=module)

    def test_unique_name(self, module):
        build_straightline(module, "f")
        assert module.unique_name("f") == "f.1"
        assert module.unique_name("g") == "g"

    def test_declare_function_idempotent(self, module):
        ft = FunctionType(I32, [I32])
        d1 = module.declare_function(ft, "ext")
        d2 = module.declare_function(ft, "ext")
        assert d1 is d2
        with pytest.raises(ValueError):
            module.declare_function(FunctionType(I32, []), "ext")

    def test_defined_functions_excludes_declarations(self, module):
        build_straightline(module, "f")
        module.declare_function(FunctionType(I32, []), "ext")
        names = [f.name for f in module.defined_functions()]
        assert names == ["f"]


class TestLinking:
    def test_declaration_resolved_by_definition(self):
        m1 = Module("a")
        decl = m1.declare_function(FunctionType(I32, [I32]), "shared")
        caller = Function(FunctionType(I32, [I32]), "caller", parent=m1)
        b = IRBuilder(BasicBlock("entry", caller))
        b.ret(b.call(decl, [caller.args[0]]))

        m2 = Module("b")
        build_straightline(m2, "shared")

        linked = link_modules([m1, m2], "out")
        shared = linked.get_function("shared")
        assert shared is not None and not shared.is_declaration
        # The caller's call site must point at the definition now.
        call = next(
            i for i in linked.get_function("caller").instructions() if isinstance(i, Call)
        )
        assert call.callee is shared

    def test_duplicate_definitions_renamed(self):
        m1, m2 = Module("a"), Module("b")
        build_straightline(m1, "f")
        build_straightline(m2, "f")
        linked = link_modules([m1, m2])
        names = sorted(f.name for f in linked.functions)
        assert names == ["f", "f.1"]
