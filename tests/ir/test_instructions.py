"""Tests for instruction constructors, typing rules and CFG queries."""

import pytest

from repro.ir import (
    Alloca,
    Argument,
    ArrayType,
    BasicBlock,
    BinaryOp,
    Branch,
    Call,
    Cast,
    ConstantInt,
    DOUBLE,
    FCmp,
    FCmpPred,
    FLOAT,
    Function,
    FunctionType,
    GetElementPtr,
    I1,
    I8,
    I16,
    I32,
    I64,
    ICmp,
    ICmpPred,
    Invoke,
    Load,
    Module,
    Opcode,
    Phi,
    PointerType,
    Ret,
    Select,
    Store,
    StructType,
    Switch,
    Unreachable,
    UndefValue,
    VOID,
    Instruction,
)
from repro.ir.clone import blank_instruction
from repro.ir.instructions import BINARY_OPCODES, CAST_OPCODES, TERMINATOR_OPCODES


def arg(type_, name="a", index=0):
    return Argument(type_, name, index)


class TestBinary:
    def test_add_result_type(self):
        inst = BinaryOp(Opcode.ADD, arg(I32), arg(I32, "b", 1))
        assert inst.type is I32
        assert inst.is_binary and not inst.is_terminator

    def test_type_mismatch_rejected(self):
        with pytest.raises(TypeError):
            BinaryOp(Opcode.ADD, arg(I32), arg(I64))

    def test_float_opcode_needs_floats(self):
        with pytest.raises(TypeError):
            BinaryOp(Opcode.FADD, arg(I32), arg(I32))
        assert BinaryOp(Opcode.FADD, arg(DOUBLE), arg(DOUBLE)).type is DOUBLE

    def test_int_opcode_rejects_floats(self):
        with pytest.raises(TypeError):
            BinaryOp(Opcode.ADD, arg(DOUBLE), arg(DOUBLE))

    def test_non_binary_opcode_rejected(self):
        with pytest.raises(ValueError):
            BinaryOp(Opcode.RET, arg(I32), arg(I32))

    def test_commutativity_flags(self):
        assert BinaryOp(Opcode.ADD, arg(I32), arg(I32)).is_commutative
        assert not BinaryOp(Opcode.SUB, arg(I32), arg(I32)).is_commutative


class TestCompare:
    def test_icmp_yields_i1(self):
        assert ICmp(ICmpPred.SLT, arg(I32), arg(I32)).type is I1

    def test_icmp_rejects_floats(self):
        with pytest.raises(TypeError):
            ICmp(ICmpPred.EQ, arg(DOUBLE), arg(DOUBLE))

    def test_icmp_allows_pointers(self):
        p = PointerType(I32)
        assert ICmp(ICmpPred.EQ, arg(p), arg(p)).type is I1

    def test_fcmp(self):
        assert FCmp(FCmpPred.OLT, arg(DOUBLE), arg(DOUBLE)).type is I1
        with pytest.raises(TypeError):
            FCmp(FCmpPred.OLT, arg(I32), arg(I32))


class TestSelect:
    def test_select(self):
        s = Select(arg(I1, "c"), arg(I32, "t"), arg(I32, "f"))
        assert s.type is I32
        assert s.condition.name == "c"

    def test_cond_must_be_i1(self):
        with pytest.raises(TypeError):
            Select(arg(I32), arg(I32), arg(I32))

    def test_arm_mismatch(self):
        with pytest.raises(TypeError):
            Select(arg(I1), arg(I32), arg(I64))


class TestCasts:
    def test_valid_casts(self):
        assert Cast(Opcode.ZEXT, arg(I8), I32).type is I32
        assert Cast(Opcode.SEXT, arg(I16), I64).type is I64
        assert Cast(Opcode.TRUNC, arg(I64), I8).type is I8
        assert Cast(Opcode.SITOFP, arg(I32), DOUBLE).type is DOUBLE
        assert Cast(Opcode.FPTOSI, arg(DOUBLE), I32).type is I32
        assert Cast(Opcode.FPEXT, arg(FLOAT), DOUBLE).type is DOUBLE
        assert Cast(Opcode.BITCAST, arg(PointerType(I8)), PointerType(I32)).type is PointerType(I32)

    def test_invalid_casts(self):
        with pytest.raises(TypeError):
            Cast(Opcode.ZEXT, arg(I32), I8)  # narrowing zext
        with pytest.raises(TypeError):
            Cast(Opcode.TRUNC, arg(I8), I32)  # widening trunc
        with pytest.raises(TypeError):
            Cast(Opcode.BITCAST, arg(I32), I64)  # size-changing bitcast


class TestMemory:
    def test_alloca_yields_pointer(self):
        a = Alloca(I32)
        assert a.type is PointerType(I32)
        assert a.allocated_type is I32

    def test_load_store_round_types(self):
        ptr = Alloca(I32)
        load = Load(ptr)
        assert load.type is I32
        store = Store(arg(I32), ptr)
        assert store.type.is_void

    def test_store_type_mismatch(self):
        with pytest.raises(TypeError):
            Store(arg(I64), Alloca(I32))

    def test_load_requires_pointer(self):
        with pytest.raises(TypeError):
            Load(arg(I32))

    def test_gep_through_array(self):
        ptr = Alloca(ArrayType(I32, 4))
        gep = GetElementPtr(ptr, [ConstantInt(I64, 0), ConstantInt(I64, 2)])
        assert gep.type is PointerType(I32)

    def test_gep_through_struct(self):
        st = StructType([I32, DOUBLE])
        ptr = Alloca(st)
        gep = GetElementPtr(ptr, [ConstantInt(I64, 0), ConstantInt(I32, 1)])
        assert gep.type is PointerType(DOUBLE)

    def test_gep_struct_needs_constant(self):
        ptr = Alloca(StructType([I32, DOUBLE]))
        with pytest.raises(TypeError):
            GetElementPtr(ptr, [ConstantInt(I64, 0), arg(I32)])

    def test_gep_struct_index_range(self):
        ptr = Alloca(StructType([I32]))
        with pytest.raises(TypeError):
            GetElementPtr(ptr, [ConstantInt(I64, 0), ConstantInt(I32, 5)])


class TestCalls:
    def _callee(self, module):
        return Function(FunctionType(I32, [I32, DOUBLE]), "callee", parent=module)

    def test_call_types(self, module):
        callee = self._callee(module)
        call = Call(callee, [arg(I32), arg(DOUBLE)])
        assert call.type is I32
        assert call.callee is callee
        assert len(call.args) == 2

    def test_call_arity_checked(self, module):
        callee = self._callee(module)
        with pytest.raises(TypeError):
            Call(callee, [arg(I32)])

    def test_call_arg_type_checked(self, module):
        callee = self._callee(module)
        with pytest.raises(TypeError):
            Call(callee, [arg(I32), arg(I32, "b", 1)])

    def test_invoke_successors(self, module):
        callee = self._callee(module)
        func = Function(FunctionType(I32, []), "f", parent=module)
        normal = BasicBlock("normal", func)
        unwind = BasicBlock("unwind", func)
        inv = Invoke(callee, [arg(I32), arg(DOUBLE)], normal, unwind)
        assert inv.is_terminator
        assert inv.successors() == [normal, unwind]
        assert inv.normal_dest is normal
        assert inv.unwind_dest is unwind


class TestControlFlow:
    def test_unconditional_branch(self, module):
        func = Function(FunctionType(I32, []), "f", parent=module)
        target = BasicBlock("t", func)
        br = Branch(target)
        assert not br.is_conditional
        assert br.successors() == [target]

    def test_conditional_branch(self, module):
        func = Function(FunctionType(I32, []), "f", parent=module)
        t, f = BasicBlock("t", func), BasicBlock("f", func)
        br = Branch(arg(I1, "c"), t, f)
        assert br.is_conditional
        assert br.successors() == [t, f]
        with pytest.raises(TypeError):
            Branch(arg(I32), t, f)

    def test_switch(self, module):
        func = Function(FunctionType(I32, []), "f", parent=module)
        d, c1 = BasicBlock("d", func), BasicBlock("c1", func)
        sw = Switch(arg(I32, "v"), d)
        sw.add_case(ConstantInt(I32, 1), c1)
        assert sw.successors() == [d, c1]
        assert sw.cases[0][0].value == 1
        with pytest.raises(TypeError):
            sw.add_case(ConstantInt(I64, 2), c1)

    def test_ret(self):
        assert Ret(None).value is None
        assert Ret(arg(I32)).value is not None
        assert Ret(None).successors() == []

    def test_unreachable(self):
        assert Unreachable().is_terminator


class TestPhi:
    def test_incoming_management(self, module):
        func = Function(FunctionType(I32, []), "f", parent=module)
        b1, b2 = BasicBlock("b1", func), BasicBlock("b2", func)
        phi = Phi(I32)
        phi.add_incoming(ConstantInt(I32, 1), b1)
        phi.add_incoming(ConstantInt(I32, 2), b2)
        assert len(phi.incoming) == 2
        assert phi.incoming_for(b1).value == 1
        phi.remove_incoming(b1)
        assert phi.incoming_for(b1) is None
        assert len(phi.incoming) == 1

    def test_incoming_type_checked(self, module):
        func = Function(FunctionType(I32, []), "f", parent=module)
        b1 = BasicBlock("b1", func)
        phi = Phi(I32)
        with pytest.raises(TypeError):
            phi.add_incoming(ConstantInt(I64, 1), b1)

    def test_set_incoming_block(self, module):
        func = Function(FunctionType(I32, []), "f", parent=module)
        b1, b2 = BasicBlock("b1", func), BasicBlock("b2", func)
        phi = Phi(I32)
        phi.add_incoming(UndefValue(I32), b1)
        phi.set_incoming_block(b1, b2)
        assert phi.incoming_for(b2) is not None

    def test_remove_missing_incoming_raises(self, module):
        func = Function(FunctionType(I32, []), "f", parent=module)
        b1 = BasicBlock("b1", func)
        phi = Phi(I32)
        with pytest.raises(ValueError):
            phi.remove_incoming(b1)


#: The one instruction class of each opcode.
OPCODE_CLASSES = {
    BinaryOp: BINARY_OPCODES,
    Cast: CAST_OPCODES,
    ICmp: {Opcode.ICMP},
    FCmp: {Opcode.FCMP},
    Select: {Opcode.SELECT},
    Alloca: {Opcode.ALLOCA},
    Load: {Opcode.LOAD},
    Store: {Opcode.STORE},
    GetElementPtr: {Opcode.GEP},
    Call: {Opcode.CALL},
    Invoke: {Opcode.INVOKE},
    Phi: {Opcode.PHI},
    Branch: {Opcode.BR},
    Switch: {Opcode.SWITCH},
    Ret: {Opcode.RET},
    Unreachable: {Opcode.UNREACHABLE},
}


class TestPredicates:
    def test_every_opcode_has_exactly_one_class(self):
        assert set(OPCODE_CLASSES) == set(Instruction.__subclasses__())
        owned = [op for ops in OPCODE_CLASSES.values() for op in ops]
        assert sorted(owned) == sorted(Opcode)

    def test_class_attributes_agree_with_opcodes(self):
        for cls, opcodes in OPCODE_CLASSES.items():
            for opcode in opcodes:
                inst = blank_instruction(cls, opcode, VOID)
                assert inst.is_terminator == (opcode in TERMINATOR_OPCODES), opcode
                assert inst.is_phi == (opcode == Opcode.PHI), opcode
