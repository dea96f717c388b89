"""Instruction set of the repro IR.

A deliberately LLVM-shaped instruction set: binary arithmetic, comparisons,
memory (``alloca``/``load``/``store``/``gep``), casts, ``phi``/``select``,
calls (including ``invoke``, needed to reproduce the second SSA-repair bug of
F3M Section III-E) and control flow.

Opcodes carry **stable integer codes** (:class:`Opcode`) because the paper's
instruction encoding packs the opcode number into the fingerprint; stability
across runs keeps MinHash fingerprints deterministic.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from .types import (
    ArrayType,
    FloatType,
    FunctionType,
    IntType,
    PointerType,
    StructType,
    Type,
    VOID,
    I1,
    I64,
)
from .values import ConstantInt, User, Value

if TYPE_CHECKING:  # pragma: no cover
    from .basicblock import BasicBlock
    from .function import Function

__all__ = [
    "Opcode",
    "ICmpPred",
    "FCmpPred",
    "Instruction",
    "BinaryOp",
    "ICmp",
    "FCmp",
    "Select",
    "Cast",
    "Alloca",
    "Load",
    "Store",
    "GetElementPtr",
    "Call",
    "Invoke",
    "Phi",
    "Branch",
    "Switch",
    "Ret",
    "Unreachable",
    "BINARY_OPCODES",
    "CAST_OPCODES",
    "TERMINATOR_OPCODES",
]


class Opcode(enum.IntEnum):
    """Stable opcode numbering (mirrors LLVM's ``Instruction::getOpcode``)."""

    # terminators
    RET = 1
    BR = 2
    SWITCH = 3
    INVOKE = 4
    UNREACHABLE = 5
    # integer binary
    ADD = 10
    SUB = 11
    MUL = 12
    SDIV = 13
    UDIV = 14
    SREM = 15
    UREM = 16
    # float binary
    FADD = 17
    FSUB = 18
    FMUL = 19
    FDIV = 20
    FREM = 21
    # bitwise binary
    SHL = 22
    LSHR = 23
    ASHR = 24
    AND = 25
    OR = 26
    XOR = 27
    # memory
    ALLOCA = 30
    LOAD = 31
    STORE = 32
    GEP = 33
    # casts
    TRUNC = 38
    ZEXT = 39
    SEXT = 40
    FPTRUNC = 41
    FPEXT = 42
    FPTOSI = 43
    SITOFP = 44
    PTRTOINT = 45
    INTTOPTR = 46
    BITCAST = 47
    # other
    ICMP = 53
    FCMP = 54
    PHI = 55
    CALL = 56
    SELECT = 57


BINARY_OPCODES = frozenset(
    {
        Opcode.ADD,
        Opcode.SUB,
        Opcode.MUL,
        Opcode.SDIV,
        Opcode.UDIV,
        Opcode.SREM,
        Opcode.UREM,
        Opcode.FADD,
        Opcode.FSUB,
        Opcode.FMUL,
        Opcode.FDIV,
        Opcode.FREM,
        Opcode.SHL,
        Opcode.LSHR,
        Opcode.ASHR,
        Opcode.AND,
        Opcode.OR,
        Opcode.XOR,
    }
)

CAST_OPCODES = frozenset(
    {
        Opcode.TRUNC,
        Opcode.ZEXT,
        Opcode.SEXT,
        Opcode.FPTRUNC,
        Opcode.FPEXT,
        Opcode.FPTOSI,
        Opcode.SITOFP,
        Opcode.PTRTOINT,
        Opcode.INTTOPTR,
        Opcode.BITCAST,
    }
)

TERMINATOR_OPCODES = frozenset(
    {Opcode.RET, Opcode.BR, Opcode.SWITCH, Opcode.INVOKE, Opcode.UNREACHABLE}
)

_COMMUTATIVE = frozenset(
    {
        Opcode.ADD,
        Opcode.MUL,
        Opcode.FADD,
        Opcode.FMUL,
        Opcode.AND,
        Opcode.OR,
        Opcode.XOR,
    }
)

_FLOAT_BINARY = frozenset(
    {Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV, Opcode.FREM}
)


class ICmpPred(enum.IntEnum):
    EQ = 32
    NE = 33
    UGT = 34
    UGE = 35
    ULT = 36
    ULE = 37
    SGT = 38
    SGE = 39
    SLT = 40
    SLE = 41


class FCmpPred(enum.IntEnum):
    OEQ = 1
    OGT = 2
    OGE = 3
    OLT = 4
    OLE = 5
    ONE = 6
    ORD = 7
    UNO = 8
    UEQ = 9
    UNE = 14


class Instruction(User):
    """Base class of all instructions.

    An instruction is also a :class:`Value` (its result).  ``parent`` is the
    owning :class:`BasicBlock`, maintained by the block's insertion API.
    """

    __slots__ = ("opcode", "parent")

    #: Each opcode has exactly one class, so these hot predicates are plain
    #: class attributes: ``Phi`` sets ``is_phi`` and the five terminator
    #: classes set ``is_terminator``.
    is_phi = False
    is_terminator = False

    def __init__(self, opcode: Opcode, type_: Type, operands: Sequence[Value], name: str = "") -> None:
        super().__init__(type_, name)
        self.opcode = opcode
        self.parent: Optional["BasicBlock"] = None
        for op in operands:
            self._append_operand(op)

    # -- classification ----------------------------------------------------------
    @property
    def is_binary(self) -> bool:
        return self.opcode in BINARY_OPCODES

    @property
    def is_cast(self) -> bool:
        return self.opcode in CAST_OPCODES

    @property
    def is_commutative(self) -> bool:
        return self.opcode in _COMMUTATIVE

    def may_write_memory(self) -> bool:
        return self.opcode in (Opcode.STORE, Opcode.CALL, Opcode.INVOKE)

    def may_read_memory(self) -> bool:
        return self.opcode in (Opcode.LOAD, Opcode.CALL, Opcode.INVOKE)

    def has_side_effects(self) -> bool:
        return self.may_write_memory() or self.is_terminator

    # -- CFG ---------------------------------------------------------------------
    def successors(self) -> List["BasicBlock"]:
        """Successor blocks (non-empty only for terminators)."""
        return []

    @property
    def function(self) -> Optional["Function"]:
        return self.parent.parent if self.parent is not None else None

    # -- mutation ----------------------------------------------------------------
    def erase_from_parent(self) -> None:
        """Remove from the owning block and drop operand references."""
        if self.parent is not None:
            self.parent.remove(self)
        self.drop_all_references()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from .printer import format_instruction

        try:
            return f"<{format_instruction(self)}>"
        except Exception:
            return f"<Instruction {self.opcode.name}>"


class BinaryOp(Instruction):
    __slots__ = ()

    def __init__(self, opcode: Opcode, lhs: Value, rhs: Value, name: str = "") -> None:
        if opcode not in BINARY_OPCODES:
            raise ValueError(f"{opcode!r} is not a binary opcode")
        if lhs.type is not rhs.type:
            raise TypeError(f"binary operand type mismatch: {lhs.type} vs {rhs.type}")
        if opcode in _FLOAT_BINARY:
            if not lhs.type.is_float:
                raise TypeError(f"{opcode.name} requires float operands, got {lhs.type}")
        elif not lhs.type.is_int:
            raise TypeError(f"{opcode.name} requires integer operands, got {lhs.type}")
        super().__init__(opcode, lhs.type, [lhs, rhs], name)

    @property
    def lhs(self) -> Value:
        return self.operand(0)

    @property
    def rhs(self) -> Value:
        return self.operand(1)


class ICmp(Instruction):
    __slots__ = ("pred",)

    def __init__(self, pred: ICmpPred, lhs: Value, rhs: Value, name: str = "") -> None:
        if lhs.type is not rhs.type:
            raise TypeError(f"icmp operand type mismatch: {lhs.type} vs {rhs.type}")
        if not (lhs.type.is_int or lhs.type.is_pointer):
            raise TypeError(f"icmp requires int or pointer operands, got {lhs.type}")
        super().__init__(Opcode.ICMP, I1, [lhs, rhs], name)
        self.pred = pred


class FCmp(Instruction):
    __slots__ = ("pred",)

    def __init__(self, pred: FCmpPred, lhs: Value, rhs: Value, name: str = "") -> None:
        if lhs.type is not rhs.type:
            raise TypeError(f"fcmp operand type mismatch: {lhs.type} vs {rhs.type}")
        if not lhs.type.is_float:
            raise TypeError(f"fcmp requires float operands, got {lhs.type}")
        super().__init__(Opcode.FCMP, I1, [lhs, rhs], name)
        self.pred = pred


class Select(Instruction):
    __slots__ = ()

    def __init__(self, cond: Value, if_true: Value, if_false: Value, name: str = "") -> None:
        if cond.type is not I1:
            raise TypeError(f"select condition must be i1, got {cond.type}")
        if if_true.type is not if_false.type:
            raise TypeError(
                f"select arm type mismatch: {if_true.type} vs {if_false.type}"
            )
        super().__init__(Opcode.SELECT, if_true.type, [cond, if_true, if_false], name)

    @property
    def condition(self) -> Value:
        return self.operand(0)

    @property
    def true_value(self) -> Value:
        return self.operand(1)

    @property
    def false_value(self) -> Value:
        return self.operand(2)


_CAST_NAMES = {
    Opcode.TRUNC: "trunc",
    Opcode.ZEXT: "zext",
    Opcode.SEXT: "sext",
    Opcode.FPTRUNC: "fptrunc",
    Opcode.FPEXT: "fpext",
    Opcode.FPTOSI: "fptosi",
    Opcode.SITOFP: "sitofp",
    Opcode.PTRTOINT: "ptrtoint",
    Opcode.INTTOPTR: "inttoptr",
    Opcode.BITCAST: "bitcast",
}


def _check_cast(opcode: Opcode, src: Type, dst: Type) -> None:
    ok = True
    if opcode == Opcode.TRUNC:
        ok = src.is_int and dst.is_int and src.bits > dst.bits  # type: ignore[attr-defined]
    elif opcode in (Opcode.ZEXT, Opcode.SEXT):
        ok = src.is_int and dst.is_int and src.bits < dst.bits  # type: ignore[attr-defined]
    elif opcode == Opcode.FPTRUNC:
        ok = src.is_float and dst.is_float and src.bits > dst.bits  # type: ignore[attr-defined]
    elif opcode == Opcode.FPEXT:
        ok = src.is_float and dst.is_float and src.bits < dst.bits  # type: ignore[attr-defined]
    elif opcode == Opcode.FPTOSI:
        ok = src.is_float and dst.is_int
    elif opcode == Opcode.SITOFP:
        ok = src.is_int and dst.is_float
    elif opcode == Opcode.PTRTOINT:
        ok = src.is_pointer and dst.is_int
    elif opcode == Opcode.INTTOPTR:
        ok = src.is_int and dst.is_pointer
    elif opcode == Opcode.BITCAST:
        ok = (src.is_pointer and dst.is_pointer) or (
            src.is_int and dst.is_float and src.bits == dst.bits  # type: ignore[attr-defined]
        ) or (
            src.is_float and dst.is_int and src.bits == dst.bits  # type: ignore[attr-defined]
        )
    if not ok:
        raise TypeError(f"invalid {_CAST_NAMES[opcode]} from {src} to {dst}")


class Cast(Instruction):
    __slots__ = ()

    def __init__(self, opcode: Opcode, value: Value, dest_type: Type, name: str = "") -> None:
        if opcode not in CAST_OPCODES:
            raise ValueError(f"{opcode!r} is not a cast opcode")
        _check_cast(opcode, value.type, dest_type)
        super().__init__(opcode, dest_type, [value], name)

    @property
    def value(self) -> Value:
        return self.operand(0)


class Alloca(Instruction):
    """Stack allocation; yields a pointer to ``allocated_type``."""

    __slots__ = ("allocated_type",)

    def __init__(self, allocated_type: Type, name: str = "") -> None:
        if not allocated_type.is_first_class:
            raise TypeError(f"cannot allocate {allocated_type}")
        super().__init__(Opcode.ALLOCA, PointerType(allocated_type), [], name)
        self.allocated_type = allocated_type


class Load(Instruction):
    __slots__ = ()

    def __init__(self, pointer: Value, name: str = "") -> None:
        if not pointer.type.is_pointer:
            raise TypeError(f"load requires a pointer operand, got {pointer.type}")
        super().__init__(Opcode.LOAD, pointer.type.pointee, [pointer], name)  # type: ignore[attr-defined]

    @property
    def pointer(self) -> Value:
        return self.operand(0)


class Store(Instruction):
    __slots__ = ()

    def __init__(self, value: Value, pointer: Value) -> None:
        if not pointer.type.is_pointer:
            raise TypeError(f"store requires a pointer operand, got {pointer.type}")
        if pointer.type.pointee is not value.type:  # type: ignore[attr-defined]
            raise TypeError(
                f"store type mismatch: {value.type} into {pointer.type}"
            )
        super().__init__(Opcode.STORE, VOID, [value, pointer])

    @property
    def value(self) -> Value:
        return self.operand(0)

    @property
    def pointer(self) -> Value:
        return self.operand(1)


def gep_result_type(base: Type, indices: Sequence[Value]) -> Type:
    """Resolve the pointee type reached by a GEP index list."""
    if not base.is_pointer:
        raise TypeError(f"gep base must be a pointer, got {base}")
    current: Type = base.pointee  # type: ignore[attr-defined]
    for idx in indices[1:]:
        if isinstance(current, ArrayType):
            current = current.element
        elif isinstance(current, StructType):
            if not isinstance(idx, ConstantInt):
                raise TypeError("struct gep index must be a constant integer")
            field = idx.value
            if field >= len(current.fields):
                raise TypeError(f"struct index {field} out of range for {current}")
            current = current.fields[field]
        else:
            raise TypeError(f"cannot index into {current}")
    return PointerType(current)


class GetElementPtr(Instruction):
    __slots__ = ()

    def __init__(self, pointer: Value, indices: Sequence[Value], name: str = "") -> None:
        for idx in indices:
            if not idx.type.is_int:
                raise TypeError(f"gep index must be an integer, got {idx.type}")
        result = gep_result_type(pointer.type, list(indices))
        super().__init__(Opcode.GEP, result, [pointer] + list(indices), name)

    @property
    def pointer(self) -> Value:
        return self.operand(0)

    @property
    def indices(self) -> Tuple[Value, ...]:
        return self.operands[1:]


def _check_call(callee: Value, args: Sequence[Value]) -> Type:
    ftype = callee.type
    if ftype.is_pointer:
        ftype = ftype.pointee  # type: ignore[attr-defined]
    if not isinstance(ftype, FunctionType):
        raise TypeError(f"callee is not a function: {callee.type}")
    if len(args) != len(ftype.params):
        raise TypeError(
            f"call expects {len(ftype.params)} arguments, got {len(args)}"
        )
    for i, (arg, param) in enumerate(zip(args, ftype.params)):
        if arg.type is not param:
            raise TypeError(f"call argument {i} type mismatch: {arg.type} vs {param}")
    return ftype.ret


class Call(Instruction):
    __slots__ = ()

    def __init__(self, callee: Value, args: Sequence[Value], name: str = "") -> None:
        ret = _check_call(callee, args)
        super().__init__(Opcode.CALL, ret, [callee] + list(args), name)

    @property
    def callee(self) -> Value:
        return self.operand(0)

    @property
    def args(self) -> Tuple[Value, ...]:
        return self.operands[1:]


class Invoke(Instruction):
    """Call with exceptional control flow; a terminator.

    Operand layout: ``[callee, arg..., normal_dest, unwind_dest]``.
    """

    __slots__ = ()
    is_terminator = True

    def __init__(
        self,
        callee: Value,
        args: Sequence[Value],
        normal_dest: "BasicBlock",
        unwind_dest: "BasicBlock",
        name: str = "",
    ) -> None:
        ret = _check_call(callee, args)
        super().__init__(
            Opcode.INVOKE, ret, [callee] + list(args) + [normal_dest, unwind_dest], name
        )

    @property
    def callee(self) -> Value:
        return self.operand(0)

    @property
    def args(self) -> Tuple[Value, ...]:
        return self.operands[1:-2]

    @property
    def normal_dest(self) -> "BasicBlock":
        return self.operand(self.num_operands - 2)  # type: ignore[return-value]

    @property
    def unwind_dest(self) -> "BasicBlock":
        return self.operand(self.num_operands - 1)  # type: ignore[return-value]

    def successors(self) -> List["BasicBlock"]:
        ops = self._operands
        return [ops[-2], ops[-1]]  # type: ignore[list-item]


class Phi(Instruction):
    """SSA phi node; operands alternate ``[value0, block0, value1, block1, ...]``."""

    __slots__ = ()
    is_phi = True

    def __init__(self, type_: Type, name: str = "") -> None:
        super().__init__(Opcode.PHI, type_, [], name)

    def add_incoming(self, value: Value, block: "BasicBlock") -> None:
        if value.type is not self.type:
            raise TypeError(f"phi incoming type mismatch: {value.type} vs {self.type}")
        self._append_operand(value)
        self._append_operand(block)

    @property
    def incoming(self) -> List[Tuple[Value, "BasicBlock"]]:
        ops = self._operands
        return [(ops[i], ops[i + 1]) for i in range(0, len(ops), 2)]  # type: ignore[list-item]

    def incoming_for(self, block: "BasicBlock") -> Optional[Value]:
        for value, pred in self.incoming:
            if pred is block:
                return value
        return None

    def remove_incoming(self, block: "BasicBlock") -> None:
        for i in range(0, len(self._operands), 2):
            if self._operands[i + 1] is block:
                self._pop_operand(i + 1)
                self._pop_operand(i)
                return
        raise ValueError(f"block {block.name} is not an incoming edge")

    def set_incoming_block(self, old: "BasicBlock", new: "BasicBlock") -> None:
        for i in range(1, len(self._operands), 2):
            if self._operands[i] is old:
                self.set_operand(i, new)  # type: ignore[arg-type]


class Branch(Instruction):
    """Conditional (``br i1 c, T, F``) or unconditional (``br T``) branch."""

    __slots__ = ()
    is_terminator = True

    def __init__(
        self,
        target_or_cond,
        if_true: Optional["BasicBlock"] = None,
        if_false: Optional["BasicBlock"] = None,
    ) -> None:
        if if_true is None:
            super().__init__(Opcode.BR, VOID, [target_or_cond])
        else:
            cond = target_or_cond
            if cond.type is not I1:
                raise TypeError(f"branch condition must be i1, got {cond.type}")
            if if_false is None:
                raise ValueError("conditional branch requires a false target")
            super().__init__(Opcode.BR, VOID, [cond, if_true, if_false])

    @property
    def is_conditional(self) -> bool:
        return self.num_operands == 3

    @property
    def condition(self) -> Value:
        if not self.is_conditional:
            raise ValueError("unconditional branch has no condition")
        return self.operand(0)

    def successors(self) -> List["BasicBlock"]:
        ops = self._operands
        if len(ops) == 3:
            return [ops[1], ops[2]]  # type: ignore[list-item]
        return [ops[0]]  # type: ignore[list-item]


class Switch(Instruction):
    """``switch`` on an integer value.

    Operand layout: ``[value, default, const0, block0, const1, block1, ...]``.
    """

    __slots__ = ()
    is_terminator = True

    def __init__(self, value: Value, default: "BasicBlock") -> None:
        if not value.type.is_int:
            raise TypeError(f"switch requires an integer value, got {value.type}")
        super().__init__(Opcode.SWITCH, VOID, [value, default])

    def add_case(self, const: ConstantInt, block: "BasicBlock") -> None:
        if const.type is not self.operand(0).type:
            raise TypeError("switch case type mismatch")
        self._append_operand(const)
        self._append_operand(block)

    @property
    def value(self) -> Value:
        return self.operand(0)

    @property
    def default(self) -> "BasicBlock":
        return self.operand(1)  # type: ignore[return-value]

    @property
    def cases(self) -> List[Tuple[ConstantInt, "BasicBlock"]]:
        ops = self._operands
        return [(ops[i], ops[i + 1]) for i in range(2, len(ops), 2)]  # type: ignore[list-item]

    def successors(self) -> List["BasicBlock"]:
        ops = self._operands
        return [ops[1], *ops[3::2]]  # type: ignore[list-item]


class Ret(Instruction):
    __slots__ = ()
    is_terminator = True

    def __init__(self, value: Optional[Value] = None) -> None:
        super().__init__(Opcode.RET, VOID, [] if value is None else [value])

    @property
    def value(self) -> Optional[Value]:
        return self.operand(0) if self.num_operands else None

    def successors(self) -> List["BasicBlock"]:
        return []


class Unreachable(Instruction):
    __slots__ = ()
    is_terminator = True

    def __init__(self) -> None:
        super().__init__(Opcode.UNREACHABLE, VOID, [])
