"""Function cloning with value remapping.

Used by the merged-code generator to copy instructions from the two input
functions into the merged function, and by the workload mutation engine to
derive "similar" function variants.
"""

from __future__ import annotations

from typing import Dict, Optional

from .basicblock import BasicBlock
from .function import Function
from .instructions import (
    Alloca,
    BinaryOp,
    Branch,
    Call,
    Cast,
    FCmp,
    GetElementPtr,
    ICmp,
    Instruction,
    Invoke,
    Load,
    Opcode,
    Phi,
    Ret,
    Select,
    Store,
    Switch,
    Unreachable,
)
from .module import Module
from .types import FunctionType, Type
from .values import Value

__all__ = [
    "blank_instruction",
    "clone_detached",
    "clone_instruction",
    "clone_function_into",
    "clone_function",
]

ValueMap = Dict[int, Value]


def _mapped(value: Value, vmap: ValueMap) -> Value:
    return vmap.get(id(value), value)


def clone_instruction(inst: Instruction, vmap: ValueMap) -> Instruction:
    """Clone *inst*, remapping operands through *vmap* (identity fallback).

    Phi nodes are cloned with remapped incoming values/blocks; callers that
    clone whole CFGs should populate block mappings in *vmap* first.
    """
    ops = [_mapped(op, vmap) for op in inst.operands]
    new: Instruction
    if isinstance(inst, BinaryOp):
        new = BinaryOp(inst.opcode, ops[0], ops[1])
    elif isinstance(inst, ICmp):
        new = ICmp(inst.pred, ops[0], ops[1])
    elif isinstance(inst, FCmp):
        new = FCmp(inst.pred, ops[0], ops[1])
    elif isinstance(inst, Select):
        new = Select(ops[0], ops[1], ops[2])
    elif isinstance(inst, Cast):
        new = Cast(inst.opcode, ops[0], inst.type)
    elif isinstance(inst, Alloca):
        new = Alloca(inst.allocated_type)
    elif isinstance(inst, Load):
        new = Load(ops[0])
    elif isinstance(inst, Store):
        new = Store(ops[0], ops[1])
    elif isinstance(inst, GetElementPtr):
        new = GetElementPtr(ops[0], ops[1:])
    elif isinstance(inst, Call):
        new = Call(ops[0], ops[1:])
    elif isinstance(inst, Invoke):
        new = Invoke(ops[0], ops[1:-2], ops[-2], ops[-1])  # type: ignore[arg-type]
    elif isinstance(inst, Phi):
        new = Phi(inst.type)
        for i in range(0, len(ops), 2):
            new.add_incoming(ops[i], ops[i + 1])  # type: ignore[arg-type]
    elif isinstance(inst, Branch):
        if inst.is_conditional:
            new = Branch(ops[0], ops[1], ops[2])  # type: ignore[arg-type]
        else:
            new = Branch(ops[0])
    elif isinstance(inst, Switch):
        new = Switch(ops[0], ops[1])  # type: ignore[arg-type]
        for i in range(2, len(ops), 2):
            new.add_case(ops[i], ops[i + 1])  # type: ignore[arg-type]
    elif isinstance(inst, Ret):
        new = Ret(ops[0] if ops else None)
    elif isinstance(inst, Unreachable):
        new = Unreachable()
    else:  # pragma: no cover - exhaustive above
        raise NotImplementedError(f"cannot clone {inst.opcode!r}")
    new.name = inst.name
    vmap[id(inst)] = new
    return new


def blank_instruction(cls: type, opcode: Opcode, type_: Type, name: str = "") -> Instruction:
    """An instruction of class *cls* with no operands and no parent, made
    without the class's operand checks; the caller appends its operands
    and registers their uses."""
    new = cls.__new__(cls)
    Instruction.__init__(new, opcode, type_, (), name)
    return new


def clone_detached(inst: Instruction) -> Instruction:
    """*inst*'s class, opcode, type, name and predicate or allocated type,
    with no operands and no parent (see :func:`blank_instruction`)."""
    new = blank_instruction(inst.__class__, inst.opcode, inst.type, inst.name)
    if isinstance(inst, (ICmp, FCmp)):
        new.pred = inst.pred  # type: ignore[attr-defined]
    elif isinstance(inst, Alloca):
        new.allocated_type = inst.allocated_type  # type: ignore[attr-defined]
    return new


def clone_function_into(source: Function, dest: Function, vmap: Optional[ValueMap] = None) -> ValueMap:
    """Clone the body of *source* into the empty function *dest*.

    *vmap* may pre-map source arguments to destination values (used by the
    merger to route merged parameters).  Unmapped arguments map positionally.
    """
    if dest.blocks:
        raise ValueError("destination function must be empty")
    vmap = dict(vmap) if vmap else {}
    for i, arg in enumerate(source.args):
        if id(arg) not in vmap:
            if i >= len(dest.args):
                raise ValueError("destination has fewer parameters than source")
            vmap[id(arg)] = dest.args[i]
    # Blocks first so branches/phis can forward-reference.
    for block in source.blocks:
        vmap[id(block)] = BasicBlock(block.name, dest)
    cloned_phis = []
    for block in source.blocks:
        new_block: BasicBlock = vmap[id(block)]  # type: ignore[assignment]
        for inst in block.instructions:
            new = clone_instruction(inst, vmap)
            new_block.append(new)
            if inst.is_phi:
                cloned_phis.append((inst, new))
    # Phi incoming values can be back-edge references to instructions cloned
    # *after* the phi; remap them now that the value map is complete.
    for original, new in cloned_phis:
        for idx, op in enumerate(original.operands):
            mapped = vmap.get(id(op))
            if mapped is not None and new.operand(idx) is not mapped:
                new.set_operand(idx, mapped)
    return vmap


def clone_function(source: Function, name: str, module: Optional[Module] = None) -> Function:
    """Create a fresh copy of *source* named *name* (in *module* if given)."""
    dest = Function(source.ftype, name, parent=module, internal=source.internal)
    for src_arg, dst_arg in zip(source.args, dest.args):
        dst_arg.name = src_arg.name
    clone_function_into(source, dest)
    return dest
