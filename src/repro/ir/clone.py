"""Function and module cloning with value remapping.

Used by the merged-code generator to copy instructions from the two input
functions into the merged function, by the workload mutation engine to
derive "similar" function variants, by the serve daemon to take deltas into
its corpus, and by the daemon's corpus merges to copy the whole corpus into
a private request module (:func:`clone_module`).
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
from .values import Constant, ConstantFloat, ConstantInt, ConstantNull, UndefValue, Value

__all__ = [
    "blank_instruction",
    "clone_detached",
    "clone_instruction",
    "clone_function_into",
    "clone_function",
    "clone_module",
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
    cloned = []
    for block in source.blocks:
        new_block: BasicBlock = vmap[id(block)]  # type: ignore[assignment]
        for inst in block.instructions:
            new = clone_instruction(inst, vmap)
            new_block.append(new)
            cloned.append((inst, new))
    # An operand can name an instruction cloned *after* its user: a phi's
    # back-edge value, or any value defined in a block that comes later in
    # the list but dominates the user.  Remap them now that the value map is
    # complete.
    for original, new in cloned:
        ops = new._operands
        for idx, op in enumerate(original._operands):
            mapped = vmap.get(id(op))
            if mapped is not None and ops[idx] is not mapped:
                new.set_operand(idx, mapped)
    return vmap


def clone_function(source: Function, name: str, module: Optional[Module] = None) -> Function:
    """Create a fresh copy of *source* named *name* (in *module* if given)."""
    dest = Function(source.ftype, name, parent=module, internal=source.internal)
    for src_arg, dst_arg in zip(source.args, dest.args):
        dst_arg.name = src_arg.name
    clone_function_into(source, dest)
    return dest


#: A fresh copy of each constant class, made through its constructor as the
#: parser makes it.
_FRESH_CONSTANT = {
    ConstantInt: lambda c: ConstantInt(c.type, c.value),
    ConstantFloat: lambda c: ConstantFloat(c.type, c.value),
    ConstantNull: lambda c: ConstantNull(c.type),
    UndefValue: lambda c: UndefValue(c.type),
}


def clone_module(module: Module, name: str = "module") -> Module:
    """A copy of *module* equal to ``parse_module(print_module(module),
    name)`` in everything merging observes, built without text.

    * The same functions in the same order.  Linkage and argument names are
      the ones the text keeps: a definition is internal and keeps its
      argument names, a declaration is external with ``arg<i>`` names.
    * The same blocks and instructions with the same names, and one fresh
      constant per operand, shared with nothing.
    * The same use order for every value.  Functions and arguments list
      their uses in text order.  A block or an instruction lists its uses
      at or after its definition in text order, then the ones before it
      (phi back edges, branches to a later label, a phi's use of itself),
      which the parser resolves once the function's body is read.

    Raises :class:`ValueError` for an operand that is neither a constant,
    a function of *module* nor a value of the function that uses it; the
    text of such a module would not parse back to the same operand.
    """
    dest = Module(name)
    functions: ValueMap = {}
    bodies = []
    for func in module.functions:
        defined = bool(func.blocks)
        new_func = Function(func.ftype, func.name, parent=dest, internal=defined)
        functions[id(func)] = new_func
        if defined:
            for src_arg, dst_arg in zip(func.args, new_func.args):
                dst_arg.name = src_arg.name
            bodies.append((func, new_func))
    fresh_constant = _FRESH_CONSTANT
    for func, new_func in bodies:
        # The function's values defined so far in text order.
        local: ValueMap = {id(a): b for a, b in zip(func.args, new_func.args)}
        # (user, slot, original) for every operand defined later in the text.
        forward = []
        for block in func.blocks:
            new_block = BasicBlock(block.name, new_func)
            local[id(block)] = new_block
            insts = new_block.instructions
            for inst in block.instructions:
                new = clone_detached(inst)
                ops = new._operands
                for slot, op in enumerate(inst._operands):
                    mapped = local.get(id(op))
                    if mapped is None:
                        mapped = functions.get(id(op))
                        if mapped is None:
                            if not isinstance(op, Constant):
                                forward.append((new, slot, op))
                                ops.append(op)
                                continue
                            mapped = fresh_constant[op.__class__](op)
                    mapped._uses.setdefault(new, []).append(slot)
                    ops.append(mapped)
                new.parent = new_block
                insts.append(new)
                local[id(inst)] = new
        for user, slot, op in forward:
            mapped = local.get(id(op))
            if mapped is None:
                raise ValueError(
                    f"@{func.name}: operand {op.ref()} is not a value of the "
                    "function or a function of the module"
                )
            user._operands[slot] = mapped
            mapped._uses.setdefault(user, []).append(slot)
    return dest
