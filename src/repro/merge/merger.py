"""Merged-function code generation (the HyFM/SalSSA backend reused by F3M).

Given two functions and a block-level alignment, emit one merged function:

* a fresh ``i1`` *function identifier* parameter selects between the two
  original behaviours (0 → first function, 1 → second);
* parameters of the originals are merged by type so compatible parameters
  share one slot;
* shared (aligned) instructions are emitted once, with ``select`` resolving
  operands that differ between the two originals;
* private instruction runs are placed in blocks guarded by a conditional
  branch on the function identifier;
* terminators merge when both functions branch to correspondingly-paired
  blocks, otherwise each function keeps its own guarded terminator.

Every decision comes from the alignment's
:class:`~repro.merge.layout.BlockLayout` and its
:class:`~repro.merge.layout.MergePlan`, which the profitability bound
prices before codegen: the blocks, where each original block is entered
and left, every merged instruction's block and originals, and which
operand slots need a select.  The merger emits that plan: it creates the
blocks, clones each planned instruction once with its block operands, then
sets the value operands in plan order.  Dominance violations introduced by
sharing are fixed afterwards by :mod:`repro.merge.ssa_repair`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..alignment.model import FunctionAlignment
from ..ir.basicblock import BasicBlock
from ..ir.clone import blank_instruction, clone_detached
from ..ir.function import Function
from ..ir.instructions import Branch, Instruction, Opcode, Phi, Select
from ..ir.module import Module
from ..ir.types import FunctionType
from ..ir.values import UndefValue, Value
from ..obs import trace
from .errors import MergeError
from .layout import BlockLayout, MergePlan
from .ssa_repair import repair_ssa

__all__ = ["MergeOptions", "MergeResult", "merge_functions"]


@dataclass(frozen=True)
class MergeOptions:
    """Code-generation knobs.

    ``legacy_bugs`` re-enables the two HyFM SSA-repair bugs documented in
    paper Section III-E (for the bug-effect experiment); the default is the
    fixed behaviour.
    """

    legacy_bugs: bool = False


@dataclass
class MergeResult:
    """The merged function plus the bookkeeping thunk generation needs."""

    merged: Function
    function_a: Function
    function_b: Function
    # Original argument index -> merged argument index (incl. the id at 0).
    param_map_a: List[int] = field(default_factory=list)
    param_map_b: List[int] = field(default_factory=list)
    num_selects: int = 0
    num_shared: int = 0
    num_private: int = 0
    repairs: int = 0


def _layout_branches(
    layout: BlockLayout, blocks: List[BasicBlock], fid: Value
) -> List[Tuple[BasicBlock, Branch]]:
    """The branches the layout adds, each with the block it ends: per
    split segment the branches to its join and its guard, then the guards
    of unshared terminators, then the dispatch branch."""
    branches: List[Tuple[BasicBlock, Branch]] = []
    for pair in layout.pairs:
        current = pair.head
        for join, left, right in pair.splits:
            to_join = blocks[join]
            if left >= 0:
                branches.append((blocks[left], Branch(to_join)))
            if right >= 0:
                branches.append((blocks[right], Branch(to_join)))
            if left < 0 and right < 0:
                guard = Branch(to_join)
            else:
                guard = Branch(fid, blocks[right if right >= 0 else join], blocks[left if left >= 0 else join])
            branches.append((blocks[current], guard))
            current = join
    for pair in layout.pairs:
        if not pair.shared_terminator:
            guard = Branch(fid, blocks[pair.term_b], blocks[pair.term_a])
            branches.append((blocks[pair.tail], guard))
    alignment = layout.alignment
    start_a = blocks[layout.entry_a[id(alignment.function_a.entry)]]  # type: ignore[union-attr]
    start_b = blocks[layout.entry_b[id(alignment.function_b.entry)]]  # type: ignore[union-attr]
    dispatch = Branch(start_a) if start_a is start_b else Branch(fid, start_b, start_a)
    branches.append((blocks[0], dispatch))
    return branches


def _emit(plan: MergePlan, merged: Function) -> None:
    """Build *merged*'s body from *plan*.

    Every value gains its uses in one fixed order, which SSA repair's
    reload names and the phis' extra incomings depend on: the layout's
    branches first, then each node's block, constant and function operands
    in plan order, then its instruction and argument operands in plan
    order, each select right before the slot it feeds, and phi incomings
    last.
    """
    layout = plan.layout
    args = merged.args
    fid = args[0]
    blocks = [BasicBlock(name, merged) for name in layout.block_names()]
    branches = _layout_branches(layout, blocks, fid)
    selects = plan.selects
    # (where, entries, exits) of side A, then of side B.
    sides = ((plan.where_a, layout.entry_a, layout.exit_a), (plan.where_b, layout.entry_b, layout.exit_b))
    values: List[Instruction] = []

    def value(ref: object) -> Value:
        if ref.__class__ is not int:
            return ref  # type: ignore[return-value]
        return values[ref] if ref >= 0 else args[-ref]  # type: ignore[operator,index]

    # Clone each node once, into its block.  Value operands keep the
    # original's until they are set below; only their uses are missing.
    shells: List[Instruction] = []
    for node, (a, b, index) in enumerate(zip(plan.source_a, plan.source_b, plan.block_of)):
        source: Instruction = a if a is not None else b  # type: ignore[assignment]
        where, entries, _exits = sides[a is None]
        new = clone_detached(source)
        values.append(new)
        block = blocks[index]
        if new.__class__ is not Phi:
            ops = new._operands = list(source._operands)
            slots = [idx for idx, _ref_a, _ref_b in selects.get(node, ())]
            for idx, op in enumerate(ops):
                if op.__class__ is BasicBlock:
                    op = ops[idx] = blocks[entries[id(op)]]
                    op._add_use(new, idx)
                elif id(op) not in where and idx not in slots:
                    op._add_use(new, idx)
            for idx in slots:
                shell = blank_instruction(Select, Opcode.SELECT, ops[idx].type)
                shell.parent = block
                block.instructions.append(shell)
                shells.append(shell)
        new.parent = block
        block.instructions.append(new)
    for block, branch in branches:
        branch.parent = block
        block.instructions.append(branch)

    # Set the value operands in plan order.
    namer = merged.namer()
    next_shell = iter(shells).__next__
    for node, (a, b) in enumerate(zip(plan.source_a, plan.source_b)):
        source = a if a is not None else b  # type: ignore[assignment]
        if source.__class__ is Phi:
            continue
        where = sides[a is None][0]
        new = values[node]
        pending = {idx: (ref_a, ref_b) for idx, ref_a, ref_b in selects.get(node, ())}
        for idx, op in enumerate(source._operands):
            refs = pending.get(idx)
            if refs is not None:
                val = next_shell()
                for operand in (fid, value(refs[1]), value(refs[0])):
                    val._append_operand(operand)
                val.name = namer("sel")
            else:
                ref = where.get(id(op))
                if ref is None:
                    continue
                val = value(ref)
            new._operands[idx] = val
            val._add_use(new, idx)

    # Phi incomings, then undef for each edge only the other side takes.
    for node in plan.phis:
        a = plan.source_a[node]
        where, _entries, exits = sides[a is None]
        ops = (a if a is not None else plan.source_b[node])._operands  # type: ignore[union-attr]
        phi = values[node]
        for i in range(0, len(ops), 2):
            ref = where.get(id(ops[i]))
            phi._append_operand(ops[i] if ref is None else value(ref))
            phi._append_operand(blocks[exits[id(ops[i + 1])]])
    for node in plan.phis:
        phi = values[node]
        covered = {id(pred) for pred in phi._operands[1::2]}
        for pred in phi.parent.predecessors():  # type: ignore[union-attr]
            if id(pred) not in covered:
                phi.add_incoming(UndefValue(phi.type), pred)  # type: ignore[attr-defined]


def merge_functions(
    alignment: FunctionAlignment,
    module: Module,
    name: Optional[str] = None,
    options: MergeOptions = MergeOptions(),
    layout: Optional[BlockLayout] = None,
) -> MergeResult:
    """Merge the aligned pair into one new function added to *module*.

    *layout* is the alignment's :class:`BlockLayout` when the caller has
    already built it (the pass builds and prices one for the profitability
    bound); otherwise one is built here.  Raises :class:`MergeError` when
    the pair cannot be merged (diverging return types, irreparable SSA,
    ...); the module is left unmodified in that case.
    """
    func_a: Function = alignment.function_a  # type: ignore[assignment]
    func_b: Function = alignment.function_b  # type: ignore[assignment]
    if func_a.return_type is not func_b.return_type:
        raise MergeError(f"return type mismatch: {func_a.return_type} vs {func_b.return_type}")
    if func_a.is_declaration or func_b.is_declaration:
        raise MergeError("cannot merge declarations")
    merged_name = name or module.unique_name(f"merged.{func_a.name}.{func_b.name}")
    with trace.span("codegen.merge"):
        plan = (layout if layout is not None else BlockLayout(alignment)).plan()
        if plan.error is not None:
            raise MergeError(plan.error)
        merged = Function(
            FunctionType(func_a.return_type, plan.param_types), merged_name, internal=True
        )
        merged.args[0].name = "fid"
        _emit(plan, merged)
        merged.uniquify_names()
        module.add_function(merged)
    result = MergeResult(
        merged,
        func_a,
        func_b,
        list(plan.map_a),
        list(plan.map_b),
        plan.num_selects,
        plan.num_shared,
        plan.num_private,
    )
    with trace.span("codegen.repair"):
        try:
            result.repairs = repair_ssa(merged, legacy_bugs=options.legacy_bugs)
        except MergeError:
            merged.erase_from_parent()
            raise
    return result
