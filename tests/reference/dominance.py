"""The per-block dominance analysis the linear-time scan replaced.

:class:`ReferenceDominatorTree` runs the Cooper–Harvey–Kennedy loop over
``BasicBlock.predecessors()``, a walk of each block's use list, on every
iteration.  :func:`reference_violations` checks every use with
:meth:`ReferenceDominatorTree.dominates`, ordering same-block uses by
``list.index``.  Neither shares code with :mod:`repro.analysis.dominators`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.cfg import reverse_postorder
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.ir.values import Value


class ReferenceDominatorTree:
    """Immediate-dominator map for the reachable blocks of a function."""

    def __init__(self, func: Function) -> None:
        self.function = func
        self._rpo = reverse_postorder(func)
        self._index: Dict[int, int] = {id(b): i for i, b in enumerate(self._rpo)}
        self._idom: Dict[int, Optional[BasicBlock]] = {}
        self._compute()

    def _compute(self) -> None:
        if not self._rpo:
            return
        entry = self._rpo[0]
        idom: Dict[int, BasicBlock] = {id(entry): entry}
        changed = True
        while changed:
            changed = False
            for block in self._rpo[1:]:
                new_idom: Optional[BasicBlock] = None
                for pred in block.predecessors():
                    if id(pred) not in self._index:
                        continue  # unreachable predecessor
                    if id(pred) in idom:
                        if new_idom is None:
                            new_idom = pred
                        else:
                            new_idom = self._intersect(pred, new_idom, idom)
                if new_idom is not None and idom.get(id(block)) is not new_idom:
                    idom[id(block)] = new_idom
                    changed = True
        self._idom = {bid: (None if bid == id(entry) else blk) for bid, blk in idom.items()}
        self._idom[id(entry)] = None

    def _intersect(
        self, a: BasicBlock, b: BasicBlock, idom: Dict[int, BasicBlock]
    ) -> BasicBlock:
        fa, fb = a, b
        while fa is not fb:
            while self._index[id(fa)] > self._index[id(fb)]:
                fa = idom[id(fa)]
            while self._index[id(fb)] > self._index[id(fa)]:
                fb = idom[id(fb)]
        return fa

    def is_reachable(self, block: BasicBlock) -> bool:
        return id(block) in self._index

    def idom(self, block: BasicBlock) -> Optional[BasicBlock]:
        return self._idom.get(id(block))

    def dominates_block(self, a: BasicBlock, b: BasicBlock) -> bool:
        if not self.is_reachable(a) or not self.is_reachable(b):
            return False
        runner: Optional[BasicBlock] = b
        while runner is not None:
            if runner is a:
                return True
            runner = self._idom.get(id(runner))
        return False

    def dominates(self, def_value: Value, user: Instruction, operand_index: int) -> bool:
        if not isinstance(def_value, Instruction):
            return True
        def_block = def_value.parent
        if def_block is None:
            return False
        if user.is_phi:
            incoming_block = user.operand(operand_index + 1)
            if not isinstance(incoming_block, BasicBlock):
                return False
            return self.dominates_block(def_block, incoming_block)
        use_block = user.parent
        if use_block is None:
            return False
        if def_block is use_block:
            insts = def_block.instructions
            return insts.index(def_value) < insts.index(user)
        return def_block is not use_block and self.dominates_block(def_block, use_block)

    def children(self, block: BasicBlock) -> List[BasicBlock]:
        return [b for b in self._rpo if self._idom.get(id(b)) is block]


def reference_violations(func: Function) -> List[Tuple[Instruction, Instruction, int]]:
    """``(def, user, operand_index)`` for every use in reachable code that
    its definition does not dominate; defs in unreachable blocks are exempt
    and a def with no parent block is always reported."""
    dt = ReferenceDominatorTree(func)
    out: List[Tuple[Instruction, Instruction, int]] = []
    for block in func.blocks:
        if not dt.is_reachable(block):
            continue
        for inst in block.instructions:
            for idx, op in enumerate(inst.operands):
                if inst.is_phi and idx % 2 == 1:
                    continue  # incoming-block slot
                if not isinstance(op, Instruction):
                    continue
                if op.parent is not None and not dt.is_reachable(op.parent):
                    continue
                if not dt.dominates(op, inst, idx):
                    out.append((op, inst, idx))
    return out
