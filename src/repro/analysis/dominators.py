"""Dominator tree via the Cooper–Harvey–Kennedy algorithm.

Needed by the IR verifier (SSA dominance checks) and by the merged-code
generator's SSA repair stage, which is where the two HyFM bugs documented in
F3M Section III-E live.

Both consumers share one scan, :func:`dominance_violations`.  It is linear
in the size of the function: block dominance is an interval test on a
pre-order numbering of the tree, and same-block order is decided by what the
walk has already passed.  The tree can also be built over a bare graph of
successor indices (:meth:`DominatorTree.of_successors`); the profitability
bound uses that to find the same violations on a merged function's block
layout before the function is built.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import Instruction
from ..ir.values import Value

__all__ = ["DominatorTree", "dominance_violations"]


def _reverse_postorder(succs: Sequence[Sequence[int]]) -> List[int]:
    """Nodes reachable from node 0 in reverse DFS postorder, visiting
    successors in list order as :func:`~repro.analysis.cfg.postorder` does."""
    if not succs:
        return []
    seen = [False] * len(succs)
    seen[0] = True
    order: List[int] = []
    stack = [(0, iter(succs[0]))]
    while stack:
        node, rest = stack[-1]
        for nxt in rest:
            if not seen[nxt]:
                seen[nxt] = True
                stack.append((nxt, iter(succs[nxt])))
                break
        else:
            order.append(node)
            stack.pop()
    order.reverse()
    return order


class DominatorTree:
    """Immediate-dominator tree of a control-flow graph.

    ``DominatorTree(func)`` is the tree of a function's reachable blocks;
    :meth:`of_blocks` builds the same tree from successor lists the caller
    has already read off the blocks' terminators, and :meth:`of_successors`
    builds it for any graph given as successor-index lists, such as a
    merged function's block layout before a block of it exists.  All three
    number the graph's nodes and build the tree in one place.  Nodes are
    numbered in reverse postorder; predecessor lists are built once from
    successor edges, so only reachable predecessors appear and no block's
    use list is ever scanned.
    """

    def __init__(self, func: Function) -> None:
        self._of_blocks(func, [block.successors() for block in func.blocks])

    @classmethod
    def of_blocks(
        cls, func: Function, successors: Sequence[Sequence[BasicBlock]]
    ) -> "DominatorTree":
        """The tree of *func*, where ``successors[k]`` are the successors
        of ``func.blocks[k]``, as :meth:`BasicBlock.successors` gives them."""
        tree = cls.__new__(cls)
        tree._of_blocks(func, successors)
        return tree

    @classmethod
    def of_successors(cls, succs: Sequence[Sequence[int]]) -> "DominatorTree":
        """The tree of the graph whose node *v* has the successors
        ``succs[v]``, entered at node 0; it is keyed by node number."""
        tree = cls.__new__(cls)
        tree.function = None
        tree._rpo = _reverse_postorder(succs)
        index = tree._index = {v: i for i, v in enumerate(tree._rpo)}
        tree._build([[index[s] for s in succs[v]] for v in tree._rpo])
        return tree

    def _of_blocks(self, func: Function, successors: Sequence[Sequence[BasicBlock]]) -> None:
        """Number *func*'s blocks by position and build the tree.  A
        successor outside ``func.blocks`` is a node too, numbered after
        them, and its own successors are read from its terminator, so the
        graph is the one a walk from the entry would follow."""
        nodes = list(func.blocks)
        # Numbered from the back, so a block listed twice is its first node.
        number = {id(block): k for k, block in reversed(list(enumerate(nodes)))}
        try:
            succs = [[number[id(block)] for block in row] for row in successors]
        except KeyError:
            succs = [self._number(row, nodes, number) for row in successors]
            while len(succs) < len(nodes):
                succs.append(self._number(nodes[len(succs)].successors(), nodes, number))
        self.function = func
        rpo = _reverse_postorder(succs)
        self._rpo = [nodes[v] for v in rpo]
        self._index = {id(nodes[v]): i for i, v in enumerate(rpo)}
        order = [0] * len(succs)
        for i, v in enumerate(rpo):
            order[v] = i
        self._build([[order[s] for s in succs[v]] for v in rpo])

    @staticmethod
    def _number(row: Sequence[BasicBlock], nodes: List[BasicBlock], number: dict) -> List[int]:
        out = []
        for block in row:
            v = number.get(id(block))
            if v is None:
                v = number[id(block)] = len(nodes)
                nodes.append(block)
            out.append(v)
        return out

    def _build(self, succs: List[List[int]]) -> None:
        """Build the tree from successor lists numbered in reverse
        postorder (the entry is 0, every node is reachable)."""
        n = len(succs)
        preds: List[List[int]] = [[] for _ in range(n)]
        for i, here in enumerate(succs):
            for s in here:
                p = preds[s]
                if not p or p[-1] != i:
                    p.append(i)
        self._idom = self._compute(preds)
        # Pre-order numbering of the tree: *a* dominates *b* iff b's number
        # falls in a's subtree interval.  An idom precedes its block in
        # reverse postorder, so one backward and one forward sweep suffice.
        size = [1] * n
        for i in range(n - 1, 0, -1):
            size[self._idom[i]] += size[i]
        pre = [0] * n
        nxt = [1] * n
        children: List[List[int]] = [[] for _ in range(n)]
        for i in range(1, n):
            parent = self._idom[i]
            pre[i] = nxt[parent]
            nxt[parent] += size[i]
            nxt[i] = pre[i] + 1
            children[parent].append(i)
        self._pre = pre
        self._size = size
        self._children = children

    def intervals(self, count: int) -> Tuple[List[int], List[int]]:
        """Dominance as intervals over the nodes ``0 .. count-1`` of a tree
        built by :meth:`of_successors`: node *a* dominates node *b* iff
        ``lo[a] <= lo[b] < hi[a]``.  Unreachable nodes get ``lo = -1``."""
        lo = [-1] * count
        hi = [-1] * count
        pre = self._pre
        size = self._size
        for v, i in self._index.items():
            lo[v] = pre[i]
            hi[v] = pre[i] + size[i]
        return lo, hi

    @staticmethod
    def _compute(preds: List[List[int]]) -> List[int]:
        """Immediate dominator of each RPO number (the entry maps to 0)."""
        n = len(preds)
        idom = [-1] * n
        if n:
            idom[0] = 0
        changed = True
        while changed:
            changed = False
            for b in range(1, n):
                new_idom = -1
                for p in preds[b]:
                    if idom[p] < 0:
                        continue
                    if new_idom < 0:
                        new_idom = p
                        continue
                    f1, f2 = p, new_idom
                    while f1 != f2:
                        while f1 > f2:
                            f1 = idom[f1]
                        while f2 > f1:
                            f2 = idom[f2]
                    new_idom = f1
                if new_idom >= 0 and idom[b] != new_idom:
                    idom[b] = new_idom
                    changed = True
        return idom

    # -- queries -----------------------------------------------------------------
    def is_reachable(self, block: BasicBlock) -> bool:
        return id(block) in self._index

    def idom(self, block: BasicBlock) -> Optional[BasicBlock]:
        """Immediate dominator of *block* (None for the entry block)."""
        i = self._index.get(id(block))
        if not i:
            return None
        return self._rpo[self._idom[i]]

    def dominates_block(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True if block *a* dominates block *b* (reflexive)."""
        ia = self._index.get(id(a))
        ib = self._index.get(id(b))
        if ia is None or ib is None:
            return False
        start = self._pre[ia]
        return start <= self._pre[ib] < start + self._size[ia]

    def strictly_dominates_block(self, a: BasicBlock, b: BasicBlock) -> bool:
        return a is not b and self.dominates_block(a, b)

    def dominates(self, def_value: Value, user: Instruction, operand_index: int) -> bool:
        """True if *def_value* dominates the given use.

        Non-instruction values (arguments, constants, functions, blocks)
        dominate everything.  For a phi use, the def must dominate the end of
        the corresponding incoming block, not the phi itself.
        """
        if not isinstance(def_value, Instruction):
            return True
        def_block = def_value.parent
        if def_block is None:
            return False
        if user.is_phi:
            # Incoming value at index i pairs with the block at index i+1.
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
        return self.strictly_dominates_block(def_block, use_block)

    def children(self, block: BasicBlock) -> List[BasicBlock]:
        """Dominator-tree children of *block*, in reverse postorder."""
        i = self._index.get(id(block))
        if i is None:
            return []
        return [self._rpo[c] for c in self._children[i]]


def dominance_violations(
    func: Function, dt: Optional[DominatorTree] = None
) -> Iterator[Tuple[Instruction, Instruction, int]]:
    """Every use in reachable code that its definition does not dominate.

    Yields ``(def, user, operand_index)`` in block, instruction and operand
    order.  Defs in unreachable blocks are exempt; a def with no parent
    block dominates nothing and is always reported.
    """
    if dt is None:
        dt = DominatorTree(func)
    index = dt._index
    pre = dt._pre
    size = dt._size
    seen = set()  # ids of instructions the walk has passed
    for block in func.blocks:
        b = index.get(id(block))
        if b is None:
            continue  # unreachable code is exempt from dominance rules
        use_pre = pre[b]
        for inst in block.instructions:
            ops = inst._operands
            if inst.is_phi:
                # Incoming value at index i pairs with the block at i+1; the
                # def must dominate the end of that incoming block.
                for idx in range(0, len(ops), 2):
                    op = ops[idx]
                    if not isinstance(op, Instruction):
                        continue
                    def_block = op.parent
                    if def_block is None:
                        yield op, inst, idx
                        continue
                    d = index.get(id(def_block))
                    if d is None:
                        continue
                    incoming = ops[idx + 1]
                    i = index.get(id(incoming)) if isinstance(incoming, BasicBlock) else None
                    if i is None or not pre[d] <= pre[i] < pre[d] + size[d]:
                        yield op, inst, idx
            else:
                for idx, op in enumerate(ops):
                    if not isinstance(op, Instruction):
                        continue
                    def_block = op.parent
                    if def_block is None:
                        yield op, inst, idx
                        continue
                    if def_block is block:
                        if id(op) not in seen:
                            yield op, inst, idx
                        continue
                    d = index.get(id(def_block))
                    if d is None:
                        continue
                    if not pre[d] <= use_pre < pre[d] + size[d]:
                        yield op, inst, idx
            seen.add(id(inst))
