"""Layout of a merged function, fixed by the alignment alone.

:class:`BlockLayout` decides every block the merger lays out, in function
order: the dispatch block; per block pair a head, one guarded diamond per
split segment and the pair's terminator (shared in the last block of the
pair, or guarded with one block per side); and one block per unmatched
block.  It maps each original block to its merged entry and exit block and
knows the edges between merged blocks, all before a block exists.

The merger (:mod:`repro.merge.merger`) instantiates the layout, so the
layout is the one place these decisions are made.  The post-alignment
profitability bound prices it with :meth:`BlockLayout.price`: the bytes
the merger will emit, and the stack demotion SSA repair will certainly
add, found by dominance on the layout's block graph.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..alignment.model import FunctionAlignment, SharedSegment
from ..analysis.dominators import DominatorTree
from ..analysis.size import _DEFAULT_WEIGHT, _FUNCTION_OVERHEAD, _WEIGHTS
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (
    Branch,
    Instruction,
    Invoke,
    Opcode,
    Phi,
    Ret,
    Switch,
    Unreachable,
)
from ..ir.types import I1, Type
from ..ir.values import (
    Argument,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    UndefValue,
    Value,
)

__all__ = ["BlockLayout", "PairLayout"]

_BRANCH = _WEIGHTS[Opcode.BR]
_SELECT = _WEIGHTS[Opcode.SELECT]
# Bytes SSA repair emits to demote one value (an alloca and a store) and
# for each use it rewrites (a load).
_DEMOTE_DEF = _WEIGHTS[Opcode.ALLOCA] + _WEIGHTS[Opcode.STORE]
_DEMOTE_USE = _WEIGHTS[Opcode.LOAD]


def _merge_parameters(
    func_a: Function, func_b: Function
) -> Tuple[List[Type], List[int], List[int]]:
    """Merge the two parameter lists by type; slot 0 is the function id."""
    types: List[Type] = [I1]
    map_a: List[int] = []
    map_b: List[int] = []
    for arg in func_a.args:
        map_a.append(len(types))
        types.append(arg.type)
    taken = [False] * len(types)
    for arg in func_b.args:
        slot = -1
        for i in range(1, len(types)):
            if not taken[i] and types[i] is arg.type:
                slot = i
                break
        if slot < 0:
            slot = len(types)
            types.append(arg.type)
            taken.append(False)
        taken[slot] = True
        map_b.append(slot)
    return types, map_a, map_b


def _constants_equal(a: Value, b: Value) -> bool:
    """True when the merger treats constants *a* and *b* as one value."""
    if a is b:
        return True
    if type(a) is not type(b) or a.type is not b.type:
        return False
    if isinstance(a, ConstantInt):
        return a.value == b.value  # type: ignore[union-attr]
    if isinstance(a, ConstantFloat):
        return a.value == b.value or (a.value != a.value and b.value != b.value)  # type: ignore[union-attr]
    if isinstance(a, (ConstantNull, UndefValue)):
        return True
    return False


class PairLayout:
    """The merged blocks of one block pair, as indices into the layout.

    ``splits`` holds ``(join, left, right)`` per split segment, with -1
    for an empty side; ``tail`` is the block the pair's shared terminator
    or terminator guard ends; ``term_a``/``term_b`` are the guarded
    terminator blocks, both -1 when the terminators are shared.
    """

    __slots__ = ("head", "splits", "tail", "term_a", "term_b")

    def __init__(self, head: int, splits: List[Tuple[int, int, int]], tail: int) -> None:
        self.head = head
        self.splits = splits
        self.tail = tail
        self.term_a = -1
        self.term_b = -1

    @property
    def shared_terminator(self) -> bool:
        return self.term_a < 0


class BlockLayout:
    """Every block of the merged function of *alignment*, in function order.

    Block 0 is the dispatch block and ``num_blocks`` counts them all;
    :meth:`block_names` names them.  ``entry_a``/``exit_a`` (and ``_b``)
    map ``id`` of an original block to the index of the merged block
    control enters it by and of the one holding its terminator.
    Successors the alignment does not cover are left out of
    :meth:`successors`; the merger rejects such a pair.
    """

    def __init__(self, alignment: FunctionAlignment) -> None:
        self.alignment = alignment
        count = 1
        entry_a: Dict[int, int] = {}
        entry_b: Dict[int, int] = {}
        pairs: List[PairLayout] = []
        for pair in alignment.block_pairs:
            head = count
            count += 1
            entry_a[id(pair.block_a)] = head
            entry_b[id(pair.block_b)] = head
            splits: List[Tuple[int, int, int]] = []
            tail = head
            for segment in pair.segments:
                if segment.__class__ is SharedSegment:
                    continue
                tail = count
                count += 1
                left = right = -1
                if segment.left:  # type: ignore[union-attr]
                    left = count
                    count += 1
                if segment.right:  # type: ignore[union-attr]
                    right = count
                    count += 1
                splits.append((tail, left, right))
            pairs.append(PairLayout(head, splits, tail))
        self.pairs = pairs
        self.unmatched_a = list(range(count, count + len(alignment.unmatched_a)))
        count += len(alignment.unmatched_a)
        self.unmatched_b = list(range(count, count + len(alignment.unmatched_b)))
        count += len(alignment.unmatched_b)
        exit_a: Dict[int, int] = {}
        exit_b: Dict[int, int] = {}
        for block, i in zip(alignment.unmatched_a, self.unmatched_a):
            entry_a[id(block)] = exit_a[id(block)] = i
        for block, i in zip(alignment.unmatched_b, self.unmatched_b):
            entry_b[id(block)] = exit_b[id(block)] = i
        self.entry_a = entry_a
        self.entry_b = entry_b
        # Sharing a terminator needs every block's entry, so it is decided
        # last and the guarded terminator blocks come last.
        for pair, plan in zip(alignment.block_pairs, pairs):
            term_a = pair.block_a.terminator
            term_b = pair.block_b.terminator
            if term_a is None or term_b is None or not self._shareable(term_a, term_b):
                plan.term_a = count
                plan.term_b = count + 1
                count += 2
                exit_a[id(pair.block_a)] = plan.term_a
                exit_b[id(pair.block_b)] = plan.term_b
            else:
                exit_a[id(pair.block_a)] = exit_b[id(pair.block_b)] = plan.tail
        self.exit_a = exit_a
        self.exit_b = exit_b
        self.num_blocks = count

    def block_names(self) -> List[str]:
        """The merged blocks' names, by index."""
        names = ["entry"] * self.num_blocks
        for index, plan in enumerate(self.pairs):
            names[plan.head] = f"p{index}.head"
            for n, (join, left, right) in enumerate(plan.splits):
                names[join] = f"p{index}.s{n}.join"
                if left >= 0:
                    names[left] = f"p{index}.s{n}.a"
                if right >= 0:
                    names[right] = f"p{index}.s{n}.b"
            if not plan.shared_terminator:
                names[plan.term_a] = f"p{index}.term.a"
                names[plan.term_b] = f"p{index}.term.b"
        alignment = self.alignment
        for side, blocks, placed in (
            ("a", alignment.unmatched_a, self.unmatched_a),
            ("b", alignment.unmatched_b, self.unmatched_b),
        ):
            for block, i in zip(blocks, placed):
                names[i] = f"{side}.{block.name}"
        return names

    def _shareable(self, term_a: Instruction, term_b: Instruction) -> bool:
        """True when one merged terminator can serve both blocks."""
        if term_a.opcode != term_b.opcode:
            return False
        if isinstance(term_a, (Ret, Unreachable)):
            return True
        if isinstance(term_a, Branch):
            if term_a.is_conditional != term_b.is_conditional:  # type: ignore[attr-defined]
                return False
        if isinstance(term_a, Switch):
            cases_a = term_a.cases
            cases_b = term_b.cases  # type: ignore[attr-defined]
            if len(cases_a) != len(cases_b):
                return False
            if term_a.value.type is not term_b.value.type:  # type: ignore[attr-defined]
                return False
            for (const_a, _), (const_b, _) in zip(cases_a, cases_b):
                if const_a.value != const_b.value:
                    return False
        if isinstance(term_a, Invoke):
            if term_a.type is not term_b.type:
                return False
            if term_a.num_operands != term_b.num_operands:
                return False
            for op_a, op_b in zip(term_a.operands, term_b.operands):
                if not isinstance(op_a, BasicBlock) and op_a.type is not op_b.type:
                    return False
        # Successor slots must lead to the same merged blocks.
        succ_a = term_a.successors()
        succ_b = term_b.successors()
        if len(succ_a) != len(succ_b):
            return False
        entry_a = self.entry_a
        entry_b = self.entry_b
        for sa, sb in zip(succ_a, succ_b):
            ea = entry_a.get(id(sa))
            if ea is None or ea != entry_b.get(id(sb)):
                return False
        return True

    # -- the block graph ----------------------------------------------------------
    def successors(self) -> List[List[int]]:
        """Successor indices of every merged block, as the merger's
        branches and cloned terminators will have them."""
        alignment = self.alignment
        succs: List[List[int]] = [[] for _ in range(self.num_blocks)]
        entry_a = self.entry_a
        entry_b = self.entry_b

        def targets(term: Optional[Instruction], entries: Dict[int, int]) -> List[int]:
            if term is None:
                return []
            found = [entries.get(id(s)) for s in term.successors()]
            return [i for i in found if i is not None]

        start_a = entry_a.get(id(alignment.function_a.entry))  # type: ignore[union-attr]
        start_b = entry_b.get(id(alignment.function_b.entry))  # type: ignore[union-attr]
        succs[0] = [i for i in (start_b, start_a) if i is not None]
        for pair, plan in zip(alignment.block_pairs, self.pairs):
            current = plan.head
            for join, left, right in plan.splits:
                succs[current] = [right if right >= 0 else join, left if left >= 0 else join]
                if left >= 0:
                    succs[left] = [join]
                if right >= 0:
                    succs[right] = [join]
                current = join
            if plan.shared_terminator:
                succs[current] = targets(pair.block_a.terminator, entry_a)
            else:
                succs[current] = [plan.term_b, plan.term_a]
                succs[plan.term_a] = targets(pair.block_a.terminator, entry_a)
                succs[plan.term_b] = targets(pair.block_b.terminator, entry_b)
        for blocks, placed, entries in (
            (alignment.unmatched_a, self.unmatched_a, entry_a),
            (alignment.unmatched_b, self.unmatched_b, entry_b),
        ):
            for block, i in zip(blocks, placed):
                succs[i] = targets(block.terminator, entries)
        return succs

    # -- pricing ------------------------------------------------------------------
    def price(self) -> Tuple[int, int]:
        """``(merged bytes, demotion bytes)`` under the size model.

        The merged bytes are what the merger emits: the function overhead
        and the dispatch branch; each shared pair once; every split-segment
        instruction, with the segment's guard branch and one join branch
        per non-empty side; each block pair's terminator, once when
        shared, else both with a guard branch; every unmatched-block
        instruction; and a ``select`` for each operand slot of a shared
        pair whose two operands resolve to different merged values.

        The demotion bytes are those of SSA repair's first round: each
        value that :func:`~repro.analysis.dominators.dominance_violations`
        would report on the merged function before repair gets an alloca
        and a store, and each reported use a load.  Both ``legacy_bugs``
        settings emit all of these.  A use whose value the alignment does
        not map (a pair the merger rejects) counts nothing.
        """
        alignment = self.alignment
        weights = _WEIGHTS
        # Every merged instruction is a node: its number orders it within
        # its block, ``block_of`` holds the block, and a shared pair's two
        # originals map to one node.
        block_of: List[int] = []
        where_a: Dict[int, int] = {}
        where_b: Dict[int, int] = {}
        shared: List[Tuple[Instruction, Instruction, int]] = []
        private: List[Tuple[Instruction, Dict[int, int], int]] = []
        phis: List[Tuple[Instruction, Dict[int, int], Dict[int, int], int]] = []
        emitted = _FUNCTION_OVERHEAD + _BRANCH
        for pair, plan in zip(alignment.block_pairs, self.pairs):
            block = plan.head
            for source, where, exits in (
                (pair.block_a, where_a, self.exit_a),
                (pair.block_b, where_b, self.exit_b),
            ):
                for phi in source.instructions:
                    if phi.__class__ is not Phi:
                        break
                    where[id(phi)] = len(block_of)
                    block_of.append(block)
                    phis.append((phi, where, exits, block))
            splits = iter(plan.splits)
            for segment in pair.segments:
                if segment.__class__ is SharedSegment:
                    for a, b in segment.pairs:  # type: ignore[union-attr]
                        node = where_a[id(a)] = where_b[id(b)] = len(block_of)
                        block_of.append(block)
                        shared.append((a, b, node))
                        emitted += weights.get(a.opcode, _DEFAULT_WEIGHT)
                    continue
                join, left, right = next(splits)
                emitted += _BRANCH  # the guard (or straight-line) branch
                for side, where, insts in (
                    (left, where_a, segment.left),  # type: ignore[union-attr]
                    (right, where_b, segment.right),  # type: ignore[union-attr]
                ):
                    if not insts:
                        continue
                    emitted += _BRANCH  # to the join
                    for inst in insts:
                        node = where[id(inst)] = len(block_of)
                        block_of.append(side)
                        private.append((inst, where, node))
                        emitted += weights.get(inst.opcode, _DEFAULT_WEIGHT)
                block = join
            term_a = pair.block_a.terminator
            term_b = pair.block_b.terminator
            if term_a is None or term_b is None:
                continue
            emitted += weights.get(term_a.opcode, _DEFAULT_WEIGHT)
            if plan.shared_terminator:
                node = where_a[id(term_a)] = where_b[id(term_b)] = len(block_of)
                block_of.append(block)
                shared.append((term_a, term_b, node))
            else:
                emitted += weights.get(term_b.opcode, _DEFAULT_WEIGHT) + _BRANCH
                node = where_a[id(term_a)] = len(block_of)
                block_of.append(plan.term_a)
                private.append((term_a, where_a, node))
                node = where_b[id(term_b)] = len(block_of)
                block_of.append(plan.term_b)
                private.append((term_b, where_b, node))
        for blocks, placed, where, exits in (
            (alignment.unmatched_a, self.unmatched_a, where_a, self.exit_a),
            (alignment.unmatched_b, self.unmatched_b, where_b, self.exit_b),
        ):
            for source, block in zip(blocks, placed):
                for inst in source.instructions:
                    node = where[id(inst)] = len(block_of)
                    block_of.append(block)
                    if inst.__class__ is Phi:
                        phis.append((inst, where, exits, block))
                    else:
                        private.append((inst, where, node))
                        emitted += weights.get(inst.opcode, _DEFAULT_WEIGHT)

        # An argument resolves to its merged slot, stored negated so it can
        # never equal an instruction's node.
        func_a, func_b = alignment.function_a, alignment.function_b
        _types, map_a, map_b = _merge_parameters(func_a, func_b)  # type: ignore[arg-type]
        slots = {id(arg): -slot for arg, slot in zip(func_a.args, map_a)}  # type: ignore[union-attr]
        slots.update((id(arg), -slot) for arg, slot in zip(func_b.args, map_b))  # type: ignore[union-attr]
        lo, hi = DominatorTree.of_successors(self.successors()).intervals(self.num_blocks)
        # (def node, user node) of every use outside a phi; a select sits
        # right before its user, so its operands are used there.
        uses: List[Tuple[int, int]] = []
        for a, b, node in shared:
            for op_a, op_b in zip(a._operands, b._operands):
                if isinstance(op_a, Instruction):
                    val_a = where_a.get(id(op_a))
                elif isinstance(op_a, Argument):
                    val_a = slots.get(id(op_a))
                elif isinstance(op_a, BasicBlock):
                    continue
                else:
                    val_a = op_a
                if isinstance(op_b, Instruction):
                    val_b = where_b.get(id(op_b))
                elif isinstance(op_b, Argument):
                    val_b = slots.get(id(op_b))
                else:
                    val_b = op_b
                if val_a is None or val_b is None:
                    continue
                if val_a == val_b:
                    if val_a.__class__ is int and val_a >= 0:  # type: ignore[operator]
                        uses.append((val_a, node))  # type: ignore[arg-type]
                elif val_a.__class__ is int or not _constants_equal(val_a, val_b):  # type: ignore[arg-type]
                    emitted += _SELECT
                    for val in (val_a, val_b):
                        if val.__class__ is int and val >= 0:  # type: ignore[operator]
                            uses.append((val, node))  # type: ignore[arg-type]
        for inst, where, node in private:
            for op in inst._operands:
                if isinstance(op, Instruction):
                    d = where.get(id(op))
                    if d is not None:
                        uses.append((d, node))
        bad: List[int] = []  # the def node of each use it does not dominate
        for d, user in uses:
            use_block = block_of[user]
            use_lo = lo[use_block]
            if use_lo < 0:
                continue  # unreachable code is exempt from dominance rules
            def_block = block_of[d]
            if def_block == use_block:
                if d >= user:
                    bad.append(d)
            else:
                def_lo = lo[def_block]
                if def_lo >= 0 and not def_lo <= use_lo < hi[def_block]:
                    bad.append(d)
        for phi, where, exits, block in phis:
            if lo[block] < 0:
                continue
            ops = phi._operands
            for i in range(0, len(ops), 2):
                op = ops[i]
                if not isinstance(op, Instruction):
                    continue
                d = where.get(id(op))
                incoming = exits.get(id(ops[i + 1]))
                if d is None or incoming is None:
                    continue
                # The def must dominate the end of the incoming block.  An
                # invoke result reaching a phi from the invoke's own block
                # always does, so the one use fixed repair leaves alone
                # never counts here.
                def_block = block_of[d]
                def_lo = lo[def_block]
                if def_lo >= 0 and not def_lo <= lo[incoming] < hi[def_block]:
                    bad.append(d)
        return emitted, len(set(bad)) * _DEMOTE_DEF + len(bad) * _DEMOTE_USE
