"""Layout and plan of a merged function, fixed by the alignment alone.

:class:`BlockLayout` decides every block the merger lays out, in function
order: the dispatch block; per block pair a head, one guarded diamond per
split segment and the pair's terminator (shared in the last block of the
pair, or guarded with one block per side); and one block per unmatched
block.  It maps each original block to its merged entry and exit block and
knows the edges between merged blocks, all before a block exists.

Its :class:`MergePlan`, built once per layout, places every merged
instruction in those blocks in the merger's emission order, maps each
original instruction and argument to what replaces it, and resolves every
operand: which shared operand slots need a ``select``, which uses each
definition has, and which error, if any, the merger must raise.  The
post-alignment profitability bound prices the plan with
:meth:`BlockLayout.price`: the bytes the merger will emit, and the stack
demotion SSA repair will certainly add, found by dominance on the layout's
block graph.  The merger (:mod:`repro.merge.merger`) emits the same plan,
so the bound and codegen read one set of decisions.
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
    Constant,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    UndefValue,
    Value,
)

__all__ = ["BlockLayout", "MergePlan", "PairLayout"]

_BRANCH = _WEIGHTS[Opcode.BR]
_SELECT = _WEIGHTS[Opcode.SELECT]
# Operands that resolve to themselves in the merged function.
_LEAVES = (Constant, Function)
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
        self._plan: Optional[MergePlan] = None

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

    # -- the merge plan -----------------------------------------------------------
    def plan(self) -> "MergePlan":
        """The :class:`MergePlan` of this layout, built on first use."""
        plan = self._plan
        if plan is None:
            plan = self._plan = MergePlan(self)
        return plan

    def price(self) -> Tuple[int, int]:
        """``(merged bytes, demotion bytes)`` under the size model.

        The merged bytes are the plan's :attr:`MergePlan.size`, what the
        merger emits before SSA repair.  The demotion bytes are those of
        SSA repair's first round: each value that
        :func:`~repro.analysis.dominators.dominance_violations` would
        report on the merged function before repair gets an alloca and a
        store, and each reported use a load.  Both ``legacy_bugs`` settings
        emit all of these.  A use whose value the alignment does not map (a
        pair the merger rejects) counts nothing.
        """
        plan = self.plan()
        block_of = plan.block_of
        lo, hi = DominatorTree.of_successors(self.successors()).intervals(self.num_blocks)
        bad: List[int] = []  # the def node of each use it does not dominate
        for d, user in plan.uses:
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
        for d, phi_block, incoming in plan.phi_uses:
            if lo[phi_block] < 0:
                continue
            # The def must dominate the end of the incoming block.  An invoke
            # result reaching a phi from the invoke's own block always does,
            # so the one use fixed repair leaves alone never counts here.
            def_block = block_of[d]
            def_lo = lo[def_block]
            if def_lo >= 0 and not def_lo <= lo[incoming] < hi[def_block]:
                bad.append(d)
        return plan.size, len(set(bad)) * _DEMOTE_DEF + len(bad) * _DEMOTE_USE


class MergePlan:
    """Every instruction of the merged function, placed and resolved once.

    Each merged instruction is a *node*, numbered in the merger's emission
    order: per block pair its phis (A's, then B's) and its segments'
    instructions; every instruction of the unmatched blocks of A, then of
    B; last each pair's terminator, one node when shared, else A's and
    then B's.  ``source_a``/``source_b`` hold a node's originals (None on
    the side it does not come from) and ``block_of`` its merged block, so
    the nodes of one block are numbered in their order within it.
    ``phis`` lists the phi nodes in that order.

    ``where_a``/``where_b`` map ``id`` of an original instruction or
    argument to its *reference*: its node, or for an argument its merged
    parameter slot negated (slot 0 is the function id, so no argument's
    reference is 0 or above).  A constant or function operand refers to
    itself.  ``selects`` maps a shared node to ``(operand index, reference
    on A's side, reference on B's side)`` for each operand slot whose two
    operands resolve to different merged values; every other slot of a
    shared node takes A's operand.

    ``size`` is the function's bytes under the size model before SSA
    repair.  ``uses`` holds ``(def node, user node)`` for every use of an
    instruction outside a phi (a select sits right before its user, so its
    operands are used there), and ``phi_uses`` ``(def node, phi block,
    incoming exit block)`` for each phi incoming value.  ``error`` is the
    message of the :class:`~repro.merge.errors.MergeError` the merger
    raises for this alignment, or None.
    """

    def __init__(self, layout: BlockLayout) -> None:
        self.layout = layout
        self.error: Optional[str] = None
        alignment = layout.alignment
        func_a: Function = alignment.function_a  # type: ignore[assignment]
        func_b: Function = alignment.function_b  # type: ignore[assignment]
        self.param_types, map_a, map_b = _merge_parameters(func_a, func_b)
        self.map_a, self.map_b = map_a, map_b
        where_a = self.where_a = {id(arg): -slot for arg, slot in zip(func_a.args, map_a)}
        where_b = self.where_b = {id(arg): -slot for arg, slot in zip(func_b.args, map_b)}
        self._place(layout, where_a, where_b)
        for start, entries in ((func_a.entry, layout.entry_a), (func_b.entry, layout.entry_b)):
            if id(start) not in entries:
                self._fail(f"no merged entry for block %{start.name}")
        self._resolve(layout, func_a, func_b)

    def _fail(self, message: str) -> None:
        if self.error is None:
            self.error = message

    def _place(self, layout: BlockLayout, where_a: Dict[int, int], where_b: Dict[int, int]) -> None:
        """Number every node, map each original to it and size it."""
        alignment = layout.alignment
        weights = _WEIGHTS
        source_a: List[Optional[Instruction]] = []
        source_b: List[Optional[Instruction]] = []
        block_of: List[int] = []
        phis: List[int] = []
        size = _FUNCTION_OVERHEAD + _BRANCH  # with the dispatch branch
        num_shared = num_private = 0

        def place(a: Optional[Instruction], b: Optional[Instruction], block: int) -> int:
            node = len(block_of)
            source_a.append(a)
            source_b.append(b)
            block_of.append(block)
            if a is not None:
                where_a[id(a)] = node
            if b is not None:
                where_b[id(b)] = node
            return node

        for pair, plan in zip(alignment.block_pairs, layout.pairs):
            block = plan.head
            for phi in pair.block_a.phis():
                phis.append(place(phi, None, block))
            for phi in pair.block_b.phis():
                phis.append(place(None, phi, block))
            splits = iter(plan.splits)
            for segment in pair.segments:
                if segment.__class__ is SharedSegment:
                    for a, b in segment.pairs:  # type: ignore[union-attr]
                        place(a, b, block)
                        size += weights.get(a.opcode, _DEFAULT_WEIGHT)
                    num_shared += len(segment.pairs)  # type: ignore[union-attr]
                    continue
                join, left, right = next(splits)
                size += _BRANCH  # the guard (or straight-line) branch
                for inst in segment.left:  # type: ignore[union-attr]
                    place(inst, None, left)
                    size += weights.get(inst.opcode, _DEFAULT_WEIGHT)
                for inst in segment.right:  # type: ignore[union-attr]
                    place(None, inst, right)
                    size += weights.get(inst.opcode, _DEFAULT_WEIGHT)
                # A branch to the join ends each non-empty side.
                size += _BRANCH * ((left >= 0) + (right >= 0))
                num_private += segment.length  # type: ignore[union-attr]
                block = join
            if pair.block_a.terminator is None or pair.block_b.terminator is None:
                self._fail("cannot merge unterminated blocks")
        for blocks, placed, on_a in (
            (alignment.unmatched_a, layout.unmatched_a, True),
            (alignment.unmatched_b, layout.unmatched_b, False),
        ):
            for source, block in zip(blocks, placed):
                for inst in source.instructions:
                    node = place(inst, None, block) if on_a else place(None, inst, block)
                    if inst.__class__ is Phi:
                        phis.append(node)
                    else:
                        size += weights.get(inst.opcode, _DEFAULT_WEIGHT)
                        num_private += 1
                if source.terminator is None:
                    self._fail(f"unterminated block %{source.name}")
                else:
                    num_private -= 1
        # Terminators are emitted after the unmatched blocks.
        for pair, plan in zip(alignment.block_pairs, layout.pairs):
            term_a = pair.block_a.terminator
            term_b = pair.block_b.terminator
            if term_a is None or term_b is None:
                continue
            size += weights.get(term_a.opcode, _DEFAULT_WEIGHT)
            if plan.shared_terminator:
                place(term_a, term_b, plan.tail)
            else:
                size += weights.get(term_b.opcode, _DEFAULT_WEIGHT) + _BRANCH
                place(term_a, None, plan.term_a)
                place(None, term_b, plan.term_b)
        self.source_a = source_a
        self.source_b = source_b
        self.block_of = block_of
        self.phis = phis
        self.size = size
        self.num_shared = num_shared
        self.num_private = num_private

    def _resolve(self, layout: BlockLayout, func_a: Function, func_b: Function) -> None:
        """Resolve every operand: decide the selects, collect the uses and
        find the merger's first error, all in the merger's order."""
        where_a, where_b = self.where_a, self.where_b
        entry_a, entry_b = layout.entry_a, layout.entry_b
        uses: List[Tuple[int, int]] = []
        selects: Dict[int, List[Tuple[int, object, object]]] = {}
        for node, (a, b) in enumerate(zip(self.source_a, self.source_b)):
            if a is not None and b is not None:
                for idx, (op_a, op_b) in enumerate(zip(a._operands, b._operands)):
                    if op_a.__class__ is BasicBlock:
                        target_a = entry_a.get(id(op_a))
                        target_b = entry_b.get(id(op_b))
                        if target_a is None:
                            self._fail(f"no merged entry for block %{op_a.name}")
                        elif target_b is None:
                            self._fail(f"no merged entry for block %{op_b.name}")
                        elif target_a != target_b:
                            self._fail("shared terminator with diverging targets")
                        continue
                    ref_a = where_a.get(id(op_a))
                    if ref_a is None:
                        if not isinstance(op_a, _LEAVES):
                            self._fail(f"unmapped value %{op_a.name} from @{func_a.name}")
                            continue
                        ref_a = op_a
                    ref_b = where_b.get(id(op_b))
                    if ref_b is None:
                        if not isinstance(op_b, _LEAVES):
                            self._fail(f"unmapped value %{op_b.name} from @{func_b.name}")
                            continue
                        ref_b = op_b
                    if ref_a == ref_b:
                        if ref_a.__class__ is int and ref_a >= 0:  # type: ignore[operator]
                            uses.append((ref_a, node))  # type: ignore[arg-type]
                    elif ref_a.__class__ is int or not _constants_equal(ref_a, ref_b):  # type: ignore[arg-type]
                        selects.setdefault(node, []).append((idx, ref_a, ref_b))
                        for ref in (ref_a, ref_b):
                            if ref.__class__ is int and ref >= 0:  # type: ignore[operator]
                                uses.append((ref, node))  # type: ignore[arg-type]
                continue
            if a is not None:
                source, where, entries, func = a, where_a, entry_a, func_a
            else:
                source, where, entries, func = b, where_b, entry_b, func_b  # type: ignore[assignment]
            if source.__class__ is Phi:
                continue
            for op in source._operands:
                if op.__class__ is BasicBlock:
                    if id(op) not in entries:
                        self._fail(f"no merged entry for block %{op.name}")
                    continue
                ref = where.get(id(op))
                if ref is None:
                    if not isinstance(op, _LEAVES):
                        self._fail(f"unmapped value %{op.name} from @{func.name}")
                elif ref >= 0:
                    uses.append((ref, node))
        phi_uses: List[Tuple[int, int, int]] = []
        for node in self.phis:
            phi = self.source_a[node]
            if phi is not None:
                where, exits, func = where_a, layout.exit_a, func_a
            else:
                phi = self.source_b[node]
                where, exits, func = where_b, layout.exit_b, func_b
            block = self.block_of[node]
            ops = phi._operands  # type: ignore[union-attr]
            for i in range(0, len(ops), 2):
                op, pred = ops[i], ops[i + 1]
                incoming = exits.get(id(pred))
                if incoming is None:
                    self._fail(f"no merged exit for block %{pred.name}")
                ref = where.get(id(op))
                if ref is None:
                    if not isinstance(op, _LEAVES):
                        self._fail(f"unmapped value %{op.name} from @{func.name}")
                elif incoming is not None and ref >= 0:
                    phi_uses.append((ref, block, incoming))
        self.uses = uses
        self.phi_uses = phi_uses
        self.selects = selects
        self.num_selects = sum(map(len, selects.values()))
        self.size += _SELECT * self.num_selects

