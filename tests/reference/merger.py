"""The two-phase merged-function generator the merger is tested against.

:func:`reference_merge_functions` clones every instruction of the aligned
pair with typed placeholder operands and detached dummy blocks, lays the
clones out in the blocks :class:`~repro.merge.layout.BlockLayout` fixes,
then walks the clones again to patch each operand: a shared slot whose two
operands resolve to different merged values gets a ``select``, inserted
right before its user.  Phi incomings come last.  It makes the decisions
of :class:`~repro.merge.layout.MergePlan` a second time and through none of
its code, so a test can demand the same printed function, the same
:class:`~repro.merge.merger.MergeResult` fields and the same
:class:`~repro.merge.errors.MergeError` messages from both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.alignment.model import (
    BlockAlignment,
    FunctionAlignment,
    SharedSegment,
    SplitSegment,
)
from repro.ir.basicblock import BasicBlock
from repro.ir.clone import clone_instruction
from repro.ir.function import Function, LocalNamer
from repro.ir.instructions import Branch, Instruction, Phi, Select
from repro.ir.module import Module
from repro.ir.types import FunctionType
from repro.ir.values import Argument, Constant, UndefValue, Value
from repro.merge.errors import MergeError
from repro.merge.layout import BlockLayout, PairLayout, _constants_equal, _merge_parameters
from repro.merge.merger import MergeOptions, MergeResult
from repro.merge.ssa_repair import repair_ssa

__all__ = ["reference_merge_functions"]


@dataclass
class _Pending:
    """An emitted instruction whose operands still point at placeholders."""

    inst: Instruction
    source_a: Optional[Instruction]
    source_b: Optional[Instruction]


class _Merger:
    """One merge operation; see module docstring for the overall scheme."""

    def __init__(
        self,
        alignment: FunctionAlignment,
        module: Module,
        name: Optional[str],
        options: MergeOptions,
        layout: Optional[BlockLayout],
    ) -> None:
        self.alignment = alignment
        self.func_a: Function = alignment.function_a  # type: ignore[assignment]
        self.func_b: Function = alignment.function_b  # type: ignore[assignment]
        self.module = module
        self.options = options
        if self.func_a.return_type is not self.func_b.return_type:
            raise MergeError(
                f"return type mismatch: {self.func_a.return_type} vs "
                f"{self.func_b.return_type}"
            )
        if self.func_a.is_declaration or self.func_b.is_declaration:
            raise MergeError("cannot merge declarations")

        types, self.map_a, self.map_b = _merge_parameters(self.func_a, self.func_b)
        merged_name = name or module.unique_name(
            f"merged.{self.func_a.name}.{self.func_b.name}"
        )
        self.merged = Function(
            FunctionType(self.func_a.return_type, types), merged_name, internal=True
        )
        self.fid: Argument = self.merged.args[0]
        self.fid.name = "fid"
        # Value maps: original value id -> merged value.
        self.vmap_a: Dict[int, Value] = {}
        self.vmap_b: Dict[int, Value] = {}
        for arg, slot in zip(self.func_a.args, self.map_a):
            self.vmap_a[id(arg)] = self.merged.args[slot]
        for arg, slot in zip(self.func_b.args, self.map_b):
            self.vmap_b[id(arg)] = self.merged.args[slot]
        # Every block, and each original block's entry and exit, come from
        # the layout; the blocks are created in its order up front.
        self.layout = layout if layout is not None else BlockLayout(alignment)
        self.blocks = [BasicBlock(name, self.merged) for name in self.layout.block_names()]
        self.pending: List[_Pending] = []
        self.phi_shells: List[Tuple[Phi, Phi, str]] = []  # (new, old, side)
        self._deferred_terms: List[Tuple[PairLayout, BasicBlock, Instruction, Instruction]] = []
        self.result = MergeResult(self.merged, self.func_a, self.func_b)

    # -- small helpers -----------------------------------------------------------
    def _placeholder_clone(
        self, inst: Instruction, side: str, partner: Optional[Instruction] = None
    ) -> Instruction:
        """Clone *inst* with every operand replaced by a typed placeholder."""
        vmap: Dict[int, Value] = {}
        for op in inst.operands:
            if isinstance(op, BasicBlock):
                # Blocks are patched later; point at a detached dummy.
                vmap[id(op)] = self._dummy_block(op)
            elif isinstance(op, Constant) or isinstance(op, Function):
                vmap[id(op)] = op
            else:
                vmap[id(op)] = UndefValue(op.type)
        new = clone_instruction(inst, vmap)
        if side == "a":
            self.vmap_a[id(inst)] = new
            if partner is not None:
                self.vmap_b[id(partner)] = new
        else:
            self.vmap_b[id(inst)] = new
        self.pending.append(
            _Pending(new, inst if side == "a" else partner, partner if side == "a" else inst)
        )
        return new

    _dummies: Dict[int, BasicBlock]

    def _dummy_block(self, original: BasicBlock) -> BasicBlock:
        if not hasattr(self, "_dummies"):
            self._dummies = {}
        dummy = self._dummies.get(id(original))
        if dummy is None:
            dummy = BasicBlock(f"dummy.{original.name}")
            self._dummies[id(original)] = dummy
        return dummy

    def _resolve(self, value: Value, side: str) -> Value:
        vmap = self.vmap_a if side == "a" else self.vmap_b
        mapped = vmap.get(id(value))
        if mapped is not None:
            return mapped
        if isinstance(value, (Constant, Function)):
            return value
        raise MergeError(
            f"unmapped value %{value.name} from @{self.func_a.name if side == 'a' else self.func_b.name}"
        )

    def _entry_of(self, block: BasicBlock, side: str) -> BasicBlock:
        emap = self.layout.entry_a if side == "a" else self.layout.entry_b
        target = emap.get(id(block))
        if target is None:
            raise MergeError(f"no merged entry for block %{block.name}")
        return self.blocks[target]

    # -- phase 1: block scaffolding ----------------------------------------------
    def build(self) -> MergeResult:
        dispatch = self.blocks[0]
        self._build_pairs()
        self._build_unmatched(self.alignment.unmatched_a, self.layout.unmatched_a, "a")
        self._build_unmatched(self.alignment.unmatched_b, self.layout.unmatched_b, "b")
        self._flush_terminators()
        self._emit_dispatch(dispatch)
        self._patch_operands()
        self._patch_phis()
        self._drop_dummies()
        self.merged.uniquify_names()
        self.module.add_function(self.merged)
        try:
            self.result.repairs = repair_ssa(self.merged, legacy_bugs=self.options.legacy_bugs)
        except MergeError:
            self.merged.erase_from_parent()
            raise
        self.result.param_map_a = self.map_a
        self.result.param_map_b = self.map_b
        return self.result

    def _emit_dispatch(self, dispatch: BasicBlock) -> None:
        entry_a = self._entry_of(self.func_a.entry, "a")
        entry_b = self._entry_of(self.func_b.entry, "b")
        if entry_a is entry_b:
            dispatch.append(Branch(entry_a))
        else:
            dispatch.append(Branch(self.fid, entry_b, entry_a))

    def _build_pairs(self) -> None:
        for pair, plan in zip(self.alignment.block_pairs, self.layout.pairs):
            self._build_pair(pair, plan)

    def _build_pair(self, pair: BlockAlignment, plan: PairLayout) -> None:
        head = self.blocks[plan.head]
        # Phi shells for both originals live at the head.
        for side, block in (("a", pair.block_a), ("b", pair.block_b)):
            vmap = self.vmap_a if side == "a" else self.vmap_b
            for phi in block.phis():
                shell = Phi(phi.type)
                shell.name = phi.name
                head.append(shell)
                vmap[id(phi)] = shell
                self.phi_shells.append((shell, phi, side))

        current = head
        splits = iter(plan.splits)
        for segment in pair.segments:
            if isinstance(segment, SharedSegment):
                for a, b in segment.pairs:
                    current.append(self._placeholder_clone(a, "a", partner=b))
                    self.result.num_shared += 1
            elif isinstance(segment, SplitSegment):
                current = self._build_split(next(splits), current, segment)
        self._build_terminators(pair, plan, current)

    def _build_split(
        self, blocks: Tuple[int, int, int], current: BasicBlock, segment: SplitSegment
    ) -> BasicBlock:
        """Emit a guarded diamond for one split segment; returns the join."""
        join, left, right = (self.blocks[i] if i >= 0 else None for i in blocks)
        assert join is not None
        if left is not None:
            for inst in segment.left:
                left.append(self._placeholder_clone(inst, "a"))
                self.result.num_private += 1
            left.append(Branch(join))
        if right is not None:
            for inst in segment.right:
                right.append(self._placeholder_clone(inst, "b"))
                self.result.num_private += 1
            right.append(Branch(join))
        if left is not None and right is not None:
            current.append(Branch(self.fid, right, left))
        elif left is not None:
            current.append(Branch(self.fid, join, left))
        elif right is not None:
            current.append(Branch(self.fid, right, join))
        else:  # both empty: degenerate, keep straight-line
            current.append(Branch(join))
        return join

    # -- terminators ----------------------------------------------------------------
    def _build_terminators(self, pair: BlockAlignment, plan: PairLayout, current: BasicBlock) -> None:
        term_a = pair.block_a.terminator
        term_b = pair.block_b.terminator
        if term_a is None or term_b is None:
            raise MergeError("cannot merge unterminated blocks")
        # Terminators are emitted after the unmatched blocks' instructions,
        # which fixes the order operands are patched and selects named in.
        self._deferred_terms.append((plan, current, term_a, term_b))

    def _flush_terminators(self) -> None:
        for plan, current, term_a, term_b in self._deferred_terms:
            if plan.shared_terminator:
                current.append(self._placeholder_clone(term_a, "a", partner=term_b))
            else:
                blk_a = self.blocks[plan.term_a]
                blk_b = self.blocks[plan.term_b]
                blk_a.append(self._placeholder_clone(term_a, "a"))
                blk_b.append(self._placeholder_clone(term_b, "b"))
                current.append(Branch(self.fid, blk_b, blk_a))

    # -- unmatched blocks -------------------------------------------------------------
    def _build_unmatched(self, blocks: List[BasicBlock], placed: List[int], side: str) -> None:
        vmap = self.vmap_a if side == "a" else self.vmap_b
        for block, index in zip(blocks, placed):
            clone = self.blocks[index]
            for phi in block.phis():
                shell = Phi(phi.type)
                shell.name = phi.name
                clone.append(shell)
                vmap[id(phi)] = shell
                self.phi_shells.append((shell, phi, side))
            for inst in block.instructions[block.first_non_phi_index():]:
                if inst.is_terminator:
                    break
                clone.append(self._placeholder_clone(inst, side))
                self.result.num_private += 1
            term = block.terminator
            if term is None:
                raise MergeError(f"unterminated block %{block.name}")
            clone.append(self._placeholder_clone(term, side))

    # -- phase 2: operand patching -----------------------------------------------------
    def _patch_operands(self) -> None:
        namer = self.merged.namer()
        for pend in self.pending:
            inst = pend.inst
            if pend.source_a is not None and pend.source_b is not None:
                self._patch_shared(inst, pend.source_a, pend.source_b, namer)
            elif pend.source_a is not None:
                self._patch_private(inst, pend.source_a, "a")
            else:
                assert pend.source_b is not None
                self._patch_private(inst, pend.source_b, "b")

    def _patch_shared(
        self, inst: Instruction, src_a: Instruction, src_b: Instruction, namer: LocalNamer
    ) -> None:
        for idx in range(inst.num_operands):
            op_a = src_a.operand(idx)
            op_b = src_b.operand(idx)
            if isinstance(op_a, BasicBlock):
                target_a = self._entry_of(op_a, "a")
                target_b = self._entry_of(op_b, "b")  # type: ignore[arg-type]
                if target_a is not target_b:
                    raise MergeError("shared terminator with diverging targets")
                inst.set_operand(idx, target_a)
                continue
            val_a = self._resolve(op_a, "a")
            val_b = self._resolve(op_b, "b")
            if val_a is val_b or _constants_equal(val_a, val_b):
                inst.set_operand(idx, val_a)
            else:
                select = Select(self.fid, val_b, val_a)
                select.name = namer("sel")
                block = inst.parent
                assert block is not None
                block.insert_before(inst, select)
                inst.set_operand(idx, select)
                self.result.num_selects += 1

    def _patch_private(self, inst: Instruction, src: Instruction, side: str) -> None:
        for idx in range(inst.num_operands):
            op = src.operand(idx)
            if isinstance(op, BasicBlock):
                inst.set_operand(idx, self._entry_of(op, side))
            else:
                inst.set_operand(idx, self._resolve(op, side))

    # -- phase 3: phi completion -----------------------------------------------------
    def _patch_phis(self) -> None:
        for shell, original, side in self.phi_shells:
            vmap = self.vmap_a if side == "a" else self.vmap_b
            xmap = self.layout.exit_a if side == "a" else self.layout.exit_b
            for value, pred in original.incoming:
                exit_block = xmap.get(id(pred))
                if exit_block is None:
                    raise MergeError(f"no merged exit for block %{pred.name}")
                shell.add_incoming(self._resolve(value, side), self.blocks[exit_block])
        # Every phi must list *all* predecessors of its merged block; edges
        # that can only be taken by the other original function get undef.
        for shell, _original, _side in self.phi_shells:
            block = shell.parent
            assert block is not None
            covered = {id(b) for _v, b in shell.incoming}
            for pred in block.predecessors():
                if id(pred) not in covered:
                    shell.add_incoming(UndefValue(shell.type), pred)

    def _drop_dummies(self) -> None:
        if hasattr(self, "_dummies"):
            for dummy in self._dummies.values():
                if dummy.num_uses:
                    raise MergeError("unpatched dummy block operand")
        # Remove degenerate empty-join artifacts is unnecessary: every block
        # created by the merger is populated and terminated by construction.


def reference_merge_functions(
    alignment: FunctionAlignment,
    module: Module,
    name: Optional[str] = None,
    options: MergeOptions = MergeOptions(),
    layout: Optional[BlockLayout] = None,
) -> MergeResult:
    """Merge the aligned pair the two-phase way; the same contract as
    :func:`repro.merge.merger.merge_functions`."""
    return _Merger(alignment, module, name, options, layout).build()
