"""Basic blocks for the repro IR."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional

from .instructions import Instruction, Phi
from .types import LABEL
from .values import Value

if TYPE_CHECKING:  # pragma: no cover
    from .function import Function

__all__ = ["BasicBlock"]


class BasicBlock(Value):
    """A straight-line sequence of instructions ending in a terminator.

    Blocks are values of ``label`` type so they can appear as branch/phi
    operands, mirroring LLVM.
    """

    __slots__ = ("parent", "instructions")

    def __init__(self, name: str = "", parent: Optional["Function"] = None) -> None:
        super().__init__(LABEL, name)
        self.parent = parent
        self.instructions: List[Instruction] = []
        if parent is not None:
            parent.add_block(self)

    # -- structure ---------------------------------------------------------------
    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    @property
    def terminator(self) -> Optional[Instruction]:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    @property
    def is_terminated(self) -> bool:
        return self.terminator is not None

    def phis(self) -> List[Phi]:
        out: List[Phi] = []
        for inst in self.instructions:
            if not inst.is_phi:
                break
            out.append(inst)  # type: ignore[arg-type]
        return out

    def non_phis(self) -> List[Instruction]:
        return self.instructions[len(self.phis()):]

    def first_non_phi_index(self) -> int:
        idx = 0
        for inst in self.instructions:
            if not inst.is_phi:
                break
            idx += 1
        return idx

    # -- CFG ---------------------------------------------------------------------
    def successors(self) -> List["BasicBlock"]:
        insts = self.instructions
        if insts and insts[-1].is_terminator:
            return insts[-1].successors()
        return []

    def predecessors(self) -> List["BasicBlock"]:
        """Predecessor blocks, deduplicated, in deterministic order."""
        preds: List[BasicBlock] = []
        seen = set()
        for user in self._uses:
            if isinstance(user, Instruction) and user.is_terminator:
                pred = user.parent
                if pred is not None and id(pred) not in seen:
                    seen.add(id(pred))
                    preds.append(pred)
        return preds

    # -- mutation ----------------------------------------------------------------
    def append(self, inst: Instruction) -> Instruction:
        if inst.parent is not None:
            raise ValueError("instruction already belongs to a block")
        insts = self.instructions
        if insts and insts[-1].is_terminator:
            raise ValueError(f"block {self.name!r} is already terminated")
        inst.parent = self
        insts.append(inst)
        return inst

    def insert(self, index: int, inst: Instruction) -> Instruction:
        if inst.parent is not None:
            raise ValueError("instruction already belongs to a block")
        inst.parent = self
        self.instructions.insert(index, inst)
        return inst

    def insert_before(self, anchor: Instruction, inst: Instruction) -> Instruction:
        return self.insert(self.instructions.index(anchor), inst)

    def insert_after(self, anchor: Instruction, inst: Instruction) -> Instruction:
        return self.insert(self.instructions.index(anchor) + 1, inst)

    def insert_before_terminator(self, inst: Instruction) -> Instruction:
        term = self.terminator
        if term is None:
            return self.append(inst)
        return self.insert_before(term, inst)

    def remove(self, inst: Instruction) -> None:
        self.instructions.remove(inst)
        inst.parent = None

    def erase_from_parent(self) -> None:
        """Remove this block from its function, dropping all its instructions."""
        for inst in list(self.instructions):
            inst.erase_from_parent()
        if self.parent is not None:
            self.parent.remove_block(self)

    def ref(self) -> str:
        return f"%{self.name}" if self.name else "%<anon-bb>"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BasicBlock {self.name!r} ({len(self.instructions)} insts)>"
