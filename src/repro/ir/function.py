"""Functions for the repro IR."""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional

from .basicblock import BasicBlock
from .instructions import Instruction
from .types import FunctionType, PointerType
from .values import Argument, Value

if TYPE_CHECKING:  # pragma: no cover
    from .module import Module

__all__ = ["Function", "LocalNamer"]

_name_of = attrgetter("name")


class Function(Value):
    """An IR function: typed arguments plus a list of basic blocks.

    A function with no blocks is a *declaration* (external).  Functions are
    values of pointer-to-function type so they can be used as call operands
    and stored/passed (``address_taken`` tracks indirect uses, which matters
    for merge-time thunk generation).
    """

    __slots__ = ("ftype", "args", "blocks", "parent", "internal", "_name_counter")

    def __init__(
        self,
        ftype: FunctionType,
        name: str,
        parent: Optional["Module"] = None,
        internal: bool = True,
    ) -> None:
        super().__init__(PointerType(ftype), name)
        self.ftype = ftype
        self.args: List[Argument] = [
            Argument(pt, f"arg{i}", i, self) for i, pt in enumerate(ftype.params)
        ]
        self.blocks: List[BasicBlock] = []
        self.parent = parent
        # Internal linkage: all callers are visible, so the function body can
        # be replaced/removed by merging.  External functions keep a thunk.
        self.internal = internal
        self._name_counter = 0
        if parent is not None:
            parent.add_function(self)

    # -- structure ---------------------------------------------------------------
    @property
    def return_type(self):
        return self.ftype.ret

    @property
    def is_declaration(self) -> bool:
        return not self.blocks

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise ValueError(f"function {self.name!r} has no body")
        return self.blocks[0]

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self.blocks)

    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks:
            yield from block.instructions

    @property
    def num_instructions(self) -> int:
        return sum(len(b) for b in self.blocks)

    # -- naming ------------------------------------------------------------------
    def next_name(self, prefix: str = "t") -> str:
        """A fresh local value name, unique within this function.

        The counter alone is not enough: a body cloned or merged in keeps
        the names another function's counter issued, so a counter-made
        name is skipped while an argument, block or instruction uses it.
        Callers issuing many names in a row use :meth:`namer` instead.
        """
        return self.namer()(prefix)

    def namer(self) -> "LocalNamer":
        """A :meth:`next_name` that collects the names in use only once.

        Valid while every local name added to the function comes from this
        namer (or cannot collide with one, e.g. does not end in a digit).
        """
        return LocalNamer(self)

    def uniquify_names(self) -> None:
        """Assign fresh names to unnamed/duplicate blocks and instructions."""
        seen: Dict[str, int] = {}

        def unique(base: str) -> str:
            name = base or "v"
            n = seen.get(name)
            if n is None:
                seen[name] = 0
                return name
            while True:
                n += 1
                candidate = f"{name}.{n}"
                if candidate not in seen:
                    seen[name] = n
                    seen[candidate] = 0
                    return candidate

        for arg in self.args:
            arg.name = unique(arg.name)
        for block in self.blocks:
            block.name = unique(block.name or "bb")
        for block in self.blocks:
            for inst in block.instructions:
                if not inst.type.is_void:
                    inst.name = unique(inst.name or "v")

    # -- mutation ----------------------------------------------------------------
    def add_block(self, block: BasicBlock) -> BasicBlock:
        if block.parent not in (None, self):
            raise ValueError("block already belongs to another function")
        block.parent = self
        self.blocks.append(block)
        return block

    def remove_block(self, block: BasicBlock) -> None:
        self.blocks.remove(block)
        block.parent = None

    def move_block_after(self, block: BasicBlock, anchor: BasicBlock) -> None:
        self.blocks.remove(block)
        self.blocks.insert(self.blocks.index(anchor) + 1, block)

    def drop_body(self) -> None:
        """Delete all blocks, turning the function into a declaration."""
        for block in list(self.blocks):
            for inst in list(block.instructions):
                inst.drop_all_references()
                inst.parent = None
            block.instructions.clear()
        for block in list(self.blocks):
            block.parent = None
        self.blocks.clear()

    def detach_body(self) -> List[BasicBlock]:
        """Take the blocks out of this function, turning it into a
        declaration, and return them.

        The blocks keep their instructions and the instructions their
        operand lists, but every operand use is unregistered: a detached
        body counts as no uses of anything.  :meth:`attach_body` puts it
        back.
        """
        blocks = self.blocks
        for block in blocks:
            for inst in block.instructions:
                inst.unlink_operands()
        self.blocks = []
        return blocks

    def attach_body(self, blocks: List[BasicBlock]) -> None:
        """Replace the body with *blocks* from :meth:`detach_body`,
        registering their operand uses again."""
        self.drop_body()
        for block in blocks:
            for inst in block.instructions:
                inst.link_operands()
        self.blocks = blocks

    def erase_from_parent(self) -> None:
        self.drop_body()
        if self.parent is not None:
            self.parent.remove_function(self)

    # -- queries -----------------------------------------------------------------
    def callers(self) -> List[Instruction]:
        """Direct call/invoke sites whose callee operand is this function."""
        from .instructions import Opcode

        sites = []
        for user, idx in self.uses():
            if (
                isinstance(user, Instruction)
                and user.opcode in (Opcode.CALL, Opcode.INVOKE)
                and idx == 0
            ):
                sites.append(user)
        return sites

    @property
    def address_taken(self) -> bool:
        """True if the function is referenced other than as a direct callee."""
        from .instructions import Opcode

        for user, idx in self.uses():
            if not isinstance(user, Instruction):
                return True
            if user.opcode not in (Opcode.CALL, Opcode.INVOKE) or idx != 0:
                return True
        return False

    def ref(self) -> str:
        return f"@{self.name}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "declare" if self.is_declaration else "define"
        return f"<Function {kind} {self.ftype.ret} @{self.name}>"


class LocalNamer:
    """Issues fresh local names for one function from one scan of its names.

    Shares the function's counter, so names come out exactly as successive
    :meth:`Function.next_name` calls would issue them; each issued name joins
    the set of names in use.
    """

    __slots__ = ("function", "taken")

    def __init__(self, func: Function) -> None:
        self.function = func
        taken = set(map(_name_of, func.args))
        taken.update(map(_name_of, func.blocks))
        for block in func.blocks:
            taken.update(map(_name_of, block.instructions))
        self.taken = taken

    def __call__(self, prefix: str = "t") -> str:
        func = self.function
        taken = self.taken
        while True:
            func._name_counter += 1
            name = f"{prefix}{func._name_counter}"
            if name not in taken:
                taken.add(name)
                return name
