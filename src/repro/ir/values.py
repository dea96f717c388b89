"""Value hierarchy for the repro IR.

Everything an instruction can reference is a :class:`Value`: constants,
function arguments, instructions (which are themselves values), basic blocks
(as branch targets) and functions (as call targets).  Values track their
*uses* so that ``replace_all_uses_with`` — the workhorse of the merged-code
generator — runs in time proportional to the number of uses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from .types import FloatType, IntType, PointerType, Type

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .instructions import Instruction

__all__ = [
    "Value",
    "User",
    "Constant",
    "ConstantInt",
    "ConstantFloat",
    "ConstantNull",
    "UndefValue",
    "Argument",
]


class Value:
    """Base class for all IR values."""

    __slots__ = ("type", "name", "_uses")

    def __init__(self, type_: Type, name: str = "") -> None:
        self.type = type_
        self.name = name
        # Map user -> list of operand indices at which this value appears.
        self._uses: Dict["User", List[int]] = {}

    # -- use tracking -----------------------------------------------------------
    def _add_use(self, user: "User", index: int) -> None:
        self._uses.setdefault(user, []).append(index)

    def _remove_use(self, user: "User", index: int) -> None:
        slots = self._uses.get(user)
        if slots is not None:
            slots.remove(index)
            if not slots:
                del self._uses[user]

    @property
    def users(self) -> List["User"]:
        """Distinct users of this value (order is insertion order)."""
        return list(self._uses)

    @property
    def num_uses(self) -> int:
        return sum(len(slots) for slots in self._uses.values())

    def uses(self) -> Iterator[Tuple["User", int]]:
        """Iterate ``(user, operand_index)`` pairs."""
        for user, slots in list(self._uses.items()):
            for idx in list(slots):
                yield user, idx

    def replace_all_uses_with(self, new: "Value") -> None:
        """Rewrite every use of ``self`` to refer to ``new`` instead."""
        if new is self:
            return
        for user, idx in list(self.uses()):
            user.set_operand(idx, new)

    # -- printing ----------------------------------------------------------------
    def ref(self) -> str:
        """Short textual reference used when this value appears as an operand."""
        return f"%{self.name}" if self.name else "%<anon>"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.type} {self.ref()}>"


class User(Value):
    """A value that references other values through an operand list."""

    __slots__ = ("_operands",)

    def __init__(self, type_: Type, name: str = "") -> None:
        super().__init__(type_, name)
        self._operands: List[Value] = []

    @property
    def operands(self) -> Tuple[Value, ...]:
        return tuple(self._operands)

    @property
    def num_operands(self) -> int:
        return len(self._operands)

    def operand(self, index: int) -> Value:
        return self._operands[index]

    def set_operand(self, index: int, value: Value) -> None:
        old = self._operands[index]
        if old is value:
            return
        old._remove_use(self, index)
        self._operands[index] = value
        value._add_use(self, index)

    def _append_operand(self, value: Value) -> None:
        value._add_use(self, len(self._operands))
        self._operands.append(value)

    def _pop_operand(self, index: int) -> Value:
        """Remove the operand at *index*, shifting later use indices down."""
        value = self._operands.pop(index)
        value._remove_use(self, index)
        for later_idx in range(index, len(self._operands)):
            op = self._operands[later_idx]
            op._remove_use(self, later_idx + 1)
            op._add_use(self, later_idx)
        return value

    def drop_all_references(self) -> None:
        """Detach this user from all of its operands (pre-deletion hygiene)."""
        self.unlink_operands()
        self._operands.clear()

    def unlink_operands(self) -> None:
        """Unregister this user's operand uses but keep its operand list,
        so :meth:`link_operands` can register them again."""
        for idx, op in enumerate(self._operands):
            op._remove_use(self, idx)

    def link_operands(self) -> None:
        """Register the uses of the operand list :meth:`unlink_operands`
        kept."""
        for idx, op in enumerate(self._operands):
            op._add_use(self, idx)


class Constant(Value):
    """Base class for immutable constant values."""

    __slots__ = ()

    def ref(self) -> str:  # pragma: no cover - overridden by subclasses
        raise NotImplementedError


class ConstantInt(Constant):
    """Integer constant, stored wrapped to the width of its type."""

    __slots__ = ("value",)

    def __init__(self, type_: IntType, value: int) -> None:
        if not isinstance(type_, IntType):
            raise TypeError(f"ConstantInt requires an integer type, got {type_}")
        super().__init__(type_)
        self.value = value & type_.mask

    @property
    def signed_value(self) -> int:
        bits: int = self.type.bits  # type: ignore[attr-defined]
        if bits == 1:
            return self.value
        if self.value >= (1 << (bits - 1)):
            return self.value - (1 << bits)
        return self.value

    def ref(self) -> str:
        return str(self.signed_value)

    def __repr__(self) -> str:
        return f"<ConstantInt {self.type} {self.signed_value}>"


class ConstantFloat(Constant):
    __slots__ = ("value",)

    def __init__(self, type_: FloatType, value: float) -> None:
        if not isinstance(type_, FloatType):
            raise TypeError(f"ConstantFloat requires a float type, got {type_}")
        super().__init__(type_)
        self.value = float(value)

    def ref(self) -> str:
        return repr(self.value)

    def __repr__(self) -> str:
        return f"<ConstantFloat {self.type} {self.value}>"


class ConstantNull(Constant):
    """The null pointer of a given pointer type."""

    __slots__ = ()

    def __init__(self, type_: PointerType) -> None:
        if not isinstance(type_, PointerType):
            raise TypeError(f"ConstantNull requires a pointer type, got {type_}")
        super().__init__(type_)

    def ref(self) -> str:
        return "null"


class UndefValue(Constant):
    """An undefined value of any first-class type."""

    __slots__ = ()

    def __init__(self, type_: Type) -> None:
        super().__init__(type_)

    def ref(self) -> str:
        return "undef"


class Argument(Value):
    """A formal parameter of a function."""

    __slots__ = ("parent", "index")

    def __init__(self, type_: Type, name: str, index: int, parent: Optional[object] = None) -> None:
        super().__init__(type_, name)
        self.parent = parent
        self.index = index

    def __repr__(self) -> str:
        return f"<Argument {self.type} %{self.name}>"
