"""Modules (translation units) for the repro IR."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from .function import Function
from .types import FunctionType

__all__ = ["Module", "link_modules"]


class Module:
    """A collection of functions — the unit function merging operates on.

    The paper applies merging after all source files are linked into one
    monolithic bitcode file (LTO fashion); :func:`link_modules` provides the
    equivalent for our workload generators.
    """

    def __init__(self, name: str = "module") -> None:
        self.name = name
        self._functions: Dict[str, Function] = {}
        # The journal of the merge transaction that is capturing on this
        # module, if any (``repro.merge.transaction``): merge commits log
        # their mutations there so the transaction can undo them.
        self.open_journal = None

    # -- access ------------------------------------------------------------------
    @property
    def functions(self) -> List[Function]:
        return list(self._functions.values())

    def __iter__(self) -> Iterator[Function]:
        return iter(self._functions.values())

    def __len__(self) -> int:
        return len(self._functions)

    def get_function(self, name: str) -> Optional[Function]:
        return self._functions.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._functions

    def defined_functions(self) -> List[Function]:
        return [f for f in self._functions.values() if not f.is_declaration]

    @property
    def num_instructions(self) -> int:
        return sum(f.num_instructions for f in self._functions.values())

    # -- mutation ----------------------------------------------------------------
    def add_function(self, func: Function) -> Function:
        if func.name in self._functions and self._functions[func.name] is not func:
            raise ValueError(f"duplicate function name {func.name!r}")
        func.parent = self
        self._functions[func.name] = func
        return func

    def remove_function(self, func: Function) -> None:
        existing = self._functions.get(func.name)
        if existing is not func:
            raise ValueError(f"function {func.name!r} is not in this module")
        del self._functions[func.name]
        func.parent = None

    def declare_function(self, ftype: FunctionType, name: str) -> Function:
        """Get-or-create an external declaration."""
        existing = self._functions.get(name)
        if existing is not None:
            if existing.ftype is not ftype:
                raise ValueError(f"conflicting types for {name!r}")
            return existing
        return Function(ftype, name, parent=self, internal=False)

    def unique_name(self, base: str) -> str:
        if base not in self._functions:
            return base
        n = 1
        while f"{base}.{n}" in self._functions:
            n += 1
        return f"{base}.{n}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Module {self.name!r} ({len(self._functions)} functions)>"


def link_modules(modules: List[Module], name: str = "linked") -> Module:
    """Link *modules* into a single module, LTO-style.

    Definitions win over declarations; duplicate definitions are renamed
    (the paper notes name conflicts were handled by leaving code out — we
    rename instead, which keeps every function in play for merging).
    """
    out = Module(name)
    for mod in modules:
        for func in mod.functions:
            existing = out.get_function(func.name)
            if existing is None:
                mod.remove_function(func)
                out.add_function(func)
            elif existing.is_declaration and not func.is_declaration:
                existing.replace_all_uses_with(func)
                out.remove_function(existing)
                mod.remove_function(func)
                out.add_function(func)
            elif func.is_declaration:
                func.replace_all_uses_with(existing)
            else:
                mod.remove_function(func)
                func.name = out.unique_name(func.name)
                out.add_function(func)
    return out
