"""Transactional protection for merge attempts.

Committing a merge is a multi-step module mutation — rewrite every call
site of both originals, thunk or delete the originals — and any failure
part-way through (a codegen bug, a vetoed oracle check, an injected
fault) would otherwise leave the module half-rewritten.  A
:class:`MergeTransaction` brackets one attempt, and its :class:`Journal`
logs the inverse of every mutation the commit makes through it:

* a call-site rewrite keeps the old site (with its operand list), and
  the new instruction that took its place;
* a body the commit drops (an original turned into a thunk, or erased)
  is *moved* into the journal with its operand uses unregistered, so it
  counts as no uses on the live module, together with the ``internal``,
  ``name`` and ``_name_counter`` attributes and argument names it may
  overwrite;
* an erased function keeps its place through the function-table order,
  recorded once, the first time the table changes.

:meth:`MergeTransaction.rollback` replays the journal backwards onto the
*same* objects (identity is preserved — rankers and worklists keep
working), erases every function the attempt added (the merged function
codegen appended) and restores the table order, so the module prints
bit-identically to its pre-attempt state.  :meth:`MergeTransaction.commit`
keeps the mutations and leaves the journal to the garbage collector.

Once a transaction captures, its journal is the module's open journal
until it closes: ``commit_merge`` and its helpers log into the journal
:func:`journal_for` returns, so a commit cannot mutate the module behind
the transaction's back.  Outside a transaction they log into a throwaway
journal that is never replayed.

A commit therefore costs what it changes — a few call sites and two
bodies moved aside — never the size of its callers, and an attempt that
changed nothing copies and scans nothing: the transaction remembers only
the last function of the table, and mutations outside the journal can
only append after it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..ir.function import Function
from ..ir.instructions import Instruction
from ..ir.module import Module
from ..obs import trace

__all__ = ["Journal", "MergeTransaction", "journal_for"]

# Journal entries, replayed last-first:
#   ("site", old, new)           -- *new* took call site *old*'s place
#   ("body", func, blocks, internal, name, counter, arg_names)
#   ("erase", func)              -- *func* left the function table


class Journal:
    """The inverse operations of the module mutations made through it.

    ``touched`` holds every function whose body a commit (or its undo)
    may mutate, in the order they were named — the set callers use to
    invalidate body-derived memos.
    """

    def __init__(self, module: Module) -> None:
        self.module = module
        # Mutations outside the journal (codegen adding the merged
        # function, the serve delta creating functions) only append to
        # the table, so everything after this function is an addition.
        self._tail: Optional[Function] = next(
            reversed(module._functions.values()), None
        )
        # The table order at the start, recorded the first time the
        # journal changes the table (None while it has not).
        self._baseline: Optional[List[str]] = None
        self._entries: List[Tuple] = []
        # The "site" entries by the function the new instruction sits in,
        # so detach_body finds the sites inside a body without a scan.
        self._sites: Dict[Function, List[Tuple]] = {}
        self.touched: Dict[int, Function] = {}

    def touch(self, func: Function) -> None:
        self.touched.setdefault(id(func), func)

    # -- recording mutations -------------------------------------------------------
    def replace_instruction(self, old: Instruction, new: Instruction) -> None:
        """Take *old* out of its block once *new* stands in its place and
        has its uses: its operand uses are unregistered, its operand list
        kept."""
        old.parent.remove(old)
        old.unlink_operands()
        entry = ("site", old, new)
        self._entries.append(entry)
        self._sites.setdefault(new.function, []).append(entry)

    def detach_body(self, func: Function) -> None:
        """Move *func*'s body into the journal, leaving a declaration.

        Call sites the journal rewrote inside the body are put back
        first, so the body leaves the module as it was before the commit.
        """
        self.touch(func)
        inside = self._sites.pop(func, None)
        if inside:
            for entry in reversed(inside):
                self._undo_site(entry)
            undone = set(map(id, inside))
            self._entries = [e for e in self._entries if id(e) not in undone]
        self._entries.append(
            (
                "body",
                func,
                func.detach_body(),
                func.internal,
                func.name,
                func._name_counter,
                [arg.name for arg in func.args],
            )
        )

    def erase(self, func: Function) -> None:
        """Move *func*'s body into the journal and take it out of the
        function table."""
        self.record_order()
        self.detach_body(func)
        self.module.remove_function(func)
        self._entries.append(("erase", func))

    def record_order(self) -> None:
        """Record the table order at the start, if not yet recorded: the
        current order minus what was appended since."""
        if self._baseline is None:
            table = self.module._functions
            self._baseline = list(table)[: len(table) - self._appended()]

    def _appended(self) -> int:
        """How many functions were appended to the table since the start
        (while the journal has not changed the table)."""
        table = self.module._functions
        if self._tail is None:
            return len(table)
        if table.get(self._tail.name) is not self._tail:
            raise RuntimeError("function table changed outside the journal")
        added = 0
        for func in reversed(table.values()):
            if func is self._tail:
                break
            added += 1
        return added

    # -- replaying ---------------------------------------------------------------------
    @staticmethod
    def _undo_site(entry: Tuple) -> None:
        _, old, new = entry
        new.parent.insert_before(new, old)
        old.link_operands()
        new.replace_all_uses_with(old)
        new.erase_from_parent()

    def _replay(self) -> None:
        """Undo every recorded mutation, last first."""
        module = self.module
        for entry in reversed(self._entries):
            kind = entry[0]
            if kind == "site":
                self._undo_site(entry)
            elif kind == "body":
                _, func, blocks, internal, name, counter, arg_names = entry
                func.attach_body(blocks)
                func.internal = internal
                func.name = name
                func._name_counter = counter
                for arg, arg_name in zip(func.args, arg_names):
                    arg.name = arg_name
            else:
                func = entry[1]
                func.parent = module
                module._functions[func.name] = func
        self._entries.clear()
        self._sites.clear()

    def rollback(self) -> None:
        """Restore the module to its state when the journal started."""
        self._replay()
        module = self.module
        table = module._functions
        if self._baseline is None:
            for _ in range(self._appended()):
                next(reversed(table.values())).erase_from_parent()
            return
        keep = set(self._baseline)
        for name in [name for name in table if name not in keep]:
            table[name].erase_from_parent()
        self._reorder()

    def _reorder(self) -> None:
        """The baseline functions still present in their recorded order,
        then the rest in their current order."""
        table = self.module._functions
        keep = set(self._baseline)
        order = [name for name in self._baseline if name in table]
        order.extend(name for name in table if name not in keep)
        self.module._functions = {name: table[name] for name in order}

    # -- undoing a retained commit -----------------------------------------------------
    def touched_names(self) -> Set[str]:
        return {func.name for func in self.touched.values()}

    def pre_merge_body(self, name: str) -> Optional[Function]:
        """A read-only view of the body the commit moved out of the
        function called *name*: its blocks are the journal's, as they
        were before the commit.  Fingerprint the view, never mutate it."""
        for entry in self._entries:
            if entry[0] == "body" and entry[1].name == name:
                func = entry[1]
                view = Function(func.ftype, func.name)
                view.blocks = entry[2]
                return view
        return None

    def undo(self, module: Module, merged_name: str) -> List[Function]:
        """Undo a committed merge after later commits; returns the
        functions whose bodies were restored.

        Erases the merged function the commit created and rebuilds the
        table order as if the merge never ran: functions added by later
        commits keep their positions after the restored ones, which is
        exactly where they would have been appended.  Needs
        :meth:`record_order` to have run when the merge committed.
        """
        restored = list(self.touched.values())
        self._replay()
        merged = module.get_function(merged_name)
        if merged is not None:
            merged.erase_from_parent()
        self._reorder()
        return restored


def journal_for(module: Module) -> Journal:
    """The journal a mutation of *module* must be logged in: the open
    transaction's, or a throwaway one when no transaction is capturing
    (its log is never replayed, so the mutation simply stands)."""
    journal = module.open_journal
    return journal if journal is not None else Journal(module)


class MergeTransaction:
    """All-or-nothing bracket around one merge attempt on *module*."""

    def __init__(self, module: Module) -> None:
        self.module = module
        self.journal = Journal(module)
        self._closed = False

    # -- the commit set ------------------------------------------------------------
    @property
    def captured(self) -> bool:
        """True once any function has been named for mutation."""
        return bool(self.journal.touched)

    def captured_functions(self) -> List[Function]:
        """The live functions a commit (or its rollback) may mutate.

        The set callers use to invalidate body-derived memos (alignment
        encodings, block fingerprints, profitability profiles).
        """
        return list(self.journal.touched.values())

    def capture(self, *functions: Function) -> None:
        """Name *functions* as about to be mutated (idempotent per function).

        Nothing is copied: this only adds them to the touched set and
        makes :attr:`journal` the module's open journal, so that
        ``commit_merge`` and its helpers log into it until the transaction
        closes.  Rollback undoes exactly what went through the journal.
        """
        if self._closed:
            raise RuntimeError("transaction already closed")
        self.module.open_journal = self.journal
        for func in functions:
            if func is not None:
                self.journal.touch(func)

    def capture_commit_set(self, *originals: Function) -> None:
        """Name *originals* plus every function calling into them."""
        affected = list(originals)
        for func in originals:
            for site in func.callers():
                block = site.parent
                caller = block.parent if block is not None else None
                if caller is not None:
                    affected.append(caller)
        self.capture(*affected)

    # -- resolution --------------------------------------------------------------
    def commit(self) -> None:
        """Keep the mutations; the journal is never replayed."""
        trace.event("txn_commit", captured=len(self.journal.touched))
        self._close()

    def rollback(self) -> None:
        """Restore the module to its state at transaction start.

        Idempotent: a second call (or a call after :meth:`commit`) is a
        no-op so failure-path cleanup can never mask the original error.
        """
        if self._closed:
            return
        trace.event("txn_rollback", captured=len(self.journal.touched))
        self.journal.rollback()
        self._close()

    def _close(self) -> None:
        if self.module.open_journal is self.journal:
            self.module.open_journal = None
        self._closed = True
