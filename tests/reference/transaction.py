"""The clone-snapshot merge transaction the journal is tested against.

Before a commit, :class:`ReferenceMergeTransaction` clones the bodies of
both originals and of every caller into detached functions; rollback
re-clones them onto the same ``Function`` objects and rebuilds the
function table from the order it copied at construction.
:class:`ReferenceRetainingTransaction` keeps those clones when it commits,
and :class:`CloneSnapshot` undoes the committed merge from them the way
the reconcile phase undoes a retained journal.

Both transactions plug into ``FunctionMergingPass(transaction_factory=...)``
and the retaining one stands in for ``RetainingTransaction`` in
``partitioned_merging``, so a test can demand byte-identical modules,
attempt records and reconcile digests from the journal and from the
clones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.ir.clone import clone_function_into
from repro.ir.function import Function
from repro.ir.module import Module
from repro.obs import trace


@dataclass
class _FunctionBackup:
    """Detached body clone plus the mutable attributes of one function."""

    function: Function
    body: Function
    internal: bool
    name: str
    name_counter: int


def _unlink_uses(func: Function) -> None:
    """Unregister every operand use in *func* while keeping operand lists.

    Backup clones are templates, never executed or traversed through
    use-def chains; leaving their uses registered would inflate
    ``num_uses``/``callers()`` on live functions and break the dangling-use
    check during commit.
    """
    for block in func.blocks:
        for inst in block.instructions:
            for idx, op in enumerate(inst._operands):
                op._remove_use(inst, idx)


class ReferenceMergeTransaction:
    """All-or-nothing bracket around one merge attempt on *module*."""

    def __init__(self, module: Module) -> None:
        self.module = module
        self._baseline_order: List[str] = list(module._functions.keys())
        self._baseline_names = set(self._baseline_order)
        self._backups: Dict[int, _FunctionBackup] = {}
        self._closed = False

    # -- snapshotting ------------------------------------------------------------
    @property
    def captured(self) -> bool:
        """True once any function body has been snapshotted."""
        return bool(self._backups)

    def captured_functions(self) -> List[Function]:
        """The live functions whose bodies have been snapshotted."""
        return [backup.function for backup in self._backups.values()]

    def capture(self, *functions: Function) -> None:
        """Snapshot *functions* (idempotent per function)."""
        if self._closed:
            raise RuntimeError("transaction already closed")
        for func in functions:
            if func is None or id(func) in self._backups:
                continue
            backup = Function(func.ftype, func.name)
            for src, dst in zip(func.args, backup.args):
                dst.name = src.name
            clone_function_into(func, backup)
            _unlink_uses(backup)
            self._backups[id(func)] = _FunctionBackup(
                func, backup, func.internal, func.name, func._name_counter
            )

    def capture_commit_set(self, *originals: Function) -> None:
        """Snapshot *originals* plus every function calling into them."""
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
        """Keep the mutations; drop the snapshots."""
        trace.event("txn_commit", captured=len(self._backups))
        self._backups.clear()
        self._closed = True

    def rollback(self) -> None:
        """Restore the module to its state at transaction start (idempotent)."""
        if self._closed:
            return
        trace.event("txn_rollback", captured=len(self._backups))
        module = self.module
        # 1. Restore captured bodies onto the original function objects.
        for backup in self._backups.values():
            func = backup.function
            func.drop_body()
            vmap = {
                id(src): dst for src, dst in zip(backup.body.args, func.args)
            }
            clone_function_into(backup.body, func, vmap)
            func.internal = backup.internal
            func.name = backup.name
            func._name_counter = backup.name_counter
            if module._functions.get(func.name) is not func:
                func.parent = module
                module._functions[func.name] = func
        # 2. Erase anything the attempt added (e.g. the merged function).
        for func in list(module._functions.values()):
            if func.name not in self._baseline_names:
                func.erase_from_parent()
        # 3. Restore the function-table order so printing is bit-identical.
        if self._backups:
            module._functions = {
                name: module._functions[name]
                for name in self._baseline_order
                if name in module._functions
            }
        self._backups.clear()
        self._closed = True


class CloneSnapshot:
    """The clones and table order one committed merge left behind."""

    def __init__(self, backups: Dict[int, _FunctionBackup], pre_order: List[str]):
        self.backups = backups
        self.pre_order = pre_order

    def touched_names(self) -> Set[str]:
        return {backup.name for backup in self.backups.values()}

    def pre_merge_body(self, name: str) -> Optional[Function]:
        for backup in self.backups.values():
            if backup.name == name:
                return backup.body
        return None

    def undo(self, module: Module, merged_name: str) -> List[Function]:
        """Restore the module to its pre-merge state; returns the live
        functions whose bodies were restored."""
        restored: List[Function] = []
        for backup in self.backups.values():
            func = backup.function
            func.drop_body()
            vmap = {
                id(src): dst for src, dst in zip(backup.body.args, func.args)
            }
            clone_function_into(backup.body, func, vmap)
            func.internal = backup.internal
            func.name = backup.name
            func._name_counter = backup.name_counter
            if module._functions.get(func.name) is not func:
                func.parent = module
                module._functions[func.name] = func
            restored.append(func)
        merged = module.get_function(merged_name)
        if merged is not None:
            merged.erase_from_parent()
        pre = set(self.pre_order)
        order = [name for name in self.pre_order if name in module._functions]
        order.extend(
            name
            for name in module._functions
            if name not in pre and name != merged_name
        )
        module._functions = {name: module._functions[name] for name in order}
        return restored


class ReferenceRetainingTransaction(ReferenceMergeTransaction):
    """A clone-snapshot transaction whose commit keeps the snapshot."""

    def __init__(self, module: Module) -> None:
        super().__init__(module)
        self.retained: Optional[CloneSnapshot] = None

    def commit(self) -> None:
        self.retained = CloneSnapshot(
            dict(self._backups), list(self._baseline_order)
        )
        super().commit()
