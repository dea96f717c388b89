"""Call-site redirection and thunk generation for committed merges.

After a profitable merge, every direct call to an original function is
rewritten to call the merged function with the appropriate function-id
constant.  Originals that may be referenced indirectly (address taken) or
from outside the module (external linkage) are kept as one-block *thunks*;
everything else is deleted outright.
"""

from __future__ import annotations

from typing import List, Optional

from ..faults import FaultInjector
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import Branch, Call, Instruction, Invoke, Ret
from ..ir.types import I1
from ..ir.values import ConstantInt, UndefValue, Value
from .errors import CommitError
from .merger import MergeResult
from .transaction import Journal, journal_for

__all__ = ["commit_merge", "rewrite_call_sites", "make_thunk", "thunk_target"]


def thunk_target(func: Function) -> Optional[Call]:
    """The forwarding call if *func* has :func:`make_thunk` shape, else ``None``.

    A thunk is a single block holding exactly a direct call plus a ``ret``
    of that call's result (or ``ret void``).  Callers — notably the
    translation validator — use this to redirect a call *through* the
    thunk to the underlying merged function; the rewrite is
    behaviour-preserving for any function of this shape, thunk or not.
    """
    blocks = func.blocks
    if len(blocks) != 1:
        return None
    insts = blocks[0].instructions
    if len(insts) != 2:
        return None
    call, ret = insts
    if not isinstance(call, Call) or not isinstance(ret, Ret):
        return None
    if not isinstance(call.callee, Function):
        return None
    if ret.value is not None and ret.value is not call:
        return None
    return call


def _merged_args(
    merged: Function, param_map: List[int], originals: List[Value], fid: int
) -> List[Value]:
    """Argument vector for a call to *merged* standing in for an original."""
    args: List[Value] = [
        UndefValue(p.type) for p in merged.args
    ]
    args[0] = ConstantInt(I1, fid)
    for value, slot in zip(originals, param_map):
        args[slot] = value
    return args


def rewrite_call_sites(
    original: Function,
    merged: Function,
    param_map: List[int],
    fid: int,
    journal: Optional[Journal] = None,
) -> int:
    """Retarget every direct call/invoke of *original* to *merged*.

    Each replaced site moves into *journal* (by default the module's open
    journal, :func:`~repro.merge.transaction.journal_for`), so the
    rewrite can be undone.
    """
    if journal is None:
        journal = journal_for(original.parent)
    rewritten = 0
    for site in original.callers():
        block = site.parent
        if block is None:
            continue
        new_inst: Instruction
        if isinstance(site, Call):
            new_inst = Call(merged, _merged_args(merged, param_map, list(site.args), fid))
        elif isinstance(site, Invoke):
            new_inst = Invoke(
                merged,
                _merged_args(merged, param_map, list(site.args), fid),
                site.normal_dest,
                site.unwind_dest,
            )
        else:  # pragma: no cover - callers() only returns calls/invokes
            continue
        new_inst.name = site.name
        block.insert_before(site, new_inst)
        site.replace_all_uses_with(new_inst)
        journal.replace_instruction(site, new_inst)
        rewritten += 1
    return rewritten


def make_thunk(
    original: Function,
    merged: Function,
    param_map: List[int],
    fid: int,
    journal: Optional[Journal] = None,
) -> None:
    """Replace *original*'s body with a tail-call into *merged*; the old
    body moves into *journal* (by default the module's open journal)."""
    if journal is None:
        journal = journal_for(original.parent)
    journal.detach_body(original)
    entry = BasicBlock("entry", original)
    call = Call(merged, _merged_args(merged, param_map, list(original.args), fid))
    call.name = "fwd" if not call.type.is_void else ""
    entry.append(call)
    entry.append(Ret(None if original.return_type.is_void else call))


def commit_merge(
    result: MergeResult,
    faults: Optional[FaultInjector] = None,
    journal: Optional[Journal] = None,
) -> None:
    """Apply a profitable merge to the module: redirect, thunk or delete.

    Not atomic on its own — a failure part-way (including one injected via
    *faults*, which fires between the two originals so the module is
    genuinely half-rewritten) leaves the module inconsistent.  Every
    call-site rewrite, thunked body and erased original is logged in
    *journal*, by default the module's open journal: the pass wraps this
    call in a :class:`~repro.merge.transaction.MergeTransaction`, whose
    rollback (or the reconcile phase's undo of a retained commit) replays
    the log backwards onto the same objects.  With no transaction open the
    log is a throwaway one and the merge simply stands.
    """
    merged = result.merged
    module = merged.parent
    if module is None:
        raise CommitError("merged function must be in a module")
    if journal is None:
        journal = journal_for(module)
    for index, (func, param_map, fid) in enumerate(
        (
            (result.function_a, result.param_map_a, 0),
            (result.function_b, result.param_map_b, 1),
        )
    ):
        if index == 1 and faults is not None:
            faults.hit("commit")
        rewrite_call_sites(func, merged, param_map, fid, journal)
        if func.address_taken or not func.internal:
            make_thunk(func, merged, param_map, fid, journal)
        else:
            if func.num_uses != 0:
                raise CommitError(f"dangling uses of @{func.name}")
            journal.erase(func)
