"""CFG traversals and utilities."""

from __future__ import annotations

from typing import Dict, List, Set

from ..ir.basicblock import BasicBlock
from ..ir.function import Function

__all__ = [
    "reverse_postorder",
    "postorder",
    "reachable_blocks",
    "remove_unreachable_blocks",
]


def postorder(func: Function) -> List[BasicBlock]:
    """Blocks of *func* in DFS postorder from the entry block."""
    if func.is_declaration:
        return []
    entry = func.entry
    seen: Set[int] = {id(entry)}
    order: List[BasicBlock] = []
    # Iterative DFS (functions in large workloads can have deep CFGs).
    # Three parallel stacks — block, its successor list, resume index — keep
    # the loop allocation-free on the hot fingerprinting path.
    blocks: List[BasicBlock] = [entry]
    succs: List[List[BasicBlock]] = [entry.successors()]
    idxs: List[int] = [0]
    while blocks:
        here = succs[-1]
        i = idxs[-1]
        n = len(here)
        while i < n and id(here[i]) in seen:
            i += 1
        if i < n:
            idxs[-1] = i + 1
            nxt = here[i]
            seen.add(id(nxt))
            blocks.append(nxt)
            succs.append(nxt.successors())
            idxs.append(0)
        else:
            order.append(blocks.pop())
            succs.pop()
            idxs.pop()
    return order


def reverse_postorder(func: Function) -> List[BasicBlock]:
    order = postorder(func)
    order.reverse()
    return order


def reachable_blocks(func: Function) -> Set[int]:
    """Ids of blocks reachable from the entry."""
    return {id(b) for b in postorder(func)}


def remove_unreachable_blocks(func: Function) -> int:
    """Delete blocks not reachable from the entry; returns the number removed.

    Phi nodes in surviving blocks lose incoming entries from deleted blocks.
    """
    if func.is_declaration:
        return 0
    live = reachable_blocks(func)
    dead = [b for b in func.blocks if id(b) not in live]
    for block in dead:
        term = block.terminator
        if term is not None:
            for succ in term.successors():
                if id(succ) in live:
                    for phi in succ.phis():
                        while phi.incoming_for(block) is not None:
                            phi.remove_incoming(block)
        block.erase_from_parent()
    return len(dead)
