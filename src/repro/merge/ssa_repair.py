"""SSA dominance repair for merged functions (paper Section III-E).

Sharing instructions between two control-flow skeletons routinely breaks the
SSA dominance property: a value defined on one function's private path gets
used in a shared block that the other function can also reach.  Most
violations could be fixed with phi insertion; HyFM/SalSSA (and we) fall back
to *demotion*: break the use-def chain through stack memory by storing the
value right after its definition and loading it back right before each use.

Section III-E documents two bugs in HyFM's placement logic, both reproduced
here behind ``legacy_bugs=True``:

1. **Phi definition followed by other phis.**  HyFM placed the store at the
   *end* of the defining block while rewriting same-block uses to loads that
   execute *before* that store — they read stale memory.  The fix stores at
   the first legal point after the definition (right after the phi group).

2. **Invoke definition used by a phi in a successor block.**  The only legal
   load point for a phi use is in the incoming block before its terminator —
   which is *before* the invoke that defines the value.  There is no valid
   store/load placement, and none is needed: the invoke result is available
   on the normal edge, so the direct use is already correct.  The fix leaves
   that use alone; the legacy behaviour inserts the bogus load.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis.dominators import dominance_violations
from ..ir.basicblock import BasicBlock
from ..ir.function import Function, LocalNamer
from ..ir.instructions import Alloca, Instruction, Invoke, Load, Phi, Store
from .errors import MergeError

__all__ = ["repair_ssa", "find_dominance_violations", "DEMOTE_PREFIX"]

# Name prefix of the stack slots introduced by :func:`_demote_to_stack`.
# The merge-safety linter keys on it: a load from a demotion slot that no
# store reaches is precisely a §III-E placement bug.
DEMOTE_PREFIX = "demote."

# Rounds of demotion :func:`repair_ssa` runs before it reports that repair
# did not converge.
MAX_REPAIR_ROUNDS = 16


def find_dominance_violations(
    func: Function,
) -> Dict[int, Tuple[Instruction, List[Tuple[Instruction, int]]]]:
    """Map of defining-instruction id -> (def, [(user, operand_index), ...])."""
    violations: Dict[int, Tuple[Instruction, List[Tuple[Instruction, int]]]] = {}
    for op, user, idx in dominance_violations(func):
        if op.parent is None:
            continue  # a detached def has no block to store it from
        entry = violations.setdefault(id(op), (op, []))
        entry[1].append((user, idx))
    return violations


def _split_invoke_normal_edge(invoke: Invoke) -> BasicBlock:
    """Ensure the invoke's normal destination has the invoke's block as its
    only predecessor, splitting the edge if needed; returns the block where a
    store of the invoke result can legally be placed."""
    normal = invoke.normal_dest
    preds = normal.predecessors()
    if len(preds) == 1:
        return normal
    func = invoke.function
    assert func is not None
    from ..ir.instructions import Branch

    split = BasicBlock(f"{normal.name}.split", func)
    split.append(Branch(normal))
    # Retarget the invoke's normal edge and fix phis in the old target.
    for idx, op in enumerate(invoke.operands):
        if op is normal and idx == invoke.num_operands - 2:
            invoke.set_operand(idx, split)
    for phi in normal.phis():
        phi.set_incoming_block(invoke.parent, split)  # type: ignore[arg-type]
    return split


def _store_insertion_point(value: Instruction, legacy_bugs: bool) -> Tuple[BasicBlock, int]:
    """Where to store *value* to memory: (block, instruction index)."""
    block = value.parent
    assert block is not None
    if isinstance(value, Phi):
        if legacy_bugs:
            # Bug 1: store at the end of the block (before the terminator),
            # even though same-block uses will load before that point.
            index = len(block.instructions)
            if block.is_terminated:
                index -= 1
            return block, index
        return block, block.first_non_phi_index()
    if isinstance(value, Invoke):
        target = _split_invoke_normal_edge(value)
        return target, target.first_non_phi_index()
    if value.is_terminator:
        raise MergeError(f"cannot demote terminator result %{value.name}")
    return block, block.instructions.index(value) + 1


def _demote_to_stack(
    func: Function,
    value: Instruction,
    legacy_bugs: bool,
    namer: Optional[LocalNamer] = None,
) -> None:
    """Replace all uses of *value* with loads from a dedicated stack slot."""
    if namer is None:
        namer = func.namer()
    slot = Alloca(value.type)
    slot.name = namer(f"{DEMOTE_PREFIX}{value.name or 'v'}")
    func.entry.insert(0, slot)

    uses = list(value.uses())  # snapshot before we add the store

    store_block, store_index = _store_insertion_point(value, legacy_bugs)
    store_block.insert(store_index, Store(value, slot))

    for user, idx in uses:
        if not isinstance(user, Instruction):
            continue
        if isinstance(user, Phi) and idx % 2 == 0:
            incoming_block: BasicBlock = user.operand(idx + 1)  # type: ignore[assignment]
            if isinstance(value, Invoke) and incoming_block is value.parent:
                if legacy_bugs:
                    # Bug 2: a load placed before the terminator of the
                    # incoming block executes *before* the invoke defines the
                    # value — it reads whatever is in the slot.
                    load = Load(slot)
                    load.name = namer("reload")
                    incoming_block.insert_before_terminator(load)
                    user.set_operand(idx, load)
                # Fixed behaviour: the invoke result is valid on the normal
                # edge; leave the direct use in place.
                continue
            load = Load(slot)
            load.name = namer("reload")
            incoming_block.insert_before_terminator(load)
            user.set_operand(idx, load)
        else:
            load = Load(slot)
            load.name = namer("reload")
            block = user.parent
            assert block is not None
            block.insert_before(user, load)
            user.set_operand(idx, load)


def repair_ssa(
    func: Function, legacy_bugs: bool = False, max_rounds: int = MAX_REPAIR_ROUNDS
) -> int:
    """Fix all dominance violations in *func* by stack demotion.

    Returns the number of values demoted.  Raises :class:`MergeError` if the
    violations do not converge (which would indicate a merger bug).
    """
    demoted = 0
    for _round in range(max_rounds):
        violations = find_dominance_violations(func)
        if not violations:
            return demoted
        # One namer per round: the split blocks a round adds never end in
        # a digit, so they cannot collide with a name it issues.
        namer = func.namer()
        for _vid, (value, _uses) in sorted(
            violations.items(), key=lambda kv: kv[1][0].name
        ):
            _demote_to_stack(func, value, legacy_bugs, namer)
            demoted += 1
    raise MergeError(f"SSA repair did not converge after {max_rounds} rounds")
