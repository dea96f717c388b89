"""Delta-debugging reduction: shrink a failing candidate to its essence.

The reducer works on the *candidate module text* and a recorded merge
decision (the pair of functions whose merge exhibited the bug).  Its
predicate replays that one merge directly through
:func:`~repro.merge.merger.merge_functions` — deliberately bypassing the
pass's profitability gate, which exists to reject *small* merges: a
minimal reproducer is precisely a merge too small to ever be committed
in production, but the codegen bug it tickles is the same.

Two reduction loops run to fixpoint:

1. **Function drop** — delete every defined function not (transitively)
   referenced by the pair.
2. **Instruction deletion** — walk each surviving function's
   instructions last-to-first; replace each candidate instruction's
   uses with a same-typed operand (or ``undef``) and delete it.  A trial
   is kept only when the module still parses, verifies, and the replay
   predicate still produces the target bug shape.

Every trial round-trips through the printer/parser, so the final
reproducer is guaranteed to be a loadable ``.ir`` file whose replay
command (``repro fuzz --check FILE --pair A,B [--legacy-bugs]``)
reproduces the signature.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..alignment import BatchAlignmentEngine
from ..ir.instructions import Instruction
from ..ir.module import Module
from ..ir.parser import parse_module
from ..ir.printer import print_module
from ..ir.values import UndefValue
from ..ir.verifier import verify_module
from ..merge.merger import MergeOptions, merge_functions
from ..oracle.differential import DifferentialOracle, OracleConfig
from ..staticcheck.lint import demote_reload_diagnostics
from .verify import classify_diagnostic

__all__ = ["replay_shapes", "reduce_module", "module_instruction_count"]


def module_instruction_count(module: Module) -> int:
    return sum(f.num_instructions for f in module.defined_functions())


# ---------------------------------------------------------------------------
# Replay predicate
# ---------------------------------------------------------------------------


def replay_shapes(
    module: Module, pair: List[str], legacy_bugs: bool, differential: bool = True
) -> List[str]:
    """Replay one pair merge; returns every bug shape it exhibits.

    Static demote-reload shapes come from the merged function; when
    *differential* is set, oracle divergence kinds (``value-divergence``
    etc.) are appended for signatures found behaviourally.
    """
    f1 = module.get_function(pair[0])
    f2 = module.get_function(pair[1])
    if f1 is None or f2 is None or f1.is_declaration or f2.is_declaration:
        return []
    try:
        alignment = BatchAlignmentEngine().align_functions(f1, f2)
        result = merge_functions(
            alignment, module, options=MergeOptions(legacy_bugs=legacy_bugs)
        )
    except Exception:
        return []
    shapes = [
        classify_diagnostic(d.message) for d in demote_reload_diagnostics(result.merged)
    ]
    if differential:
        try:
            verdict = DifferentialOracle(OracleConfig(inputs_per_function=3)).check(result)
            shapes.extend(f"{d.kind}-divergence" for d in verdict.divergences)
        except Exception:
            pass
    return shapes


def _predicate(text: str, pair: List[str], legacy_bugs: bool, shape: str) -> bool:
    """Does *text* still reproduce *shape* when the pair is merged?"""
    try:
        module = parse_module(text)
        verify_module(module)
    except Exception:
        return False
    return shape in replay_shapes(module, pair, legacy_bugs)


# ---------------------------------------------------------------------------
# Reduction passes
# ---------------------------------------------------------------------------


def _drop_functions(text: str, pair: List[str], legacy_bugs: bool, shape: str) -> str:
    """Remove defined functions one at a time while the bug survives."""
    module = parse_module(text)
    names = [
        f.name for f in module.defined_functions() if f.name not in pair
    ]
    for name in names:
        module = parse_module(text)
        func = module.get_function(name)
        if func is None or func.num_uses != 0:
            continue  # referenced (e.g. a callee): deletion can't parse
        module.remove_function(func)
        trial = print_module(module)
        if _predicate(trial, pair, legacy_bugs, shape):
            text = trial
    return text


def _deletable(inst: Instruction) -> bool:
    return not inst.is_terminator


def _replacement(inst: Instruction):
    """A stand-in value for *inst*'s uses: a same-typed operand, else undef."""
    for op in inst.operands:
        if not isinstance(op, Instruction) and getattr(op, "type", None) is inst.type:
            return op
    for op in inst.operands:
        if getattr(op, "type", None) is inst.type:
            return op
    return UndefValue(inst.type)


def _delete_one(text: str, func_name: str, position: int) -> Optional[str]:
    """Trial text with instruction *position* of *func_name* deleted."""
    module = parse_module(text)
    func = module.get_function(func_name)
    if func is None:
        return None
    flat: List[Instruction] = [
        inst for block in func.blocks for inst in block.instructions
    ]
    if position >= len(flat):
        return None
    inst = flat[position]
    if not _deletable(inst):
        return None
    if inst.num_uses:
        inst.replace_all_uses_with(_replacement(inst))
    block = inst.parent
    if block is None:
        return None
    block.remove(inst)
    return print_module(module)


def _shrink_function(
    text: str, func_name: str, pair: List[str], legacy_bugs: bool, shape: str
) -> str:
    """Reverse-order instruction deletion over one function, to fixpoint."""
    changed = True
    while changed:
        changed = False
        module = parse_module(text)
        func = module.get_function(func_name)
        if func is None:
            return text
        count = sum(len(b.instructions) for b in func.blocks)
        for position in reversed(range(count)):
            trial = _delete_one(text, func_name, position)
            if trial is None:
                continue
            if _predicate(trial, pair, legacy_bugs, shape):
                text = trial
                changed = True
                # Positions shifted: restart this function's sweep.
                break
    return text


def reduce_module(
    text: str,
    pair: List[str],
    legacy_bugs: bool,
    shape: str,
    max_rounds: int = 8,
) -> Dict[str, object]:
    """Shrink *text* while ``merge(pair)`` still exhibits *shape*.

    Returns ``{"text", "instructions", "reproduced"}`` — when the input
    doesn't reproduce at all, it is returned unchanged with
    ``reproduced=False`` (callers keep the unreduced module as evidence).
    """
    if not _predicate(text, pair, legacy_bugs, shape):
        module = parse_module(text)
        return {
            "text": text,
            "instructions": module_instruction_count(module),
            "reproduced": False,
        }
    for _round in range(max_rounds):
        before = text
        text = _drop_functions(text, pair, legacy_bugs, shape)
        module = parse_module(text)
        for func in module.defined_functions():
            text = _shrink_function(text, func.name, pair, legacy_bugs, shape)
        if text == before:
            break
    module = parse_module(text)
    return {
        "text": text,
        "instructions": module_instruction_count(module),
        "reproduced": True,
    }
