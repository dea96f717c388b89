"""Identical-function merging — the classic GCC/LLVM ``mergefunc`` baseline.

Paper Section V: "Established compilers ... provide a target-independent
optimization for merging identical functions at the IR level.  Merging only
identical candidates allows for an efficient exploration based on a hashing
strategy, since identical functions have identical hashes."

We hash each function's canonical structural form (uniquified textual
printing with the name stripped); functions in the same hash bucket are
checked for exact structural equality, then all copies are redirected to
one representative.  This is both a baseline for the evaluation and a
pre-pass users can run before similarity-based merging.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List

from ..fingerprint.fnv import fnv1a_32
from ..ir.clone import clone_function
from ..ir.function import Function
from ..ir.module import Module
from ..ir.printer import print_function

__all__ = ["IdenticalMergeReport", "structural_hash", "merge_identical_functions"]


def _canonical_text(func: Function) -> str:
    """Canonical body text: clone, uniquify names, strip the symbol name.

    Cloning keeps canonicalization from renaming the user's values.
    """
    scratch = clone_function(func, "__canon__")
    scratch.uniquify_names()
    text = print_function(scratch)
    scratch.drop_body()
    # Remove the function name so identical bodies with different symbol
    # names hash equal; the parameter list stays (signatures must match).
    header_end = text.index("(")
    return text[: text.index("@")] + text[header_end:]


def structural_hash(func: Function) -> int:
    """A 32-bit hash equal for structurally identical functions."""
    return fnv1a_32(_canonical_text(func).encode("utf-8"))


@dataclass
class IdenticalMergeReport:
    groups: int = 0
    functions_removed: int = 0
    call_sites_rewritten: int = 0
    time: float = 0.0
    representative_of: Dict[str, str] = field(default_factory=dict)


def merge_identical_functions(module: Module) -> IdenticalMergeReport:
    """Fold every set of structurally identical functions into one.

    Internal duplicates are deleted outright after their call sites are
    redirected; externally-visible or address-taken duplicates keep their
    symbol but become thunk-free aliases (their body is replaced by a tail
    call), mirroring LLVM's ``mergefunc`` behaviour.
    """
    report = IdenticalMergeReport()
    start = time.perf_counter()

    buckets: Dict[int, List[Function]] = {}
    texts: Dict[int, str] = {}
    for func in module.defined_functions():
        h = structural_hash(func)
        buckets.setdefault(h, []).append(func)
        texts[id(func)] = _canonical_text(func)

    for bucket in buckets.values():
        if len(bucket) < 2:
            continue
        # Group by exact canonical text (hash collisions are possible).
        by_text: Dict[str, List[Function]] = {}
        for func in bucket:
            by_text.setdefault(texts[id(func)], []).append(func)
        for group in by_text.values():
            if len(group) < 2:
                continue
            report.groups += 1
            representative = group[0]
            for dup in group[1:]:
                report.representative_of[dup.name] = representative.name
                # Identical signature: forward call sites argument-for-
                # argument by RAUW on the callee operand.
                for site in dup.callers():
                    site.set_operand(0, representative)
                    report.call_sites_rewritten += 1
                if dup.address_taken or not dup.internal:
                    from ..ir.basicblock import BasicBlock
                    from ..ir.instructions import Call, Ret

                    dup.drop_body()
                    entry = BasicBlock("entry", dup)
                    call = Call(representative, list(dup.args))
                    if not call.type.is_void:
                        call.name = "fwd"
                    entry.append(call)
                    entry.append(
                        Ret(None if dup.return_type.is_void else call)
                    )
                else:
                    dup.erase_from_parent()
                    report.functions_removed += 1

    report.time = time.perf_counter() - start
    return report
