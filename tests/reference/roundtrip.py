"""The text round trip the serve daemon's corpus merges used to run.

:func:`reference_clone_module` prints a module and parses it back: the
request module a corpus merge was built from before
:func:`repro.ir.clone.clone_module` copied the corpus in memory.
:func:`reference_merge_corpus` merges a database's corpus the old way, by
handing its dump to ``merge_text``, which still serves client text.
:func:`observable` is what merging can observe of a module, the state the
two must agree on.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.ir.module import Module
from repro.ir.parser import parse_module
from repro.ir.printer import print_module


def reference_clone_module(module: Module, name: str = "module") -> Module:
    """``parse_module(print_module(module), name)``."""
    return parse_module(print_module(module), name=name)


def reference_merge_corpus(db, use_result_cache: bool = False) -> Dict[str, object]:
    """*db*'s corpus merged through a print and a parse of its dump."""
    return db.merge_text(db.dump(), use_result_cache=use_result_cache)


def observable(module: Module) -> Tuple[str, List[tuple], List[list]]:
    """*module*'s text, each function's name, linkage and argument names,
    and the use list of every function, argument, block and instruction in
    text order, each use as its user's position and operand index."""
    where = {}
    values = []
    for f, func in enumerate(module.functions):
        values.append(func)
        values.extend(func.args)
        for b, block in enumerate(func.blocks):
            values.append(block)
            for i, inst in enumerate(block.instructions):
                where[id(inst)] = (f, b, i)
                values.append(inst)
    headers = [(f.name, f.internal, [a.name for a in f.args]) for f in module.functions]
    uses = [[(where[id(user)], slot) for user, slot in v.uses()] for v in values]
    return print_module(module), headers, uses
