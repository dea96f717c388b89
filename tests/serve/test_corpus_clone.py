"""The daemon's in-memory corpus copy against the text round trip.

``merge corpus=true`` builds its request module with
:func:`repro.ir.clone.clone_module` instead of printing and parsing the
corpus.  Merged code depends on the order in which values list their
uses, so the copy must equal ``parse_module(print_module(corpus))``
(:func:`tests.reference.reference_clone_module`) in text, linkage,
argument names and every use list, with fresh constants, after any
sequence of deltas: adds, rewrites, removals that demote a called
function to a declaration or erase an uncalled one, ``max_functions``
evictions and a rolled-back ``serve_commit`` fault.  The merged text must
equal the old path's, a merge of the dump
(:func:`tests.reference.reference_merge_corpus`).
"""

from __future__ import annotations

import random

import pytest

from repro.faults import FaultInjector, InjectedFault
from repro.harness.serve_bench import declare_external_callees
from repro.ir.clone import clone_module
from repro.ir.module import Module
from repro.ir.printer import print_module
from repro.ir.values import Constant
from repro.ir.verifier import verify_module
from repro.serve import FingerprintDatabase, ServeConfig
from repro.workloads.mutate import make_variant
from repro.workloads.suites import build_workload
from tests.reference import observable, reference_clone_module, reference_merge_corpus

#: A value used in a block placed before its dominating definition (``%x``
#: in ``%use``), phi back edges, a phi that uses itself, and a value with
#: uses both before and after its definition (``%n``).  Two copies that
#: differ in one constant, so the pass can merge them.
FORWARD = """
define i32 @{name}(i32 %a) {{
entry:
  br label %def
use:
  %y = add i32 %x, 1
  br label %loop
loop:
  %i = phi i32 [ %y, %use ], [ %n, %loop ]
  %s = phi i32 [ %x, %use ], [ %s, %loop ]
  %n = add i32 %i, %s
  %c = icmp slt i32 %n, {bound}
  br i1 %c, label %loop, label %exit
exit:
  ret i32 %n
def:
  %x = mul i32 %a, 2
  br label %use
}}
"""

FORWARD_TEXT = FORWARD.format(name="fwd.a", bound=100) + FORWARD.format(
    name="fwd.b", bound=200
)

OPS = ("forward", "add", "rewrite", "demote", "erase", "fault")


def _constants(module: Module):
    return [
        (inst, slot, op)
        for func in module.functions
        for inst in func.instructions()
        for slot, op in enumerate(inst.operands)
        if isinstance(op, Constant)
    ]


def _check(db: FingerprintDatabase) -> None:
    corpus = db.module
    built = clone_module(corpus, name="request")
    oracle = reference_clone_module(corpus, name="request")
    assert observable(built) == observable(oracle)
    # One fresh constant per operand, as the parser makes them.
    resident = {id(op) for _, _, op in _constants(corpus)}
    constants = _constants(built)
    assert len({id(op) for _, _, op in constants}) == len(constants)
    for inst, slot, op in constants:
        assert id(op) not in resident
        assert list(op.uses()) == [(inst, slot)]
    verify_module(built)
    # Cached, so a step that rolled back is served at the version before it.
    assert db.merge_corpus()["module"] == reference_merge_corpus(db)["module"]


def _delta(db, rng, names, new_names=()):
    """Variants of *names* under their own names and of random corpus
    functions under *new_names*, as submit text."""
    delta = Module("delta")
    pool = sorted(db.snapshot.entries)
    for name in names:
        make_variant(db.module.get_function(name), name, rng, 2, delta)
    for name in new_names:
        make_variant(db.module.get_function(rng.choice(pool)), name, rng, 3, delta)
    for func in delta.defined_functions():
        func.uniquify_names()  # mutation can repeat a local name
    declare_external_callees(delta)
    return print_module(delta)


def _step(db: FingerprintDatabase, rng: random.Random, op: str, step: int) -> None:
    entries = sorted(db.snapshot.entries)
    callers = {n: bool(db.module.get_function(n).callers()) for n in entries}
    if op == "forward":
        db.apply_delta(module_text=FORWARD_TEXT)
    elif op == "add":
        new = [f"add{step}.{j}" for j in range(3)]
        db.apply_delta(module_text=_delta(db, rng, [], new))
    elif op == "rewrite":
        db.apply_delta(module_text=_delta(db, rng, rng.sample(entries, 3)))
    elif op == "demote":
        victim = rng.choice([n for n in entries if callers[n]])
        db.apply_delta(removed=[victim])
        assert db.module.get_function(victim).is_declaration
    elif op == "erase":
        victim = rng.choice([n for n in entries if not callers[n]])
        db.apply_delta(removed=[victim])
        assert db.module.get_function(victim) is None
    elif op == "fault":
        text = _delta(db, rng, rng.sample(entries, 2), [f"lost{step}"])
        db.faults = FaultInjector("serve_commit")
        with pytest.raises(InjectedFault):
            db.apply_delta(module_text=text)
        db.faults = None
        assert db.module.get_function(f"lost{step}") is None
    else:  # pragma: no cover - OPS is exhaustive
        raise AssertionError(op)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_clone_equals_round_trip_after_random_deltas(seed):
    rng = random.Random(seed)
    corpus = build_workload(24, name=f"clone{seed}")
    # A full corpus: the ops add five functions and remove at most four,
    # so some add evicts.
    cap = len(corpus.defined_functions())
    db = FingerprintDatabase(ServeConfig(max_functions=cap))
    db.apply_delta(module_text=print_module(corpus))
    _check(db)
    ops = list(OPS) + [rng.choice(("rewrite", "demote", "erase")) for _ in range(2)]
    rng.shuffle(ops)
    for step, op in enumerate(ops):
        version = db.version
        _step(db, rng, op, step)
        assert db.version == version + (op != "fault")
        _check(db)
    assert db.evicted_functions > 0
    assert db.rollbacks == 1
