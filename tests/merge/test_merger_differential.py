"""The merger against the two-phase generator it replaced.

The merger emits the :class:`~repro.merge.layout.MergePlan` that the
profitability bound prices: it clones each planned instruction once and
sets its operands in plan order.  ``tests/reference/merger.py`` keeps the
generator that cloned every instruction with placeholder operands and
dummy blocks and patched them in a second walk.  On every codegen of the
bound grid, and on generated pairs (loops with phis, invokes, switches,
crossed block pairs, edges from unreachable blocks), both must print the
same merged function, fill the same :class:`MergeResult` fields and raise
the same :class:`MergeError` messages.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.linearizer import linearize_blocks
from repro.harness.experiments import make_ranker
from repro.ir.basicblock import BasicBlock
from repro.ir.instructions import BinaryOp, Branch, Cast, Opcode, Switch
from repro.ir.module import Module
from repro.ir.parser import parse_module
from repro.ir.printer import print_function, print_module
from repro.ir.types import I1, I32
from repro.ir.values import ConstantInt, UndefValue
from repro.ir.verifier import verify_module
from repro.merge import pass_ as pass_module
from repro.merge.errors import MergeError
from repro.merge.layout import BlockLayout
from repro.merge.merger import MergeOptions, merge_functions
from repro.merge.pass_ import FunctionMergingPass, PassConfig
from repro.workloads import build_workload
from repro.workloads.generator import FunctionGenerator, GeneratorConfig
from repro.workloads.mutate import make_variant, mutate_function_danger
from repro.workloads.suites import WorkloadConfig
from tests.reference.alignment import align_functions
from tests.reference.merger import reference_merge_functions


def _outcome(merge, alignment, module, legacy, layout=None):
    """(what *merge* made of the pair, the result or None); the merged
    function stays in *module*."""
    try:
        result = merge(alignment, module, options=MergeOptions(legacy_bugs=legacy), layout=layout)
    except MergeError as error:
        return ("error", str(error)), None
    made = (
        print_function(result.merged),
        result.param_map_a,
        result.param_map_b,
        result.num_selects,
        result.num_shared,
        result.num_private,
        result.repairs,
    )
    return made, result


@pytest.mark.parametrize("legacy", [False, True])
@pytest.mark.parametrize("seed", range(1, 9))
def test_bound_grid_matches_reference(monkeypatch, seed, legacy):
    """Every codegen of the grid: seeds 1-8 x f3m/hyfm x linear/nw, with
    ``legacy_bugs`` off and on.  The merger reads the plan the bound
    priced; the reference builds its own layout."""
    real_merge = pass_module.merge_functions
    compared = []

    def merge_both(alignment, module, options, layout=None):
        reference, made = _outcome(reference_merge_functions, alignment, module, legacy)
        if made is not None:
            made.merged.erase_from_parent()
        if layout is None:
            layout = BlockLayout(alignment)
            layout.price()
        outcome, result = _outcome(real_merge, alignment, module, legacy, layout)
        compared.append((outcome, reference))
        if result is None:
            raise MergeError(outcome[1])
        return result

    monkeypatch.setattr(pass_module, "merge_functions", merge_both)
    text = print_module(build_workload(200, "bound", WorkloadConfig(seed=seed)))
    for strategy in ("f3m", "hyfm"):
        for alignment in ("linear", "nw"):
            config = PassConfig(
                prealign_bound=False, verify=False, alignment=alignment, legacy_bugs=legacy
            )
            FunctionMergingPass(make_ranker(strategy), config).run(parse_module(text))
    assert len(compared) > 100
    assert [pair for pair in compared if pair[0] != pair[1]] == []
    assert any(outcome[3] for outcome, _ in compared), "no merge needed a select"
    assert any(outcome[6] for outcome, _ in compared), "no merge needed SSA repair"


# -- generated pairs ----------------------------------------------------------------


def _conditional_branches(func):
    return [
        block.terminator
        for block in func.blocks
        if isinstance(block.terminator, Branch) and block.terminator.is_conditional
    ]


def _swap_arms(func, rng: random.Random) -> None:
    """Negate some branch conditions and swap their targets: same
    behaviour, successors visited in the other order, so block pairing
    crosses."""
    for branch in _conditional_branches(func):
        if rng.random() < 0.5:
            cond, if_true, if_false = branch.operands
            negated = BinaryOp(Opcode.XOR, cond, ConstantInt(I1, 1), func.next_name("not"))
            branch.parent.insert_before(branch, negated)
            branch.set_operand(0, negated)
            branch.set_operand(1, if_false)
            branch.set_operand(2, if_true)


def _to_switches(func, rng: random.Random) -> None:
    """Rewrite some conditional branches as a switch on the condition."""
    for branch in _conditional_branches(func):
        if rng.random() < 0.3:
            block = branch.parent
            cond, if_true, if_false = branch.operands
            branch.erase_from_parent()
            index = Cast(Opcode.ZEXT, cond, I32, func.next_name("case"))
            block.append(index)
            switch = Switch(index, if_false)
            switch.add_case(ConstantInt(I32, 1), if_true)
            block.append(switch)


def _add_dead_edge(func, rng: random.Random) -> None:
    """Branch from a block no edge reaches into a block with phis: the
    alignment leaves the dead block out, so the merger must reject the
    pair."""
    targets = [block for block in func.blocks if block.phis()]
    if not targets:
        return
    target = rng.choice(targets)
    dead = BasicBlock(func.next_name("dead"), func)
    dead.append(Branch(target))
    for phi in target.phis():
        phi.add_incoming(UndefValue(phi.type), dead)


def _pair_text(seed: int) -> str:
    """A module with a function @f and a mutated, re-shaped variant @g."""
    rng = random.Random(seed)
    module = Module(f"pair.{seed}")
    generator = FunctionGenerator(module, rng, GeneratorConfig(max_ops=16, max_depth=2))
    for i in range(2):
        generator.generate(f"callee{i}")  # something for @f to call and invoke
    base = generator.generate("f")
    variant = make_variant(base, "g", rng, rng.randint(0, 3))
    for func in (base, variant):
        if rng.random() < 0.6:
            mutate_function_danger(func, rng, 2, danger_bias=0.9)
        _swap_arms(func, rng)
        _to_switches(func, rng)
        if rng.random() < 0.15:
            _add_dead_edge(func, rng)
    for func in module.defined_functions():
        func.uniquify_names()
    verify_module(module)
    return print_module(module)


def _compare(text: str) -> list:
    """Merge @f and @g with both generators, for both strategies and both
    ``legacy_bugs`` settings, each on a fresh parse; returns the merger's
    outcomes after asserting them equal to the reference's."""
    outcomes = []
    for strategy in ("linear", "nw"):
        for legacy in (False, True):
            made = []
            for merge in (merge_functions, reference_merge_functions):
                module = parse_module(text)
                f, g = module.get_function("f"), module.get_function("g")
                made.append(_outcome(merge, align_functions(f, g, strategy), module, legacy)[0])
            assert made[0] == made[1]
            outcomes.append(made[0])
    return outcomes


@given(st.integers(min_value=0, max_value=2**20))
@settings(max_examples=60, deadline=None)
def test_generated_pairs_match_reference(seed):
    _compare(_pair_text(seed))


def _crossed(text: str) -> bool:
    """True when block pairing pairs the blocks of @f and @g out of order."""
    module = parse_module(text)
    f, g = module.get_function("f"), module.get_function("g")
    alignment = align_functions(f, g)
    position = {id(block): i for i, block in enumerate(linearize_blocks(g))}
    order = [position[id(pair.block_b)] for pair in alignment.block_pairs]
    return order != sorted(order)


def test_generator_reaches_every_shape():
    """The generated pairs cover what the property claims: phis, invokes,
    switches, crossed block pairs, selects, SSA repair and rejected
    pairs."""
    texts = [_pair_text(seed) for seed in range(40)]
    for token in (" phi ", " invoke ", " switch "):
        assert any(token in text for text in texts), token
    assert any(_crossed(text) for text in texts)
    outcomes = [o for text in texts for o in _compare(text)]
    assert any(o[0] == "error" for o in outcomes)
    assert any(o[0] != "error" and o[3] for o in outcomes)
    assert any(o[0] != "error" and o[6] for o in outcomes)
