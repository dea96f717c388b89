"""The two-walk verifier against the four walks it replaced.

``tests/reference/verifier.py`` keeps the old verifier: separate loops for
block shape, phis against every block's use-list predecessors, operand
scope and returns, then the reference dominance analysis.  On generated
modules, on merged modules whose legacy SSA repair leaves dominance
violations, on the corruption cases of ``tests/ir/test_verifier.py`` and on
generated functions that hypothesis corrupts, both must raise the same
diagnostics: same checker, message, block, instruction and order.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.experiments import make_ranker
from repro.ir import (
    BasicBlock,
    BinaryOp,
    Branch,
    ConstantInt,
    Function,
    FunctionType,
    I32,
    IRBuilder,
    Module,
    Opcode,
    Phi,
    Ret,
    VerificationError,
    verify_function,
    verify_module,
)
from repro.merge import FunctionMergingPass, PassConfig
from repro.merge import merger as merger_module
from repro.workloads.suites import WorkloadConfig, build_workload
from tests.conftest import build_diamond, build_loop, build_straightline
from tests.reference.verifier import reference_verify_function, reference_verify_module


def _outcome(verify, unit):
    try:
        verify(unit)
    except VerificationError as exc:
        return ("error", [d.to_dict() for d in exc.diagnostics])
    return ("ok",)


def assert_same(func):
    expected = _outcome(reference_verify_function, func)
    assert _outcome(verify_function, func) == expected
    return expected


def assert_same_module(module):
    expected = _outcome(reference_verify_module, module)
    assert _outcome(verify_module, module) == expected
    return expected


class TestValidModules:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_generated_modules(self, seed):
        module = build_workload(120, "vdiff", WorkloadConfig(seed=seed))
        assert assert_same_module(module) == ("ok",)

    @pytest.mark.parametrize("strategy", ["hyfm", "f3m"])
    def test_merged_functions_around_legacy_repair(self, monkeypatch, strategy):
        """Merged functions before and after legacy SSA repair, which
        leaves uses their definitions do not dominate."""
        outcomes = []
        real_repair = merger_module.repair_ssa

        def checking_repair(func, **kwargs):
            outcomes.append(assert_same(func))
            repaired = real_repair(func, **kwargs)
            outcomes.append(assert_same(func))
            return repaired

        monkeypatch.setattr(merger_module, "repair_ssa", checking_repair)
        module = build_workload(60, "vdiff-legacy", WorkloadConfig(seed=3))
        FunctionMergingPass(
            make_ranker(strategy), PassConfig(legacy_bugs=True, verify=False)
        ).run(module)
        checkers = {d["checker"] for o in outcomes if o[0] == "error" for d in o[1]}
        assert "ssa-dominance" in checkers, "no merged function had a violation"


# -- the corruption cases of tests/ir/test_verifier.py ---------------------------


def _empty_block(module):
    func = build_straightline(module)
    BasicBlock("dangling", func)
    return func


def _missing_terminator(module):
    func = Function(FunctionType(I32, [I32]), "f", parent=module)
    block = BasicBlock("entry", func)
    block.append(BinaryOp(Opcode.ADD, func.args[0], ConstantInt(I32, 1)))
    return func


def _phi_after_non_phi(module):
    func = build_straightline(module)
    func.entry.insert(2, Phi(I32))
    return func


def _ret_type_mismatch(module):
    func = Function(FunctionType(I32, [I32]), "f", parent=module)
    BasicBlock("entry", func).append(Ret(None))
    return func


def _phi_missing_pred(module):
    func = build_diamond(module)
    func.blocks[-1].phis()[0].remove_incoming(func.blocks[1])
    return func


def _phi_extra_pred(module):
    func = build_diamond(module)
    join = func.blocks[-1]
    join.phis()[0].add_incoming(ConstantInt(I32, 9), join)
    return func


def _use_before_def_across_blocks(module):
    func = build_diamond(module)
    _, big, small, _ = func.blocks
    small.instructions[0].set_operand(0, big.instructions[0])
    return func


def _use_before_def_same_block(module):
    func = Function(FunctionType(I32, [I32]), "f", parent=module)
    b = IRBuilder(BasicBlock("entry", func))
    v1 = b.add(func.args[0], b.const_int(I32, 1))
    v2 = b.add(v1, b.const_int(I32, 2))
    b.ret(v2)
    v1.set_operand(0, v2)
    return func


def _entry_with_predecessor(module):
    func = build_straightline(module)
    BasicBlock("pre", func).append(Branch(func.entry))
    return func


def _foreign_value(module):
    f1 = build_straightline(module, "f1")
    f2 = build_straightline(module, "f2")
    f2.entry.instructions[1].set_operand(0, f1.entry.instructions[0])
    return f2


def _cross_module_callee(module):
    foreign = Function(FunctionType(I32, [I32]), "foreign", parent=Module("other"))
    func = Function(FunctionType(I32, [I32]), "f", parent=module)
    b = IRBuilder(BasicBlock("entry", func))
    b.ret(b.call(foreign, [func.args[0]]))
    return func


def _loop(module):
    return build_loop(module)


def _two_dangling_blocks(module):
    func = build_straightline(module, "f1")
    BasicBlock("bad", func)
    BasicBlock("bad2", func)
    return func


def _every_block_finding(module):
    """One block with each kind of finding, to pin their order: a
    terminator in the middle, a broken parent pointer, a phi after a
    non-phi, a phi that misses a predecessor and a foreign operand."""
    func = build_diamond(module)
    other = build_straightline(module, "other")
    entry, big, _, join = func.blocks
    join.phis()[0].remove_incoming(big)
    join.insert(2, BinaryOp(Opcode.ADD, other.args[0], ConstantInt(I32, 1)))
    join.insert(3, Phi(I32))
    join.instructions[2].parent = entry
    return func


CASES = [
    _empty_block,
    _missing_terminator,
    _phi_after_non_phi,
    _ret_type_mismatch,
    _phi_missing_pred,
    _phi_extra_pred,
    _use_before_def_across_blocks,
    _use_before_def_same_block,
    _entry_with_predecessor,
    _foreign_value,
    _cross_module_callee,
    _loop,
    _two_dangling_blocks,
    _every_block_finding,
]


@pytest.mark.parametrize("build", CASES, ids=lambda build: build.__name__.strip("_"))
def test_corruption_cases(build):
    module = Module("test")
    func = build(module)
    assert_same(func)
    assert_same_module(module)


# -- generated functions, corrupted --------------------------------------------------


def _pick(items, pick):
    return items[pick % len(items)] if items else None


def _instructions(func):
    return [inst for block in func.blocks for inst in block.instructions]


def _block_slots(func):
    """``(terminator, operand index)`` of every block operand of a
    terminator."""
    return [
        (inst, index)
        for inst in _instructions(func)
        if inst.is_terminator
        for index, op in enumerate(inst.operands)
        if isinstance(op, BasicBlock)
    ]


def _phis(func):
    """Phis with at least one incoming pair."""
    return [inst for inst in _instructions(func) if isinstance(inst, Phi) and inst.incoming]


def drop_terminator(func, other, picks):
    block = _pick(func.blocks, picks[0])
    if block.instructions:
        block.remove(block.instructions[-1])


def raise_terminator(func, other, picks):
    """Move a block's terminator above the instruction before it."""
    block = _pick([b for b in func.blocks if len(b.instructions) > 1], picks[0])
    if block is not None:
        term = block.instructions[-1]
        block.remove(term)
        block.insert(len(block.instructions) - 1, term)


def use_above_def(func, other, picks):
    """Move an instruction to just before one of its operands' definition."""
    pairs = [
        (inst, op)
        for inst in _instructions(func)
        if not inst.is_terminator and not isinstance(inst, Phi)
        for op in inst.operands
        if op.__class__ is not BasicBlock and getattr(op, "parent", None) in func.blocks
    ]
    pair = _pick(pairs, picks[0])
    if pair is not None:
        inst, op = pair
        inst.parent.remove(inst)
        op.parent.insert_before(op, inst)


def drop_phi_incoming(func, other, picks):
    phi = _pick(_phis(func), picks[0])
    if phi is not None:
        phi.remove_incoming(_pick(phi.incoming, picks[1])[1])


def duplicate_phi_incoming(func, other, picks):
    phi = _pick(_phis(func), picks[0])
    if phi is not None:
        phi.add_incoming(*_pick(phi.incoming, picks[1]))


def branch_to_entry(func, other, picks):
    slot = _pick(_block_slots(func), picks[0])
    if slot is not None:
        slot[0].set_operand(slot[1], func.entry)


def splice_value(func, other, picks):
    inst = _pick([i for i in _instructions(func) if i.num_operands], picks[0])
    donor = _pick([i for i in _instructions(other) if not i.type.is_void], picks[1])
    if inst is not None and donor is not None:
        inst.set_operand(picks[2] % inst.num_operands, donor)


def splice_argument(func, other, picks):
    inst = _pick([i for i in _instructions(func) if i.num_operands], picks[0])
    if inst is not None and other.args:
        inst.set_operand(picks[2] % inst.num_operands, _pick(other.args, picks[1]))


def splice_block(func, other, picks):
    slot = _pick(_block_slots(func), picks[0])
    if slot is not None:
        slot[0].set_operand(slot[1], _pick(other.blocks, picks[1]))


def branch_to_unlisted_block(func, other, picks):
    """Branch to a block whose parent is *func* but which is not in
    ``func.blocks``; it branches on into the function."""
    slot = _pick(_block_slots(func), picks[0])
    if slot is not None:
        ghost = BasicBlock("ghost")
        ghost.parent = func
        ghost.append(Branch(_pick(func.blocks, picks[1])))
        slot[0].set_operand(slot[1], ghost)


CORRUPTIONS = [
    drop_terminator,
    raise_terminator,
    use_above_def,
    drop_phi_incoming,
    duplicate_phi_incoming,
    branch_to_entry,
    splice_value,
    splice_argument,
    splice_block,
    branch_to_unlisted_block,
]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    size=st.integers(2, 10),
    seed=st.integers(0, 2**31 - 1),
    corruptions=st.lists(st.sampled_from(CORRUPTIONS), min_size=1, max_size=3),
    picks=st.lists(st.integers(0, 10**6), min_size=4, max_size=4),
)
def test_corrupted_functions(size, seed, corruptions, picks):
    module = build_workload(size, "vdiff", WorkloadConfig(seed=seed))
    functions = module.defined_functions()
    func = _pick(functions, picks[3])
    other = _pick(functions, picks[3] + 1)
    for corrupt in corruptions:
        corrupt(func, other, picks)
    assert_same(func)
    assert_same_module(module)
