"""The linear-time dominator tree and violation scan against the reference.

:mod:`tests.reference.dominance` keeps the per-block ``predecessors()``
loop and the ``list.index`` scan; the production analysis must agree with
them element for element and in the same order.
"""

import pytest

from repro.analysis.dominators import DominatorTree, dominance_violations
from repro.harness.experiments import make_ranker
from repro.ir import parse_module
from repro.ir.instructions import BinaryOp, Opcode
from repro.merge import FunctionMergingPass, PassConfig, find_dominance_violations
from repro.merge import merger as merger_module
from repro.staticcheck.checkers import dominance_diagnostics
from repro.workloads.suites import WorkloadConfig, build_workload
from tests.reference.dominance import ReferenceDominatorTree, reference_violations


def assert_matches_reference(func):
    dt = DominatorTree(func)
    ref = ReferenceDominatorTree(func)
    blocks = func.blocks
    assert [dt.is_reachable(b) for b in blocks] == [ref.is_reachable(b) for b in blocks]
    assert [dt.idom(b) for b in blocks] == [ref.idom(b) for b in blocks]
    assert [dt.children(b) for b in blocks] == [ref.children(b) for b in blocks]
    for a in blocks:
        assert [dt.dominates_block(a, b) for b in blocks] == [
            ref.dominates_block(a, b) for b in blocks
        ]
    found = list(dominance_violations(func))
    expected = reference_violations(func)
    assert [(id(d), id(u), i) for d, u, i in found] == [
        (id(d), id(u), i) for d, u, i in expected
    ]
    # Both consumers read the one scan: the verifier's diagnostics list
    # every violation, repair groups the ones it can place by def.
    assert [d.instruction for d in dominance_diagnostics(func)] == [
        u.name or None for _d, u, _i in expected
    ]
    grouped = {}
    for d, u, i in expected:
        if d.parent is not None:
            grouped.setdefault(id(d), (d, []))[1].append((u, i))
    repair = find_dominance_violations(func)
    assert list(repair) == list(grouped)
    for key, (d, uses) in grouped.items():
        assert repair[key][0] is d
        assert repair[key][1] == uses
    return expected


@pytest.mark.parametrize("seed", [1, 2])
def test_every_workload_function_matches(seed):
    module = build_workload(200, "dom", WorkloadConfig(seed=seed))
    for func in module.defined_functions():
        assert assert_matches_reference(func) == []


@pytest.mark.parametrize("strategy", ["hyfm", "f3m"])
def test_legacy_merged_functions_match(monkeypatch, strategy):
    """Merged functions before and after legacy SSA repair."""
    checked = []
    real_repair = merger_module.repair_ssa

    def checking_repair(func, **kwargs):
        checked.append(len(assert_matches_reference(func)))
        repaired = real_repair(func, **kwargs)
        assert_matches_reference(func)
        return repaired

    monkeypatch.setattr(merger_module, "repair_ssa", checking_repair)
    module = build_workload(60, "dom-legacy", WorkloadConfig(seed=3))
    FunctionMergingPass(
        make_ranker(strategy), PassConfig(legacy_bugs=True, verify=False)
    ).run(module)
    assert checked, "no pair reached codegen"
    assert any(checked), "no merged function had a violation to compare"


HAND_BUILT = """
define i32 @unreachable(i32 %x) {
entry:
  %a = add i32 %x, 1
  br label %exit
dead:
  %d = add i32 %a, %x
  br label %exit
exit:
  %p = phi i32 [ %a, %entry ], [ %d, %dead ]
  %u = add i32 %d, %p
  ret i32 %u
}

define i32 @selfloop(i32 %x, i1 %c) {
entry:
  br label %loop
loop:
  %i = phi i32 [ %x, %entry ], [ %n, %loop ]
  %n = add i32 %i, 1
  br i1 %c, label %loop, label %exit
exit:
  ret i32 %n
}

define i32 @sametarget(i32 %x, i1 %c) {
entry:
  %a = add i32 %x, 1
  br i1 %c, label %next, label %next
next:
  %p = phi i32 [ %a, %entry ]
  %q = add i32 %r, %p
  %r = add i32 %q, 1
  ret i32 %r
}

define i32 @switched(i32 %x) {
entry:
  switch i32 %x, label %other [i32 1 label %one, i32 2 label %two]
one:
  %v1 = add i32 %x, 1
  br label %join
two:
  %v2 = add i32 %x, 2
  br label %one
other:
  br label %join
join:
  %p = phi i32 [ %v1, %one ], [ %v2, %other ]
  %w = add i32 %v1, %v2
  ret i32 %w
}
"""


class TestHandBuiltCfgs:
    @pytest.fixture(scope="class")
    def module(self):
        return parse_module(HAND_BUILT)

    def test_unreachable_block(self, module):
        func = module.get_function("unreachable")
        dead = func.blocks[1]
        assert not DominatorTree(func).is_reachable(dead)
        # Uses of a def in unreachable code are exempt.
        assert assert_matches_reference(func) == []

    def test_self_loop(self, module):
        assert assert_matches_reference(module.get_function("selfloop")) == []

    def test_conditional_branch_to_one_target(self, module):
        func = module.get_function("sametarget")
        violations = assert_matches_reference(func)
        # %q uses %r before %r is defined in the same block.
        assert [(d.name, u.name, i) for d, u, i in violations] == [("r", "q", 0)]

    def test_switch(self, module):
        func = module.get_function("switched")
        violations = assert_matches_reference(func)
        # %v2 reaches join only through %one; %v1 and %v2 are not defined
        # on the path through %other.
        assert [(d.name, u.name, i) for d, u, i in violations] == [
            ("v2", "p", 2),
            ("v1", "w", 0),
            ("v2", "w", 1),
        ]

    def test_detached_def(self, module):
        func = parse_module(HAND_BUILT).get_function("selfloop")
        loop = func.blocks[1]
        detached = BinaryOp(Opcode.ADD, func.args[0], func.args[0])
        loop.instructions[1].set_operand(1, detached)
        violations = assert_matches_reference(func)
        assert [(d, u.name, i) for d, u, i in violations] == [
            (detached, "n", 1)
        ]
        # Repair has no block to store a detached def from.
        assert find_dominance_violations(func) == {}
