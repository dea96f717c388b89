"""Merge-safety linter tests: the static §III-E acceptance criteria.

The linter must flag BOTH Section III-E placement bugs on IR fixtures
without executing anything, and must stay silent on every merge the fixed
pipeline produces (zero false positives) — mirroring the dynamic oracle's
acceptance suite at zero interpretation cost.
"""

import pytest

from repro.alignment import BatchAlignmentEngine
from repro.diagnostics import Severity, errors_only
from repro.ir import parse_module, print_module, verify_module
from repro.merge import (
    FunctionMergingPass,
    MergeOptions,
    PassConfig,
    merge_functions,
)
from repro.merge.ssa_repair import _demote_to_stack
from repro.search import ExhaustiveRanker
from repro.staticcheck import lint_commit, lint_merge, lint_merged_function
from repro.workloads import build_workload
from tests.merge.test_ssa_repair import _INVOKE_FUNC, _PHI_FUNC, get
from tests.oracle.test_differential import _bug_effect_suite


class _FakeResult:
    """Just enough MergeResult surface for lint_merged_function."""

    def __init__(self, func):
        self.merged = func


def _merge_safety_errors(func):
    return [
        d
        for d in lint_merged_function(_FakeResult(func))
        if d.checker == "merge-safety" and d.severity is Severity.ERROR
    ]


class TestSectionIIIEFixtures:
    """The two bug patterns, statically, on the ssa_repair fixtures."""

    def test_bug1_phi_store_placement_flagged(self):
        _m, func = get(_PHI_FUNC)
        p = func.blocks[3].phis()[0]
        _demote_to_stack(func, p, legacy_bugs=True)
        errors = _merge_safety_errors(func)
        assert errors, "legacy phi store placement must be flagged statically"
        assert any("store placed after the use" in d.message for d in errors)
        # The diagnostic is located: function, block and instruction names.
        assert errors[0].function == "f"
        assert errors[0].block == "join"
        assert errors[0].instruction

    def test_bug1_fixed_placement_is_clean(self):
        _m, func = get(_PHI_FUNC)
        p = func.blocks[3].phis()[0]
        _demote_to_stack(func, p, legacy_bugs=False)
        assert _merge_safety_errors(func) == []

    def test_bug2_invoke_phi_load_flagged(self):
        _m, func = get(_INVOKE_FUNC)
        invoke = func.entry.terminator
        _demote_to_stack(func, invoke, legacy_bugs=True)
        errors = _merge_safety_errors(func)
        assert errors, "legacy invoke/phi load placement must be flagged statically"
        assert any("feeds a phi" in d.message for d in errors)

    def test_bug2_fixed_placement_is_clean(self):
        _m, func = get(_INVOKE_FUNC)
        invoke = func.entry.terminator
        _demote_to_stack(func, invoke, legacy_bugs=False)
        assert _merge_safety_errors(func) == []


class TestLegacyCodegenDetection:
    """End-to-end: the linter judges real merger output statically."""

    def test_legacy_merge_flagged(self):
        module = _bug_effect_suite()
        fa, fb = module.get_function("fa"), module.get_function("fb")
        result = merge_functions(
            BatchAlignmentEngine().align_functions(fa, fb),
            module,
            options=MergeOptions(legacy_bugs=True),
        )
        diags = errors_only(lint_merge(result, module))
        assert diags
        assert all(d.checker == "merge-safety" for d in diags)

    def test_fixed_merge_clean(self):
        module = _bug_effect_suite()
        fa, fb = module.get_function("fa"), module.get_function("fb")
        result = merge_functions(
            BatchAlignmentEngine().align_functions(fa, fb),
            module,
            options=MergeOptions(legacy_bugs=False),
        )
        assert errors_only(lint_merge(result, module)) == []


class TestStaticGateInPass:
    """--static-check behaves like the oracle gate, without execution."""

    def test_legacy_bugs_vetoed_with_static_fail(self):
        module = _bug_effect_suite()
        before = print_module(module)
        config = PassConfig(legacy_bugs=True, verify=False, static_check=True)
        report = FunctionMergingPass(ExhaustiveRanker(), config).run(module)
        counts = report.outcome_counts()
        assert counts["static_fail"] >= 1
        assert report.merges == 0
        # Every vetoed attempt was rolled back: the module is untouched.
        assert print_module(module) == before
        verify_module(module)
        vetoed = [a for a in report.attempts if a.outcome == "static_fail"]
        assert all(a.error and a.error.startswith("static:") for a in vetoed)
        assert all(a.stage_times["staticcheck"] > 0 for a in vetoed)

    def test_fixed_codegen_commits_with_zero_vetoes(self):
        module = _bug_effect_suite()
        config = PassConfig(legacy_bugs=False, static_check=True)
        report = FunctionMergingPass(ExhaustiveRanker(), config).run(module)
        counts = report.outcome_counts()
        assert counts["static_fail"] == 0
        assert report.merges >= 1
        verify_module(module)

    def test_workload_scale_no_false_positives(self):
        # The fixed pipeline over a generated workload: the static gate
        # must never veto a correct merge.
        module = build_workload(80, "staticgate")
        config = PassConfig(static_check=True)
        report = FunctionMergingPass(ExhaustiveRanker(), config).run(module)
        verify_module(module)
        assert report.outcome_counts()["static_fail"] == 0
        assert report.merges > 0
        # The stage breakdown accounts the gate's cost.
        assert report.stage_breakdown()["staticcheck"] > 0

    def test_stage_breakdown_has_staticcheck_bucket(self):
        module = _bug_effect_suite()
        config = PassConfig(static_check=True)
        report = FunctionMergingPass(ExhaustiveRanker(), config).run(module)
        assert "staticcheck" in report.stage_breakdown()


class TestLintCommit:
    def test_committed_merge_is_structurally_clean(self):
        module = _bug_effect_suite()
        config = PassConfig(static_check=True)
        pass_ = FunctionMergingPass(ExhaustiveRanker(), config)
        report = pass_.run(module)
        assert report.merges >= 1
        verify_module(module)

    def test_corrupted_thunk_detected(self):
        from repro.merge import commit_merge

        module = _bug_effect_suite()
        fa, fb = module.get_function("fa"), module.get_function("fb")
        fa.internal = False  # visible outside the module: kept as a thunk
        result = merge_functions(BatchAlignmentEngine().align_functions(fa, fb), module)
        commit_merge(result)
        diags = lint_commit(result, module)
        assert diags == []  # honest commit: clean
        # Corrupt the surviving thunk: flip its function-id constant.
        from repro.ir import ConstantInt, I1

        thunk = module.get_function("fa")
        assert thunk is fa and not thunk.is_declaration
        call = thunk.entry.instructions[0]
        call.set_operand(1, ConstantInt(I1, 1))  # operand 0 is the callee
        diags = lint_commit(result, module)
        assert any("function-id" in d.message for d in diags)
