"""Tests for the differential-execution oracle.

The tier-2 suite at the bottom is the §III-E acceptance check: the
oracle must veto merges produced by the legacy (buggy) codegen and wave
through the same merges produced by the fixed codegen.
"""

import pytest

from repro.alignment import BatchAlignmentEngine
from repro.ir import ConstantInt, I32, Opcode, parse_module, print_module, verify_module
from repro.merge import FunctionMergingPass, MergeOptions, PassConfig, merge_functions
from repro.oracle import DifferentialOracle, OracleConfig
from repro.search import ExhaustiveRanker


def _merge_text(text, name_a="f1", name_b="f2", **options):
    module = parse_module(text)
    fa, fb = module.get_function(name_a), module.get_function(name_b)
    return merge_functions(
        BatchAlignmentEngine().align_functions(fa, fb),
        module,
        options=MergeOptions(**options),
    )


SIMPLE_PAIR = """
define i32 @f1(i32 %x, i32 %y) {
entry:
  %a = add i32 %x, %y
  %b = mul i32 %a, 3
  ret i32 %b
}
define i32 @f2(i32 %x, i32 %y) {
entry:
  %a = add i32 %x, %y
  %b = mul i32 %a, 7
  ret i32 %b
}
"""


def _bug_effect_suite():
    """A module whose one profitable merge demotes a phi with a same-block
    use — the exact §III-E bug-1 scenario.  @fa's diamond is private to it
    (no counterpart in @fb), so after merging the phi %p lands in a
    fid-guarded block while its transitive use sits in the long shared
    tail; SSA repair must demote %p, and the legacy store placement makes
    the same-block use %u read a stale slot.
    """

    def tail(var, n=30):
        ops, prev = [], var
        for i in range(n):
            name = f"%s{i}"
            op = ("add", "mul", "xor", "sub")[i % 4]
            ops.append(f"  {name} = {op} i32 {prev}, {i + 3}")
            prev = name
        ops.append(f"  ret i32 {prev}")
        return "\n".join(ops)

    text = f"""
define i32 @fa(i32 %x, i1 %c) {{
entry:
  br i1 %c, label %a, label %b
a:
  %va = add i32 %x, 1
  br label %join
b:
  %vb = add i32 %x, 2
  br label %join
join:
  %p = phi i32 [ %va, %a ], [ %vb, %b ]
  %q = phi i32 [ 1, %a ], [ 2, %b ]
  %u = mul i32 %p, %q
  br label %exit
exit:
  %t = add i32 %p, %u
{tail("%t")}
}}

define i32 @fb(i32 %x, i1 %c) {{
entry:
  %h = add i32 %x, 7
  br label %exit
exit:
  %t = add i32 %h, 1
{tail("%t")}
}}

define i32 @caller(i32 %x) {{
entry:
  %r1 = call i32 @fa(i32 %x, i1 1)
  %r2 = call i32 @fb(i32 %x, i1 0)
  %r = add i32 %r1, %r2
  ret i32 %r
}}
"""
    return parse_module(text)


class TestVerdicts:
    def test_correct_merge_is_equivalent(self):
        result = _merge_text(SIMPLE_PAIR)
        verdict = DifferentialOracle().check(result)
        assert verdict.equivalent
        # Five inputs per side, both sides supported.
        assert verdict.checked == 10
        assert verdict.skipped == 0

    def test_tampered_merge_is_vetoed(self):
        # Corrupt the merged function after a correct merge: the oracle must
        # notice without any knowledge of *how* codegen went wrong.
        result = _merge_text(SIMPLE_PAIR)
        for block in result.merged.blocks:
            for inst in block.instructions:
                if inst.opcode == Opcode.ADD:
                    inst.set_operand(1, ConstantInt(I32, 99))
                    break
        verdict = DifferentialOracle().check(result)
        assert not verdict.equivalent
        div = verdict.divergences[0]
        assert div.kind == "value"
        assert "divergence" in str(div)

    def test_memory_divergence_detected(self):
        text = """
define void @f1(i32* %p, i32 %x) {
entry:
  %v = add i32 %x, 3
  store i32 %v, i32* %p
  ret void
}
define void @f2(i32* %p, i32 %x) {
entry:
  %v = add i32 %x, 5
  store i32 %v, i32* %p
  ret void
}
"""
        result = _merge_text(text)
        assert DifferentialOracle().check(result).equivalent
        # Corrupt the stored value: only memory can reveal it (void return).
        for block in result.merged.blocks:
            for inst in block.instructions:
                if inst.opcode == Opcode.ADD:
                    inst.set_operand(1, ConstantInt(I32, 1000))
                    break
        verdict = DifferentialOracle().check(result)
        assert not verdict.equivalent
        assert verdict.divergences[0].kind == "memory"

    def test_unresolved_external_skips_not_vetoes(self):
        text = """
declare i32 @ext(i32)
define i32 @f1(i32 %x) {
entry:
  %a = call i32 @ext(i32 %x)
  %b = mul i32 %a, 3
  ret i32 %b
}
define i32 @f2(i32 %x) {
entry:
  %a = call i32 @ext(i32 %x)
  %b = mul i32 %a, 7
  ret i32 %b
}
"""
        result = _merge_text(text)
        verdict = DifferentialOracle().check(result)
        # The oracle could not observe either side; it must stay silent.
        assert verdict.checked == 0
        assert verdict.skipped == 10
        assert verdict.equivalent

    def test_verdict_is_deterministic(self):
        result = _merge_text(SIMPLE_PAIR)
        oracle = DifferentialOracle()
        a, b = oracle.check(result), oracle.check(result)
        assert (a.checked, a.skipped, len(a.divergences)) == (
            b.checked,
            b.skipped,
            len(b.divergences),
        )

    def test_config_controls_input_count(self):
        result = _merge_text(SIMPLE_PAIR)
        verdict = DifferentialOracle(OracleConfig(inputs_per_function=2)).check(result)
        assert verdict.checked == 4


class TestLegacyBugDetection:
    def test_legacy_phi_placement_diverges(self):
        module = _bug_effect_suite()
        fa, fb = module.get_function("fa"), module.get_function("fb")
        result = merge_functions(
            BatchAlignmentEngine().align_functions(fa, fb),
            module,
            options=MergeOptions(legacy_bugs=True),
        )
        verdict = DifferentialOracle().check(result)
        assert not verdict.equivalent
        assert verdict.divergences[0].function == "fa"
        assert verdict.divergences[0].kind == "value"

    def test_fixed_phi_placement_is_equivalent(self):
        module = _bug_effect_suite()
        fa, fb = module.get_function("fa"), module.get_function("fb")
        result = merge_functions(
            BatchAlignmentEngine().align_functions(fa, fb),
            module,
            options=MergeOptions(legacy_bugs=False),
        )
        assert DifferentialOracle().check(result).equivalent


@pytest.mark.tier2
class TestOracleGateAcceptance:
    """§III-E acceptance: the oracle gate inside the pass."""

    def test_legacy_bugs_vetoed_with_oracle_fail(self):
        module = _bug_effect_suite()
        before = print_module(module)
        config = PassConfig(legacy_bugs=True, oracle=True)
        report = FunctionMergingPass(ExhaustiveRanker(), config).run(module)
        counts = report.outcome_counts()
        assert counts["oracle_fail"] >= 1
        assert report.merges == 0
        # Every vetoed attempt was rolled back: the module is untouched.
        assert print_module(module) == before
        verify_module(module)
        vetoed = [a for a in report.attempts if a.outcome == "oracle_fail"]
        assert all(a.error and a.error.startswith("oracle:") for a in vetoed)

    def test_fixed_codegen_commits_with_zero_vetoes(self):
        module = _bug_effect_suite()
        config = PassConfig(legacy_bugs=False, oracle=True)
        report = FunctionMergingPass(ExhaustiveRanker(), config).run(module)
        counts = report.outcome_counts()
        assert counts["oracle_fail"] == 0
        assert report.merges >= 1
        verify_module(module)

    def test_workload_scale_fixed_codegen_no_vetoes(self):
        # The fixed pipeline over a real generated workload: the oracle
        # must never veto a correct merge (no false positives at scale).
        from repro.workloads import build_workload

        module = build_workload(120, "oraclecheck")
        config = PassConfig(oracle=True)
        report = FunctionMergingPass(ExhaustiveRanker(), config).run(module)
        verify_module(module)
        assert report.outcome_counts()["oracle_fail"] == 0
        assert report.merges > 0


class TestOracleTimeout:
    """The step-budget guard: a merged function that loops forever must
    surface as a structured timeout, never hang the oracle."""

    @staticmethod
    def _loop_the_merged(result):
        # Replace the first ret's block terminator with a self-branch: the
        # merged side now spins while both originals terminate.
        from repro.ir import Branch, Ret

        for block in result.merged.blocks:
            term = block.instructions[-1]
            if isinstance(term, Ret):
                block.remove(term)
                block.append(Branch(block))
                return
        raise AssertionError("merged function has no ret")

    def test_fuel_exhausted_is_a_structured_trap(self):
        from repro.ir import FuelExhausted, Interpreter, Trap

        module = parse_module(
            """
define i32 @spin(i32 %x) {
entry:
  br label %loop
loop:
  %v = phi i32 [ %x, %entry ], [ %n, %loop ]
  %n = add i32 %v, 1
  br label %loop
}
"""
        )
        with pytest.raises(FuelExhausted):
            Interpreter(fuel=500).run(module.get_function("spin"), [1])
        assert issubclass(FuelExhausted, Trap)

    def test_oracle_reports_timeout_kind(self):
        result = _merge_text(SIMPLE_PAIR)
        self._loop_the_merged(result)
        verdict = DifferentialOracle(OracleConfig(fuel=2_000)).check(result)
        assert not verdict.equivalent
        assert verdict.timed_out
        assert all(d.kind == "timeout" for d in verdict.divergences)

    def test_timed_out_is_false_on_value_divergence(self):
        result = _merge_text(SIMPLE_PAIR)
        for block in result.merged.blocks:
            for inst in block.instructions:
                if inst.opcode == Opcode.ADD:
                    inst.set_operand(1, ConstantInt(I32, 99))
                    break
        verdict = DifferentialOracle().check(result)
        assert not verdict.equivalent
        assert not verdict.timed_out

    def test_pass_surfaces_oracle_timeout_outcome(self):
        module = parse_module(SIMPLE_PAIR)
        pass_ = FunctionMergingPass(
            ExhaustiveRanker(),
            PassConfig(oracle=True, min_instructions=0),
            oracle=_LoopingOracle(),
        )
        report = pass_.run(module)
        outcomes = {str(a.outcome) for a in report.attempts}
        assert "oracle_timeout" in outcomes
        # The veto rolled the module back: both originals intact.
        assert module.get_function("f1").num_instructions == 3
        assert module.get_function("f2").num_instructions == 3


class _LoopingOracle:
    """Wraps the real oracle but sabotages the merged side into a loop
    first — exercising the pass's ORACLE_TIMEOUT path end to end."""

    def check(self, result):
        TestOracleTimeout._loop_the_merged(result)
        return DifferentialOracle(OracleConfig(fuel=2_000)).check(result)
