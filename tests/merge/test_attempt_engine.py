"""End-to-end tests for the attempt-stage engine.

Covers the profitability bound's two checks, before and after alignment
(their accounting, their soundness, the SSA-repair floor the second one
prices, and the work they save), and the partition driver's report order.
"""

import pytest

from repro.alignment.hyfm_blocks import align_functions
from repro.analysis.size import function_size
from repro.harness.experiments import make_ranker
from repro.harness.profile import _merged_pairs
from repro.ir.parser import parse_module
from repro.ir.printer import print_function, print_module
from repro.merge import merger as merger_module
from repro.merge import pass_ as pass_module
from repro.merge.errors import MergeError
from repro.merge.layout import BlockLayout
from repro.merge.merger import MergeOptions, merge_functions
from repro.merge.partitioned import partition_functions, partitioned_merging
from repro.merge.pass_ import FunctionMergingPass, PassConfig
from repro.merge.profitability import ProfitabilityBound, ProfitabilityModel
from repro.merge.report import Outcome
from repro.merge.ssa_repair import find_dominance_violations
from repro.search.pairing import ExhaustiveRanker
from repro.workloads import build_workload
from repro.workloads.suites import WorkloadConfig

STRATEGIES = ("hyfm", "f3m", "f3m-adaptive")


def _run(num_functions: int, **config_kwargs):
    module = build_workload(num_functions, "attempt")
    config = PassConfig(verify=False, **config_kwargs)
    report = FunctionMergingPass(ExhaustiveRanker(), config).run(module)
    return module, report


class TestProfitabilityBound:
    def test_rejected_bound_accounted(self):
        _, report = self._bounded()
        counts = report.outcome_counts()
        assert counts[str(Outcome.REJECTED_BOUND)] > 0
        # The bound stage is timed and surfaced in the stage breakdown.
        assert sum(a.stage_times.get("bound", 0.0) for a in report.attempts) > 0
        assert report.stage_breakdown()["bound"] > 0
        # Engine cache stats travel on the report, plan cache included.
        assert report.align_cache_stats is not None
        assert "plan" in report.align_cache_stats

    def test_bound_rejections_never_merge_unbounded(self):
        """Soundness: no pair the bound rejects merges without the bound."""
        module_b, bounded = self._bounded()
        module_u, unbounded = self._unbounded()

        rejected = {
            (a.function, a.candidate)
            for a in bounded.attempts
            if a.outcome == Outcome.REJECTED_BOUND
        }
        assert rejected, "bound never fired; workload too easy to be a test"
        assert rejected & _merged_pairs(unbounded) == set()
        # And the final modules are bit-identical.
        assert print_module(module_b) == print_module(module_u)
        assert _merged_pairs(bounded) == _merged_pairs(unbounded)

    def test_bound_strictly_reduces_attempted_alignments(self):
        _, bounded = self._bounded()
        _, unbounded = self._unbounded()
        aligned_bounded = sum(1 for a in bounded.attempts if "align" in a.stage_times)
        aligned_unbounded = sum(1 for a in unbounded.attempts if "align" in a.stage_times)
        assert aligned_bounded < aligned_unbounded
        assert bounded.merges == unbounded.merges

    @staticmethod
    def _bounded():
        return _run(120, prealign_bound=True)

    @staticmethod
    def _unbounded():
        return _run(120, prealign_bound=False)


class TestPostAlignmentBound:
    """The check after alignment, which skips codegen for pairs that
    cannot pay."""

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_bound_covers_every_codegen_saving(self, monkeypatch, seed):
        """Soundness: for every pair that reaches codegen, the bound is at
        least the saving the size model assigns to the merged function.

        ``legacy_bugs`` changes only SSA repair, never which pairs reach
        codegen, so each pair is priced under both settings in one pass.
        """
        real_merge = pass_module.merge_functions
        model = ProfitabilityModel()
        pairs = []
        running = []

        def merge_and_price(alignment, module, options, layout=None):
            bound = running[-1].bound.after_alignment(alignment, layout)
            legacy = real_merge(alignment, module, options=MergeOptions(legacy_bugs=True))
            pairs.append((bound, model.evaluate(legacy).saving))
            legacy.merged.erase_from_parent()
            result = real_merge(alignment, module, options=options)
            pairs.append((bound, model.evaluate(result).saving))
            return result

        monkeypatch.setattr(pass_module, "merge_functions", merge_and_price)
        text = print_module(build_workload(200, "bound", WorkloadConfig(seed=seed)))
        for strategy in STRATEGIES:
            for alignment in ("linear", "nw"):
                config = PassConfig(prealign_bound=False, verify=False, alignment=alignment)
                running.append(FunctionMergingPass(make_ranker(strategy), config))
                running[-1].run(parse_module(text))
        assert [(b, s) for b, s in pairs if b < s] == []
        # The bound is tight enough to skip some codegen.
        assert any(b <= 0 for b, _s in pairs)

    def test_shared_invoke_result_needs_no_select(self):
        """A shared invoke terminator unifies the two invoke results, so a
        shared use of them gets no select; the bound must not price one."""
        body = """
  %r = invoke i32 @callee(i32 %x) to label %ok unwind label %bad
ok:
  %y = add i32 %r, 1
  ret i32 %y
bad:
  ret i32 0
}
"""
        module = parse_module(
            "declare i32 @callee(i32)\n"
            f"define i32 @f(i32 %x) {{\nentry:{body}"
            f"define i32 @g(i32 %x) {{\nentry:{body}"
        )
        f, g = module.get_function("f"), module.get_function("g")
        alignment = align_functions(f, g)
        bound = ProfitabilityBound().after_alignment(alignment)
        result = merge_functions(alignment, module)
        assert result.num_selects == 0
        # Codegen emits exactly what the bound prices.
        assert bound == ProfitabilityModel().evaluate(result).saving

    def test_priced_layout_is_reused_unchanged(self):
        """Pricing reads the layout without changing it, so codegen given
        the priced layout emits what it emits from a fresh one."""
        text = print_module(build_workload(40, "layout"))

        def state(layout):
            pairs = [
                (p.head, list(p.splits), p.tail, p.term_a, p.term_b) for p in layout.pairs
            ]
            return (
                pairs,
                dict(layout.entry_a),
                dict(layout.entry_b),
                dict(layout.exit_a),
                dict(layout.exit_b),
                list(layout.unmatched_a),
                list(layout.unmatched_b),
                layout.num_blocks,
            )

        priced = 0
        for reuse in (False, True):
            module = parse_module(text)
            functions = module.defined_functions()
            merged = []
            for f, g in zip(functions[::2], functions[1::2]):
                if f.return_type is not g.return_type:
                    continue
                alignment = align_functions(f, g)
                layout = None
                if reuse:
                    layout = BlockLayout(alignment)
                    before = state(layout)
                    layout.price()
                    assert state(layout) == before
                    priced += 1
                try:
                    result = merge_functions(alignment, module, layout=layout)
                except MergeError:
                    continue
                merged.append(print_function(result.merged))
            if reuse:
                assert merged == fresh
            fresh = merged
        assert priced > 5 and fresh

    @staticmethod
    def _round_one_bytes(monkeypatch):
        """Record, for each merge, the real merged function's size before
        repair and the bytes SSA repair's first round must emit: an
        alloca and a store per violating def, a load per violating use."""
        real_repair = merger_module.repair_ssa
        recorded = []

        def repair(func, **kwargs):
            violations = find_dominance_violations(func)
            uses = sum(len(users) for _def, users in violations.values())
            recorded.append((function_size(func), 8 * len(violations) + 4 * uses))
            return real_repair(func, **kwargs)

        monkeypatch.setattr(merger_module, "repair_ssa", repair)
        return recorded

    def _merge_both_ways(self, text, monkeypatch):
        """(floor, bound, saving without legacy bugs, saving with them)."""
        recorded = self._round_one_bytes(monkeypatch)
        prices, bounds, savings = set(), set(), []
        for legacy in (False, True):
            module = parse_module(text)
            f, g = module.get_function("f"), module.get_function("g")
            alignment = align_functions(f, g)
            prices.add(BlockLayout(alignment).price())
            bounds.add(ProfitabilityBound().after_alignment(alignment))
            result = merge_functions(alignment, module, options=MergeOptions(legacy_bugs=legacy))
            savings.append(ProfitabilityModel().evaluate(result).saving)
        (price,), (bound,) = prices, bounds
        assert recorded == [price, price]
        return price[1], bound, savings[0], savings[1]

    def test_split_def_used_after_join_is_priced_exactly(self, monkeypatch):
        """Each side's private def reaches a select in the shared join.
        Neither dominates the join, so repair demotes both: two allocas,
        two stores and two loads, which the bound prices before codegen."""
        body = """
  %a = add i32 %x, 1
  %b = {op} i32 %a, 2
  %c = add i32 %b, 3
  ret i32 %c
}}
"""
        text = (
            f"define i32 @f(i32 %x) {{\nentry:{body.format(op='mul')}"
            f"define i32 @g(i32 %x) {{\nentry:{body.format(op='sub')}"
        )
        floor, bound, saving, legacy_saving = self._merge_both_ways(text, monkeypatch)
        assert floor == 2 * 8 + 2 * 4
        assert bound == saving == legacy_saving

    def test_invoke_result_feeding_a_phi_is_not_priced(self, monkeypatch):
        """@f's invoke result feeds a phi in its single-predecessor normal
        destination and a select in the shared exit, which @g's path also
        reaches.  Only the select use violates dominance: the phi's
        incoming block is the invoke's own, which fixed repair leaves
        alone and §III-E's legacy repair loads from before the invoke."""
        text = """declare i32 @callee(i32)
declare i32 @callee2(i32, i32)
define i32 @f(i32 %x) {
entry:
  %r = invoke i32 @callee(i32 %x) to label %ok unwind label %bad
ok:
  %p = phi i32 [ %r, %entry ]
  %q = mul i32 %p, 7
  br label %exit
exit:
  %z = add i32 %r, %q
  ret i32 %z
bad:
  ret i32 0
}
define i32 @g(i32 %x) {
entry:
  %r = invoke i32 @callee2(i32 %x, i32 %x) to label %exit unwind label %bad
exit:
  %z = add i32 %r, 1
  ret i32 %z
bad:
  ret i32 0
}
"""
        floor, bound, saving, legacy_saving = self._merge_both_ways(text, monkeypatch)
        # Three demoted values (both invoke results and %q), one load each.
        assert floor == 3 * 8 + 3 * 4
        # Fixed repair also splits @g's invoke edge (a branch); legacy
        # repair adds the phi's bogus load on top.
        assert saving == bound - 2
        assert legacy_saving == bound - 2 - 4

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_floor_matches_round_one_repair(self, monkeypatch, seed):
        """Differential: on every pair that reaches codegen, the merged
        bytes and the floor the layout computes before codegen equal the
        real merged function's size before repair and the bytes of SSA
        repair's first round recomputed on it."""
        recorded = self._round_one_bytes(monkeypatch)
        real_merge = pass_module.merge_functions
        floors = []

        def merge_and_floor(alignment, module, options, layout=None):
            floors.append(BlockLayout(alignment).price())
            return real_merge(alignment, module, options=options, layout=layout)

        monkeypatch.setattr(pass_module, "merge_functions", merge_and_floor)
        text = print_module(build_workload(200, "bound", WorkloadConfig(seed=seed)))
        for strategy in STRATEGIES:
            for alignment in ("linear", "nw"):
                config = PassConfig(prealign_bound=False, verify=False, alignment=alignment)
                FunctionMergingPass(make_ranker(strategy), config).run(parse_module(text))
        assert len(floors) == len(recorded) > 0
        mismatches = [(f, r) for f, r in zip(floors, recorded) if f != r]
        assert mismatches == []
        assert any(floor for _size, floor in floors), "no pair needed repair; the grid tests nothing"

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_unbounded_pass_is_identical(self, strategy):
        """The bound changes which attempts run codegen, nothing else."""
        text = print_module(build_workload(200, "bound-identity", WorkloadConfig(seed=5)))
        runs = {}
        for bound in (True, False):
            module = parse_module(text)
            config = PassConfig(prealign_bound=bound)
            runs[bound] = (module, FunctionMergingPass(make_ranker(strategy), config).run(module))
        (mod_b, bounded), (mod_u, unbounded) = runs[True], runs[False]
        assert print_module(mod_b) == print_module(mod_u)
        assert _merged_pairs(bounded) == _merged_pairs(unbounded)
        after_alignment = [
            a
            for a in bounded.attempts
            if a.outcome == Outcome.REJECTED_BOUND and a.alignment_ratio > 0
        ]
        assert after_alignment, "the post-alignment check never fired"
        assert all(
            "codegen" not in a.stage_times and a.stage_times["bound"] > 0
            for a in after_alignment
        )
        codegens = [
            sum(1 for a in report.attempts if "codegen" in a.stage_times)
            for report in (bounded, unbounded)
        ]
        assert codegens[0] < codegens[1]


class TestPartitionSweep:
    def test_results_ordered_by_partition(self):
        report = partitioned_merging(build_workload(60, "sweep-order"), 3)
        groups = partition_functions(build_workload(60, "sweep-order"), 3)
        assert [r.num_functions for r in report.reports] == [len(g) for g in groups]
        assert sum(r.num_functions for r in report.reports) >= 60

    def test_rejects_nonpositive_partitions(self):
        module = build_workload(10, "sweep-bad")
        with pytest.raises(ValueError):
            partitioned_merging(module, 0)
