"""Tests for the end-to-end merging pass."""

import random

import pytest

from repro.analysis import module_size
from repro.ir import Interpreter, Module, print_module, verify_module
from repro.merge import FunctionMergingPass, PassConfig
from repro.search import ExhaustiveRanker, MinHashLSHRanker
from repro.workloads import build_workload, make_variant
from tests.conftest import build_diamond, build_loop, build_straightline


def small_module():
    module = Module("small")
    base = build_diamond(module, "base")
    rng = random.Random(1)
    make_variant(base, "near1", rng, 1, module)
    make_variant(base, "near2", rng, 2, module)
    build_loop(module, "loop")
    build_straightline(module, "line")
    return module


class TestPassBasics:
    def test_merges_reduce_size(self):
        module = small_module()
        before = module_size(module)
        report = FunctionMergingPass(ExhaustiveRanker()).run(module)
        verify_module(module)
        assert report.merges >= 1
        assert report.size_after < before
        assert report.size_before == before
        assert report.size_reduction > 0

    def test_f3m_pass(self):
        module = small_module()
        report = FunctionMergingPass(MinHashLSHRanker()).run(module)
        verify_module(module)
        assert report.merges >= 1
        assert report.strategy == "f3m"

    def test_outcome_accounting(self):
        module = small_module()
        report = FunctionMergingPass(ExhaustiveRanker()).run(module)
        counts = report.outcome_counts()
        assert sum(counts.values()) == len(report.attempts)
        assert counts["merged"] == report.merges

    def test_stage_breakdown_sums_to_positive(self):
        module = small_module()
        report = FunctionMergingPass(ExhaustiveRanker()).run(module)
        breakdown = report.stage_breakdown()
        assert all(v >= 0 for v in breakdown.values())
        assert sum(breakdown.values()) > 0

    def test_threshold_rejects_pairs(self):
        module = small_module()
        config = PassConfig(threshold=0.9999)
        report = FunctionMergingPass(MinHashLSHRanker(), config).run(module)
        # near1 was lightly mutated; with an extreme threshold nothing
        # below 0.9999 similarity is attempted.
        for att in report.attempts:
            if att.outcome == "merged":
                assert att.similarity >= 0.9999

    def test_summary_is_printable(self):
        module = small_module()
        report = FunctionMergingPass(ExhaustiveRanker()).run(module)
        text = report.summary()
        assert "hyfm" in text and "merges" in text


class TestSemanticPreservation:
    @pytest.mark.parametrize("ranker_cls", [ExhaustiveRanker, MinHashLSHRanker])
    def test_workload_driver_equivalent(self, ranker_cls):
        module = build_workload(60, "passcheck")
        driver = module.get_function("driver")
        ref = {x: Interpreter().run(driver, [x]).value for x in (0, 3, 9)}
        FunctionMergingPass(ranker_cls()).run(module)
        verify_module(module)
        new_driver = module.get_function("driver")
        for x, expected in ref.items():
            assert Interpreter().run(new_driver, [x]).value == expected

    def test_nw_alignment_config(self):
        module = build_workload(40, "nwcheck")
        driver = module.get_function("driver")
        ref = Interpreter().run(driver, [5]).value
        config = PassConfig(alignment="nw")
        report = FunctionMergingPass(ExhaustiveRanker(), config).run(module)
        verify_module(module)
        assert Interpreter().run(module.get_function("driver"), [5]).value == ref


class TestDeterminism:
    def test_same_seed_same_report(self):
        m1 = build_workload(80, "det")
        m2 = build_workload(80, "det")
        r1 = FunctionMergingPass(MinHashLSHRanker()).run(m1)
        r2 = FunctionMergingPass(MinHashLSHRanker()).run(m2)
        assert r1.merges == r2.merges
        assert r1.size_after == r2.size_after
        assert [a.outcome for a in r1.attempts] == [a.outcome for a in r2.attempts]

    def test_same_seed_same_module_text(self):
        # Bit-level regression: beyond matching outcome sequences, two
        # same-seed runs must print byte-identical modules.
        m1 = build_workload(80, "dettext")
        m2 = build_workload(80, "dettext")
        r1 = FunctionMergingPass(MinHashLSHRanker()).run(m1)
        r2 = FunctionMergingPass(MinHashLSHRanker()).run(m2)
        assert [(a.function, a.candidate, str(a.outcome)) for a in r1.attempts] == [
            (a.function, a.candidate, str(a.outcome)) for a in r2.attempts
        ]
        assert print_module(m1) == print_module(m2)

    def test_oracle_gate_is_deterministic(self):
        # The oracle synthesizes inputs from function identity, so enabling
        # it must not introduce run-to-run variation.
        config = PassConfig(oracle=True)
        m1 = build_workload(60, "detoracle")
        m2 = build_workload(60, "detoracle")
        r1 = FunctionMergingPass(ExhaustiveRanker(), config).run(m1)
        r2 = FunctionMergingPass(ExhaustiveRanker(), config).run(m2)
        assert [a.outcome for a in r1.attempts] == [a.outcome for a in r2.attempts]
        assert print_module(m1) == print_module(m2)


class TestAdaptiveVariant:
    def test_adaptive_small_module_matches_static_params(self):
        module = build_workload(50, "adapt")
        ranker = MinHashLSHRanker(adaptive=True)
        report = FunctionMergingPass(ranker).run(module)
        assert ranker.parameters is not None
        assert ranker.parameters.bands == 100
        assert report.strategy == "f3m-adaptive"

    def test_comparisons_not_worse_than_exhaustive(self):
        m1 = build_workload(150, "cmp")
        m2 = build_workload(150, "cmp")
        r_ex = FunctionMergingPass(ExhaustiveRanker()).run(m1)
        r_lsh = FunctionMergingPass(MinHashLSHRanker()).run(m2)
        assert r_lsh.comparisons < r_ex.comparisons
