"""Tests for re-merging: merged functions re-entering the candidate pool."""

import pytest

from repro.ir import Interpreter, Module, verify_module
from repro.merge import FunctionMergingPass, PassConfig
from repro.search import ExhaustiveRanker, MinHashLSHRanker
from tests.conftest import build_diamond
from tests.reference import PairwiseRanker


def _family_module(k=4):
    module = Module("fam")
    for i in range(k):
        build_diamond(module, f"d{i}", mul_by=3 + i)
    return module


class TestRemerge:
    def test_family_collapses_to_one(self):
        module = _family_module(4)
        report = FunctionMergingPass(ExhaustiveRanker(), PassConfig()).run(module)
        verify_module(module)
        # 4 near-identical functions need 3 merges to become one.
        assert report.merges == 3
        defined = module.defined_functions()
        assert len(defined) == 1
        assert defined[0].name.startswith("merged.")

    def test_remerge_disabled_pairs_only(self):
        module = _family_module(4)
        config = PassConfig()
        report = FunctionMergingPass(PairwiseRanker(ExhaustiveRanker()), config).run(module)
        verify_module(module)
        assert report.merges == 2  # two disjoint pairs, no second level
        assert len(module.defined_functions()) == 2

    def test_remerge_beats_pairwise_on_size(self):
        m1, m2 = _family_module(6), _family_module(6)
        with_remerge = FunctionMergingPass(ExhaustiveRanker(), PassConfig()).run(m1)
        without = FunctionMergingPass(
            PairwiseRanker(ExhaustiveRanker()), PassConfig()
        ).run(m2)
        assert with_remerge.size_after <= without.size_after

    def test_doubly_merged_function_is_correct(self):
        module = _family_module(4)
        originals = {
            f.name: [Interpreter().run(f, [x, y]).value for x, y in ((3, 4), (60, 70))]
            for f in module.defined_functions()
        }
        FunctionMergingPass(ExhaustiveRanker(), PassConfig()).run(module)
        verify_module(module)
        merged = module.defined_functions()[0]
        # Rebuild each original's behaviour through the merged function by
        # tracing the merge tree is complex; instead check with thunk-free
        # direct invocation through the recorded attempts is unnecessary —
        # the originals were internal with no callers, so equivalence was
        # checked by the pass itself. Here we at least run the merged
        # function on every function-id path and expect the union of
        # original results.
        produced = set()
        for fid0 in (0, 1):
            for fid1 in (0, 1):
                args = [0] * len(merged.args)
                args[0] = fid0
                # Nested fids occupy later parameter slots; try both.
                for i, arg in enumerate(merged.args[1:], start=1):
                    if arg.type.bits == 1 if arg.type.is_int else False:
                        args[i] = fid1
                for i, arg in enumerate(merged.args):
                    if arg.type.is_float:
                        args[i] = 0.0
                # Use the (3, 4) input on the i32 slots.
                i32_slots = [
                    i
                    for i, a in enumerate(merged.args)
                    if a.type.is_int and a.type.bits == 32
                ]
                for slot, val in zip(i32_slots, (3, 4)):
                    args[slot] = val
                produced.add(Interpreter().run(merged, args).value)
        expected = {vals[0] for vals in originals.values()}
        assert expected <= produced

    def test_lsh_ranker_supports_remerge(self):
        module = _family_module(5)
        report = FunctionMergingPass(MinHashLSHRanker(), PassConfig()).run(module)
        verify_module(module)
        assert report.merges >= 3
        assert len(module.defined_functions()) <= 2

    def test_workload_semantics_with_remerge(self):
        from repro.workloads import build_workload

        module = build_workload(100, "remerge-sem")
        driver = module.get_function("driver")
        ref = {x: Interpreter().run(driver, [x]).value for x in (0, 6, 13)}
        FunctionMergingPass(MinHashLSHRanker(), PassConfig(verify=True)).run(module)
        verify_module(module)
        for x, expected in ref.items():
            assert Interpreter().run(module.get_function("driver"), [x]).value == expected


class TestRankerInsert:
    def test_exhaustive_insert_after_preprocess(self, module):
        f1 = build_diamond(module, "f1")
        ranker = ExhaustiveRanker()
        ranker.preprocess([f1])
        f2 = build_diamond(module, "f2")
        ranker.insert(f2)
        match = ranker.best_match(f1)
        assert match is not None and match.function is f2

    def test_lsh_insert_after_preprocess(self, module):
        f1 = build_diamond(module, "f1")
        ranker = MinHashLSHRanker()
        ranker.preprocess([f1])
        f2 = build_diamond(module, "f2")
        ranker.insert(f2)
        match = ranker.best_match(f1)
        assert match is not None and match.function is f2
        assert match.similarity == 1.0

    def test_capacity_growth(self, module):
        # Push past the initial 256-row capacity of both backends.
        ranker = ExhaustiveRanker()
        funcs = [build_diamond(module, f"g{i}", mul_by=i + 2) for i in range(40)]
        ranker.preprocess(funcs)
        for i in range(260):
            ranker.insert(build_diamond(module, f"x{i}", mul_by=2))
        match = ranker.best_match(funcs[0])
        assert match is not None
