"""Tests for ThinLTO-style partitioned merging."""

import pytest

from repro.ir import Interpreter, verify_module
from repro.merge import partition_functions, partitioned_merging
from repro.workloads import build_workload


class TestPartitioning:
    def test_partition_covers_all_functions(self):
        module = build_workload(60, "part")
        groups = partition_functions(module, 4)
        assert len(groups) == 4
        total = sum(len(g) for g in groups)
        assert total == len(module.defined_functions())

    def test_partitioning_deterministic(self):
        m1 = build_workload(60, "part")
        m2 = build_workload(60, "part")
        names1 = [[f.name for f in g] for g in partition_functions(m1, 3)]
        names2 = [[f.name for f in g] for g in partition_functions(m2, 3)]
        assert names1 == names2

    def test_invalid_partition_count(self):
        module = build_workload(10, "part")
        with pytest.raises(ValueError):
            partition_functions(module, 0)


class TestPartitionedMerging:
    def test_single_partition_equals_monolithic(self):
        from repro.merge import FunctionMergingPass, PassConfig
        from repro.search import MinHashLSHRanker

        m1 = build_workload(100, "mono")
        mono = FunctionMergingPass(MinHashLSHRanker(), PassConfig(verify=False)).run(m1)
        m2 = build_workload(100, "mono")
        part = partitioned_merging(m2, 1)
        assert part.merges == mono.merges
        assert part.size_after == mono.size_after

    def test_more_partitions_less_reduction(self):
        reductions = {}
        for k in (1, 2, 8):
            module = build_workload(150, "thinred")
            report = partitioned_merging(module, k)
            verify_module(module)
            reductions[k] = report.size_reduction
        assert reductions[1] >= reductions[2] >= reductions[8]
        assert reductions[1] > reductions[8]  # real degradation

    def test_semantics_preserved(self):
        module = build_workload(120, "thinsem")
        driver = module.get_function("driver")
        ref = {x: Interpreter().run(driver, [x]).value for x in (0, 4, 9)}
        partitioned_merging(module, 4)
        verify_module(module)
        for x, expected in ref.items():
            assert Interpreter().run(module.get_function("driver"), [x]).value == expected

    def test_summary_counts_cross_partition_losses(self):
        module = build_workload(150, "thinlost")
        report = partitioned_merging(module, 4, reconcile=True)
        # With families scattered by name hash, some best partners must
        # land in other partitions.
        assert report.reconcile.cross_candidates > 0

    def test_lost_pairs_disabled(self):
        from repro.search import MinHashLSHRanker

        built = []

        def factory():
            built.append(1)
            return MinHashLSHRanker()

        report = partitioned_merging(build_workload(80, "thinoff"), 4, factory)
        # Without reconcile no global ranker is built: one per partition.
        assert report.reconcile is None
        assert len(built) == 4

    def test_report_aggregation(self):
        module = build_workload(80, "thinagg")
        report = partitioned_merging(module, 3)
        assert len(report.reports) == 3
        assert report.merges == sum(r.merges for r in report.reports)
        assert report.total_time > 0
