"""Pipeline profiler + perf-bench plumbing tests (fast, tiny workloads)."""

from repro.harness.profile import (
    PERF_STAGES,
    profile_from_report,
    profile_pass,
    run_perf_bench,
)
from repro.merge.pass_ import FunctionMergingPass, PassConfig
from repro.workloads import build_workload
from tests.reference import ReferenceMinHashRanker


class TestProfilePass:
    def test_stage_breakdown_shape(self):
        module = build_workload(40, "prof")
        profile, report = profile_pass(module, "f3m")
        assert profile.strategy == "f3m"
        assert profile.functions == report.num_functions
        assert set(profile.stages) == set(PERF_STAGES)
        assert profile.total_time > 0
        assert all(v >= 0 for v in profile.stages.values())
        # Named stages never account for more than the wall clock.
        assert profile.accounted <= profile.total_time
        # The F3M ranker reports a real fingerprint/index split.
        assert profile.stages["fingerprint"] > 0

    def test_per_function_path_folds_preprocess_into_fingerprint(self):
        # A ranker without a fingerprint/index split (the per-function
        # reference) times its whole preprocess as fingerprinting.
        module = build_workload(30, "prof2")
        ranker = ReferenceMinHashRanker()
        report = FunctionMergingPass(ranker, PassConfig(verify=False)).run(module)
        profile = profile_from_report(report, ranker)
        assert profile.stages["fingerprint"] == report.preprocess_time > 0
        assert profile.stages["index"] == 0.0

    def test_to_row_is_flat(self):
        module = build_workload(20, "prof3")
        profile, _ = profile_pass(module, "hyfm")
        row = profile.to_row()
        assert row["strategy"] == "hyfm"
        for stage in PERF_STAGES:
            assert f"stage_{stage}" in row


class TestRunPerfBench:
    def test_rows_and_metadata(self):
        rows, metadata = run_perf_bench(sizes=(25,), repeats=1)
        assert len(rows) == 1
        row = rows[0]
        assert row["size"] == 25
        for label in ("hyfm", "f3m", "f3m-adaptive"):
            assert row[label]["total_time"] > 0
        assert row["cache_remerge"]["hit_rate"] > 0
        assert metadata["headline"] == {
            "size": 25,
            "speedup_vs_hyfm": row["speedup_vs_hyfm"],
        }
        assert row["speedup_vs_hyfm"] > 0
        assert "speedup_vs_hyfm_definition" in metadata
