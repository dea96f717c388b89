"""Tests for the experiment harness helpers."""

import pytest

from repro.harness import (
    CompileTimeModel,
    binned_sums,
    correlation_experiment,
    format_table,
    histogram2d,
    make_ranker,
    mean_ci95,
    pearson,
    run_merging,
    runtime_impact_experiment,
    selected_pairs_experiment,
)
from repro.workloads import build_workload
from tests.reference.alignment import align_functions as reference_align_functions


class TestStats:
    def test_pearson_perfect(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_pearson_degenerate(self):
        assert pearson([1, 1, 1], [1, 2, 3]) == 0.0
        assert pearson([1], [2]) == 0.0

    def test_histogram2d_cells(self):
        counts, xe, ye = histogram2d([0.005, 0.995], [0.005, 0.995], cell=0.01)
        assert counts.shape == (100, 100)
        assert counts.sum() == 2
        assert counts[0, 0] == 1
        assert counts[99, 99] == 1

    def test_binned_sums(self):
        bins = binned_sums([0.05, 0.15, 0.95, 0.95], [1, 2, 3, 4], bins=10)
        assert len(bins) == 10
        assert bins[0] == (0.0, 1.0)
        assert bins[1][1] == 2.0
        assert bins[9][1] == 7.0

    def test_binned_sums_clamps(self):
        bins = binned_sums([-0.5, 1.5], [1, 1], bins=10)
        assert bins[0][1] == 1.0
        assert bins[9][1] == 1.0

    def test_mean_ci95(self):
        mean, half = mean_ci95([1.0, 1.0, 1.0])
        assert mean == 1.0 and half == 0.0
        mean, half = mean_ci95([1.0, 3.0])
        assert mean == 2.0 and half > 0
        assert mean_ci95([]) == (0.0, 0.0)


class TestTable:
    def test_alignment(self):
        text = format_table(["name", "v"], [("a", 1), ("longer", 22)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[:2])
        assert "longer" in lines[3]


class TestExperimentDrivers:
    def test_make_ranker(self):
        assert make_ranker("hyfm").name == "hyfm"
        assert make_ranker("f3m").name == "f3m"
        assert make_ranker("f3m-adaptive").name == "f3m-adaptive"
        with pytest.raises(ValueError):
            make_ranker("quantum")

    def test_run_merging(self):
        module = build_workload(50, "harness")
        report = run_merging(module, "f3m")
        assert report.merges >= 0
        assert report.size_after <= report.size_before

    def test_compile_time_model(self):
        module = build_workload(30, "harness-ct")
        model = CompileTimeModel(seconds_per_instruction=1e-6)
        backend = model.backend_time(module)
        assert backend == pytest.approx(module.num_instructions * 1e-6)
        report = run_merging(module, "f3m")
        assert model.total_time(report, module) >= report.merge_time

    def test_correlation_experiment_minhash_beats_opcode(self):
        module = build_workload(120, "harness-corr")
        opcode = correlation_experiment(module, "opcode", max_pairs=4000)
        minhash = correlation_experiment(module, "minhash", max_pairs=4000)
        assert len(opcode.pairs) == len(minhash.pairs)
        assert -1.0 <= opcode.correlation <= 1.0
        assert minhash.correlation > opcode.correlation - 0.1

    @pytest.fixture(scope="class")
    def blocks_module(self):
        """A workload and its reference alignment ratio for every pair, in
        the dense (i < j) order the experiment uses below max_pairs."""
        module = build_workload(60, "harness-blocks")
        functions = module.defined_functions()
        ratios = [
            reference_align_functions(functions[i], functions[j]).alignment_ratio
            for i in range(len(functions))
            for j in range(i + 1, len(functions))
        ]
        return module, ratios

    @pytest.mark.parametrize("kind", ["opcode", "minhash"])
    def test_blocks_oracle_matches_reference(self, blocks_module, kind):
        """The block-level oracle, aligned through one engine per sweep,
        gives every pair the pure aligner's ratio."""
        module, ratios = blocks_module
        result = correlation_experiment(module, kind, oracle="blocks")
        assert [r for _s, r in result.pairs] == ratios
        assert result.correlation == pearson([s for s, _r in result.pairs], ratios)

    def test_correlation_unknown_kind(self):
        module = build_workload(20, "harness-k")
        with pytest.raises(ValueError):
            correlation_experiment(module, "quantum")

    def test_correlation_sampling_cap(self):
        module = build_workload(80, "harness-cap")
        result = correlation_experiment(module, "minhash", max_pairs=500)
        assert len(result.pairs) == 500

    def test_selected_pairs(self):
        module = build_workload(60, "harness-sel")
        rows = selected_pairs_experiment(module, "hyfm")
        assert rows
        for sim, profitable, saving, pair_time in rows:
            assert 0.0 <= sim <= 1.0
            assert isinstance(profitable, bool)
            assert pair_time >= 0.0
            if profitable:
                assert saving > 0

    def test_runtime_impact(self):
        impacts = runtime_impact_experiment(40, strategies=("f3m",), inputs=(1, 3))
        assert set(impacts) == {"f3m"}
        assert impacts["f3m"] >= 0.99
