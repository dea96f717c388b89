"""Experiment harness: drivers and helpers for the paper's tables/figures."""

from .bench import best_of, gate_cost_row, load_bench_json, write_bench_json
from .profile import PERF_STAGES, PipelineProfile, profile_pass, run_perf_bench
from .experiments import (
    CompileTimeModel,
    CorrelationResult,
    correlation_experiment,
    make_ranker,
    run_merging,
    runtime_impact_experiment,
    selected_pairs_experiment,
)
from .stats import binned_sums, histogram2d, mean_ci95, pearson
from .table import format_gate_cost_table, format_outcome_table, format_table

__all__ = [
    "best_of",
    "gate_cost_row",
    "load_bench_json",
    "write_bench_json",
    "PERF_STAGES",
    "PipelineProfile",
    "profile_pass",
    "run_perf_bench",
    "CompileTimeModel",
    "CorrelationResult",
    "correlation_experiment",
    "make_ranker",
    "run_merging",
    "runtime_impact_experiment",
    "selected_pairs_experiment",
    "binned_sums",
    "histogram2d",
    "mean_ci95",
    "pearson",
    "format_gate_cost_table",
    "format_outcome_table",
    "format_table",
]
