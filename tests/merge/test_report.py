"""Tests for the pass report accounting (drives Figures 3 and 13)."""

import pytest

from repro.harness import format_outcome_table
from repro.merge import MergeReport, Outcome
from repro.merge.report import OUTCOMES, AttemptRecord


def _attempt(outcome, **times):
    record = AttemptRecord("f", "g", 0.5, outcome)
    record.stage_times.update(times)
    return record


class TestStageBreakdown:
    def test_success_and_fail_buckets(self):
        report = MergeReport(strategy="x", stage_times={"fingerprint": 0.75, "index": 0.25})
        report.attempts = [
            _attempt("merged", rank=0.1, align=0.2, codegen=0.3, commit=0.05),
            _attempt("unprofitable", rank=0.4, align=0.5, codegen=0.6, profitability=0.01),
            _attempt("align_fail", rank=0.7, align=0.8),
        ]
        b = report.stage_breakdown()
        assert b["preprocess"] == 1.0
        assert abs(b["rank_success"] - 0.1) < 1e-12
        assert abs(b["rank_fail"] - 1.1) < 1e-12
        assert abs(b["align_success"] - 0.2) < 1e-12
        assert abs(b["align_fail"] - 1.3) < 1e-12
        assert abs(b["codegen_success"] - 0.3) < 1e-12
        assert abs(b["codegen_fail"] - 0.6) < 1e-12
        assert abs(b["profitability"] - 0.01) < 1e-12
        assert abs(b["commit"] - 0.05) < 1e-12

    def test_outcome_counts(self):
        report = MergeReport()
        report.attempts = [
            _attempt("merged"),
            _attempt("merged"),
            _attempt("no_candidate"),
        ]
        counts = report.outcome_counts()
        assert counts["merged"] == 2
        assert counts["no_candidate"] == 1
        assert sum(counts.values()) == 3

    def test_size_reduction_bounds(self):
        report = MergeReport(size_before=100, size_after=80)
        assert abs(report.size_reduction - 0.2) < 1e-12
        assert MergeReport(size_before=0, size_after=0).size_reduction == 0.0

    def test_successful_attempts_filter(self):
        report = MergeReport()
        report.attempts = [_attempt("merged"), _attempt("align_fail")]
        assert len(report.successful_attempts()) == 1

    def test_summary_contains_key_facts(self):
        report = MergeReport(
            strategy="f3m", num_functions=10, size_before=100, size_after=90, merges=2
        )
        report.attempts = [_attempt("merged"), _attempt("merged")]
        text = report.summary()
        assert "f3m" in text and "10 functions" in text and "2 merges" in text


class TestOutcomeEnum:
    def test_outcomes_are_closed(self):
        # Free-form outcome strings silently fork the aggregation keys;
        # records must be coerced into the closed enum at construction.
        with pytest.raises(ValueError):
            AttemptRecord("f", "g", 0.5, "mergd")

    def test_strings_coerce_and_compare(self):
        record = AttemptRecord("f", "g", 0.5, "merged")
        assert record.outcome is Outcome.MERGED
        assert record.outcome == "merged"
        assert str(record.outcome) == "merged"

    def test_every_outcome_is_countable(self):
        report = MergeReport()
        report.attempts = [_attempt(o) for o in OUTCOMES]
        counts = report.outcome_counts()
        assert set(counts) == set(OUTCOMES)
        assert all(v == 1 for v in counts.values())

    def test_contained_failures_filter(self):
        report = MergeReport()
        report.attempts = [
            _attempt("merged"),
            _attempt("internal_error"),
            _attempt("rolled_back"),
            _attempt("oracle_fail"),
        ]
        contained = report.contained_failures()
        assert [str(a.outcome) for a in contained] == ["internal_error", "rolled_back"]


class TestOutcomeTable:
    def test_zero_counts_hidden_by_default(self):
        report = MergeReport()
        report.attempts = [_attempt("merged"), _attempt("oracle_fail")]
        text = format_outcome_table(report.outcome_counts())
        assert "merged" in text and "oracle_fail" in text
        assert "internal_error" not in text

    def test_include_zero_lists_everything(self):
        report = MergeReport()
        report.attempts = [_attempt("merged")]
        text = format_outcome_table(report.outcome_counts(), include_zero=True)
        for outcome in OUTCOMES:
            assert outcome in text
