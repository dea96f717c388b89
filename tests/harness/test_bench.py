"""Tests for the BENCH_*.json emission helpers and the gate-cost table."""

import os
import platform

from repro.harness import (
    format_gate_cost_table,
    gate_cost_row,
    load_bench_json,
    write_bench_json,
)
from repro.merge import FunctionMergingPass, PassConfig
from repro.obs.manifest import git_revision
from repro.search import ExhaustiveRanker
from repro.workloads import build_workload


def _report(n=40, **config):
    module = build_workload(n, f"bench{n}")
    return FunctionMergingPass(
        ExhaustiveRanker(), PassConfig(verify=False, **config)
    ).run(module)


class TestGateCostRow:
    def test_row_schema(self):
        report = _report(static_check=True)
        row = gate_cost_row("bench40", report)
        assert row["module"] == "bench40"
        assert row["functions"] == report.num_functions
        assert row["attempts"] == len(report.attempts)
        assert row["merges"] == report.merges
        assert row["static_fails"] == 0
        assert row["static_time"] > 0
        assert row["oracle_time"] == 0.0  # oracle gate was off

    def test_static_time_sums_attempts(self):
        report = _report(static_check=True)
        row = gate_cost_row("m", report)
        assert row["static_time"] == sum(
            a.stage_times.get("staticcheck", 0.0) for a in report.attempts
        )


class TestBenchJson:
    def test_round_trip(self, tmp_path):
        report = _report(static_check=True)
        rows = [gate_cost_row("m", report)]
        path = tmp_path / "BENCH_test.json"
        write_bench_json(str(path), "test", rows, metadata={"sizes": [40]})
        payload = load_bench_json(str(path))
        assert payload["bench"] == "test"
        metadata = dict(payload["metadata"])
        metadata.pop("provenance")
        assert metadata == {"sizes": [40]}
        assert payload["rows"][0]["module"] == "m"
        assert payload["rows"][0]["static_time"] > 0

    def test_provenance_stamp(self, tmp_path):
        path = tmp_path / "BENCH_test.json"
        write_bench_json(str(path), "test", [], config={"sizes": [40], "repeats": 1})
        stamp = load_bench_json(str(path))["metadata"]["provenance"]
        assert stamp["cpu_count"] == os.cpu_count()
        assert stamp["git_rev"] == git_revision()
        assert stamp["python"] == platform.python_version()
        assert stamp["config"] == {"sizes": [40], "repeats": 1}


class TestGateCostTable:
    def test_formats_all_columns(self):
        report = _report(static_check=True)
        table = format_gate_cost_table([gate_cost_row("m", report)])
        assert "staticcheck" in table
        assert "oracle" in table
        assert "m" in table.splitlines()[2]
