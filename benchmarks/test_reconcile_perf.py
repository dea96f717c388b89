"""Tier-2 regression gates for optimistic cross-partition merging.

Runs the same machinery as ``repro bench-perf reconcile`` at CI size
and gates on the properties the two-phase run must never lose:

* **Recovery** — on a workload whose similarity families straddle
  partition boundaries (the standard generated workload with 4
  hash-assigned partitions), the reconcile phase must recover a nonzero
  number of cross-partition pairs and the final module must be strictly
  smaller than the partition-local result (``recovered_size_delta > 0``;
  the headline gate is >= 0 — reconciliation may at worst break even,
  never lose bytes).
* **Phase-1 fidelity** — the reconcile run's phase-1 size equals the
  partition-local baseline's final size, so the recovered delta measures
  exactly the reconcile phase.
* **Determinism** — the run digest (partition decisions plus phase-2
  reconcile decisions) is identical across repeated runs.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_reconcile_perf.py -m perf --no-header
"""

import pytest

from repro.harness.bench import write_bench_json
from repro.harness.reconcile_bench import run_reconcile_bench

pytestmark = [pytest.mark.tier2, pytest.mark.perf]

_SIZES = (48, 96)


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    rows, metadata = run_reconcile_bench(sizes=_SIZES, partitions=4, repeats=2)
    out = tmp_path_factory.mktemp("bench") / "BENCH_reconcile.json"
    write_bench_json(str(out), "reconcile", rows, metadata)
    return rows, metadata


class TestRecovery:
    def test_recovers_cross_partition_pairs(self, sweep):
        rows, _ = sweep
        assert rows, "sweep produced no rows"
        for row in rows:
            assert row["recovered_pairs"] > 0, row["size"]

    def test_final_module_strictly_smaller_than_partition_local(self, sweep):
        rows, _ = sweep
        for row in rows:
            assert row["size_after"] < row["baseline_size_after"], {
                "size": row["size"],
                "size_after": row["size_after"],
                "baseline_size_after": row["baseline_size_after"],
            }

    def test_headline_delta_nonnegative(self, sweep):
        _, metadata = sweep
        assert metadata["headline"]["recovered_size_delta"] >= 0


class TestPhase1Fidelity:
    def test_phase1_size_matches_partition_local_baseline(self, sweep):
        rows, _ = sweep
        for row in rows:
            assert row["phase1_size_identical"] is True, {
                "size": row["size"],
                "size_phase1": row["size_phase1"],
                "baseline_size_after": row["baseline_size_after"],
            }

    def test_phase1_merges_match_baseline(self, sweep):
        rows, _ = sweep
        for row in rows:
            assert row["phase1_merges"] == row["baseline_merges"], row["size"]


class TestDeterminism:
    def test_decisions_deterministic_across_runs(self, sweep):
        rows, metadata = sweep
        for row in rows:
            assert row["decisions_deterministic"] is True, row["size"]
        assert metadata["headline"]["decisions_deterministic"] is True

    def test_no_reapply_failures(self, sweep):
        rows, _ = sweep
        for row in rows:
            assert row["reapply_failures"] == 0, row["size"]
