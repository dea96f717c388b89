"""Tier-2 regression gates for the merge daemon (``repro serve``).

Runs the same machinery as ``repro bench-perf serve`` at a CI-sized
corpus and gates on the two properties the daemon must never lose:

* **Warm speedup** — a merge served from hot caches (fingerprints,
  alignments, plans resident from the submit) must beat a cold
  subprocess one-shot by a comfortable margin.  The headline claim is
  >=5x at full scale; the CI gate uses 2.5x so a slow shared runner
  cannot flake it while still catching any "caches stopped being
  consulted" regression, which shows up as ~1x.
* **Pipeline-warm speedup** — a merge that skips the result cache but
  runs the pass on the daemon's warm fingerprint, alignment and plan
  caches must beat the cold subprocess one-shot too.  Caches whose
  lookups cost more than the work they save read ~1x here, or below.
* **Decision identity** — the daemon's merge output is byte-identical
  to the one-shot ``repro merge -s f3m`` pipeline, and the incrementally
  maintained index (tombstone removes + re-inserts) gives every function
  the same best match as a serial replay of the identical op sequence.

There is deliberately **no delta-speedup gate here**: the >=10x
delta-vs-rebuild headline is only meaningful at the 20k scale of the
committed ``BENCH_serve.json``, and at CI scale the absolute times are
small enough that the ratio is noise-dominated.  The ratio is recorded
in the emitted bench JSON for post-hoc inspection instead.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_serve_perf.py -m perf --no-header
"""

import pytest

from repro.harness.bench import write_bench_json
from repro.harness.serve_bench import run_serve_bench

pytestmark = [pytest.mark.tier2, pytest.mark.perf]

_SIZES = (2000,)
_MIN_WARM_SPEEDUP = 2.5
#: Five runs at 2,000 functions on a loaded 2-vCPU host read 1.29-1.76
#: (median 1.48, interquartile range 0.05).  The 0.10 margin over 1x sits
#: 0.19 below the slowest run, and a cache whose lookups cost what they
#: save reads ~1.0.
_MIN_PIPELINE_SPEEDUP = 1.10


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    rows, metadata = run_serve_bench(sizes=_SIZES, repeats=2)
    out = tmp_path_factory.mktemp("bench") / "BENCH_serve.json"
    write_bench_json(str(out), "serve", rows, metadata)
    return rows, metadata


class TestWarmSpeedup:
    def test_warm_merge_beats_cold_subprocess(self, sweep):
        rows, _ = sweep
        assert rows, "sweep produced no rows"
        for row in rows:
            assert row["warm_speedup"] >= _MIN_WARM_SPEEDUP, {
                "size": row["size"],
                "warm_speedup": row["warm_speedup"],
                "cold_subprocess_s": row["cold_subprocess_s"],
                "warm_steady_s": row["warm_steady_s"],
            }


class TestPipelineSpeedup:
    def test_pipeline_warm_merge_beats_cold_subprocess(self, sweep):
        rows, _ = sweep
        for row in rows:
            assert row["pipeline_speedup"] > _MIN_PIPELINE_SPEEDUP, {
                "size": row["size"],
                "pipeline_speedup": row["pipeline_speedup"],
                "cold_subprocess_s": row["cold_subprocess_s"],
                "warm_pipeline_s": row["warm_pipeline_s"],
            }


class TestDecisionIdentity:
    def test_served_merge_identical_to_one_shot(self, sweep):
        rows, _ = sweep
        for row in rows:
            assert row["decisions_identical"] is True, row["size"]

    def test_incremental_index_matches_serial_replay(self, sweep):
        rows, _ = sweep
        for row in rows:
            assert row["serial_identical"] is True, row["size"]


class TestShape:
    def test_delta_ratio_and_headline_recorded(self, sweep):
        rows, metadata = sweep
        for row in rows:
            assert row["delta_update_s"] > 0.0
            assert row["full_rebuild_s"] > 0.0
            assert row["delta_speedup"] > 0.0
            assert 0.0 <= row["rebuild_agreement"] <= 1.0
        assert "headline" in metadata
