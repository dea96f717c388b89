"""Tier-2 regression gates for the corpus-scale sweep.

Runs the same machinery as ``repro bench-perf scale`` at a CI-sized
corpus and gates on the two properties the scaling work must never lose:

* **Exactness** — fingerprints in the memmap store are bit-identical to
  the in-RAM batch engine, and the frozen store-backed index
  (``LSHIndex.from_store``) makes exactly the in-RAM ``LSHIndex``'s
  decisions.
* **Memory** — at the largest size the memmap-store path's peak RSS
  (fork-isolated, kernel-accounted) stays strictly below the in-RAM
  path's.  This is the reason the store exists; losing it silently would
  make the 10^5-10^6 regime unreachable again.

There is deliberately **no speedup gate**: both indexes answer through
the same per-key ``best_match`` loop, so the store path bounds memory
rather than buying speed.  Stage wall-clock is recorded in the emitted
bench JSON for post-hoc inspection instead.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_scale_regression.py -m perf --no-header
"""

import pytest

from repro.harness.bench import write_bench_json
from repro.harness.scale import run_scale_bench

pytestmark = [pytest.mark.tier2, pytest.mark.perf]

_SIZES = (2000, 20000)


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    rows, metadata = run_scale_bench(sizes=_SIZES, chunk=2000)
    out = tmp_path_factory.mktemp("bench") / "BENCH_scale.json"
    write_bench_json(str(out), "scale", rows, metadata)
    return rows, metadata


class TestExactness:
    def test_fingerprints_bit_identical(self, sweep):
        rows, _ = sweep
        assert rows, "sweep produced no rows"
        for row in rows:
            assert row["fingerprints_bit_identical"] is True, row["size"]

    def test_store_decisions_equal_inram(self, sweep):
        rows, _ = sweep
        for row in rows:
            assert row["decisions_identical"] is True, row["size"]


class TestMemory:
    def test_store_peak_rss_below_inram_at_largest(self, sweep):
        rows, _ = sweep
        largest = max(rows, key=lambda row: row["size"])
        assert largest["size"] == max(_SIZES)
        assert largest["store_peak_rss_kb"] < largest["inram_peak_rss_kb"], {
            "store_kb": largest["store_peak_rss_kb"],
            "inram_kb": largest["inram_peak_rss_kb"],
        }


class TestShape:
    def test_per_stage_timings_and_rss_recorded(self, sweep):
        rows, metadata = sweep
        for row in rows:
            for name, stage in row["stages"].items():
                assert stage["seconds"] >= 0.0, (row["size"], name)
                assert stage["rss_peak_kb"] >= stage["rss_baseline_kb"] >= 0
        assert "headline" in metadata
