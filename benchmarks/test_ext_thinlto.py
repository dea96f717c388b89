"""Extension experiment: ThinLTO-style partitioned merging (paper §VI).

The paper's future work proposes integrating function merging with
summary-based LTO.  This experiment quantifies the two halves of that
argument on one workload:

1. splitting the program into partitions loses cross-partition merge
   pairs, so the partition-local size reduction degrades monotonically
   with partition count;
2. a global MinHash index over every partition's survivors (the
   reconcile phase) identifies exactly which pairs span partitions — the
   import list a ThinLTO integration would need — and recovers them,
   showing the F3M fingerprint is the right summary format.
"""

from repro.harness import format_table
from repro.merge import partitioned_merging

from conftest import header, workload

N = 600
PARTITIONS = [1, 2, 4, 8]

_cache = {}


def _sweep():
    if "data" not in _cache:
        data = {}
        for k in PARTITIONS:
            module = workload(N, "thinlto")
            data[k] = partitioned_merging(module, k, reconcile=True)
        _cache["data"] = data
    return _cache["data"]


def _phase1_reduction(report) -> float:
    """Size reduction of the partition-local passes alone."""
    return 1.0 - report.reconcile.size_phase1 / report.size_before


def test_ext_thinlto_partition_sweep(benchmark):
    data = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    header("Extension — ThinLTO-style partitioned merging (paper §VI)")
    rows = []
    for k in PARTITIONS:
        report = data[k]
        rows.append(
            (
                k,
                report.merges,
                f"{_phase1_reduction(report):.2%}",
                report.reconcile.cross_candidates,
                report.reconcile.recovered_pairs,
                f"{report.size_reduction:.2%}",
            )
        )
    print(
        format_table(
            [
                "partitions",
                "merges",
                "size reduction",
                "cross-partition partners",
                "recovered pairs",
                "after reconcile",
            ],
            rows,
        )
    )
    print(
        "cross-partition partners = survivors whose best global match (per "
        "the reconcile phase's MinHash index) lives in another partition; a "
        "ThinLTO integration would import those."
    )
    # Monotone degradation with partition count.
    reductions = [_phase1_reduction(data[k]) for k in PARTITIONS]
    assert all(b <= a + 0.005 for a, b in zip(reductions, reductions[1:]))
    assert reductions[0] > reductions[-1]
    # The summary index sees the loss coming.
    assert (
        data[8].reconcile.cross_candidates > data[2].reconcile.cross_candidates
    )
    assert data[1].reconcile.cross_candidates == 0
