"""Figure 3: HyFM stage breakdown across program sizes.

Paper claim: the ranking stage grows quadratically with the number of
functions and comes to dominate HyFM's runtime — small programs are
codegen-bound, large programs are ranking-bound — and much of the time goes
to *unsuccessful* pairs.
"""

import pytest

from repro.harness import format_table, run_merging

from conftest import header, workload

SIZES = [300, 1200, 3000]

_cache = {}


def _breakdown(n):
    if n not in _cache:
        module = workload(n, "fig3")
        _cache[n] = run_merging(module, "hyfm")
    return _cache[n]


@pytest.mark.parametrize("n", SIZES)
def test_fig03_single_size(benchmark, n):
    """Benchmark the full HyFM pass at one size (timing series)."""
    result = benchmark.pedantic(_breakdown, args=(n,), rounds=1, iterations=1)
    assert result.merges > 0


def test_fig03_breakdown_table(benchmark):
    def collect():
        return {n: _breakdown(n) for n in SIZES}

    reports = benchmark.pedantic(collect, rounds=1, iterations=1)
    header("Figure 3 — HyFM stage breakdown by program size")
    rows = []
    ranking_share = {}
    comparisons = {}
    for n in SIZES:
        report = reports[n]
        b = report.stage_breakdown()
        ranking = b["rank_success"] + b["rank_fail"]
        total = sum(b.values())
        ranking_share[n] = ranking / total if total else 0.0
        comparisons[n] = report.comparisons
        rows.append(
            (
                n,
                f"{b['preprocess']:.3f}",
                f"{b['rank_success']:.3f}",
                f"{b['rank_fail']:.3f}",
                f"{b['align_success'] + b['align_fail']:.3f}",
                f"{b['codegen_success'] + b['codegen_fail']:.3f}",
                f"{ranking_share[n]:.1%}",
                report.comparisons,
            )
        )
    print(
        format_table(
            [
                "functions",
                "preprocess",
                "rank_ok",
                "rank_fail",
                "align",
                "codegen",
                "rank_share",
                "comparisons",
            ],
            rows,
        )
    )
    # Quadratic ranking: comparisons grow ~n^2 (x10 functions => ~x100
    # comparisons); allow generous slack for population effects.
    small, large = SIZES[0], SIZES[-1]
    growth = comparisons[large] / comparisons[small]
    expected = (large / small) ** 2
    assert growth > expected * 0.5, (growth, expected)
    # Ranking's share of the pass grows with program size.
    assert ranking_share[large] > ranking_share[small]
