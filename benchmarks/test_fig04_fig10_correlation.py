"""Figures 4 and 10: fingerprint similarity vs alignment correlation.

Paper claim: opcode-frequency similarity correlates weakly with the actual
alignment ratio (R ≈ 0.20 on Linux), while MinHash similarity correlates
about 3× better (R ≈ 0.62).  On our synthetic population both correlations
sit higher (generated functions are more homogeneous than Linux), but the
ordering and the gap reproduce.
"""

from repro.harness import correlation_experiment, format_table, histogram2d

from conftest import header, workload

N_FUNCTIONS = 400
MAX_PAIRS = 20_000

_cache = {}


def _corpus():
    if "corpus" not in _cache:
        _cache["corpus"] = workload(N_FUNCTIONS, "fig4")
    return _cache["corpus"]


def _result(kind):
    if kind not in _cache:
        _cache[kind] = correlation_experiment(_corpus(), kind, max_pairs=MAX_PAIRS)
    return _cache[kind]


def test_fig04_opcode_correlation_is_weak(benchmark):
    opcode = benchmark.pedantic(_result, args=("opcode",), rounds=1, iterations=1)
    header("Figure 4 — opcode-frequency similarity vs alignment ratio")
    counts, _, _ = histogram2d(*zip(*opcode.pairs))
    print(f"pairs sampled: {len(opcode.pairs)}")
    print(f"heatmap cells populated: {(counts > 0).sum()} / {counts.size}")
    print(f"Pearson R = {opcode.correlation:.3f}  (paper: ~0.20)")
    assert opcode.correlation < 0.6


def test_fig10_minhash_correlation_is_strong(benchmark):
    minhash = benchmark.pedantic(_result, args=("minhash",), rounds=1, iterations=1)
    opcode = _result("opcode")
    header("Figure 10 — MinHash similarity vs alignment ratio")
    print(f"Pearson R = {minhash.correlation:.3f}  (paper: ~0.62)")
    print(
        f"identical-fingerprint/no-alignment pairs: "
        f"{minhash.identical_no_alignment()}"
    )
    print(
        f"disjoint-fingerprint/full-alignment pairs: "
        f"{minhash.disjoint_full_alignment()}"
    )
    rows = [
        ("opcode-frequency (HyFM)", f"{opcode.correlation:.3f}", "0.20"),
        ("MinHash (F3M)", f"{minhash.correlation:.3f}", "0.62"),
        (
            "improvement",
            f"{minhash.correlation / max(opcode.correlation, 1e-9):.2f}x",
            "~3x",
        ),
    ]
    print(format_table(["fingerprint", "measured R", "paper R"], rows))
    # The headline claim: MinHash correlates substantially better.
    assert minhash.correlation > opcode.correlation + 0.1
    assert minhash.correlation > 0.5


def test_fig10_encoding_ablation(benchmark):
    """DESIGN.md ablation: hashing *encoded* instructions (types folded in)
    must correlate at least as well as the default; the encoding is what
    separates mergeable from textually-identical."""
    from tests.reference import encode_function_with_predicates

    def run():
        return correlation_experiment(
            _corpus(),
            "minhash",
            max_pairs=10_000,
            encode=encode_function_with_predicates,
        )

    with_preds = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"minhash R with predicate-aware encoding: {with_preds.correlation:.3f}")
    assert with_preds.correlation > 0.4
