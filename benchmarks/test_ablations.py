"""Ablations for the design choices DESIGN.md calls out.

* shingle size K (paper Section III-B: K = 2 is best — K = 1 loses
  structure, K > 2 loses hash matches);
* the xor-salt trick vs k independent hash functions (paper: "a very small
  effect on the quality ... many times faster");
* the post-merge clean-up pipeline (our stand-in for LLVM's -Os backend
  passes) and its effect on measured size reduction.
"""

import time

from repro.fingerprint import MinHashConfig
from repro.harness import correlation_experiment, format_table, run_merging

from conftest import header, workload

_cache = {}


def _corpus():
    if "corpus" not in _cache:
        _cache["corpus"] = workload(300, "ablate")
    return _cache["corpus"]


def test_ablation_shingle_size(benchmark):
    """K = 2 should correlate with alignment at least as well as K = 1
    (which ignores order) and K = 3 (which over-fragments)."""

    def run():
        out = {}
        for k in (1, 2, 3):
            result = correlation_experiment(
                _corpus(),
                "minhash",
                max_pairs=8_000,
                minhash_config=MinHashConfig(shingle_size=k),
            )
            out[k] = result.correlation
        return out

    corr = benchmark.pedantic(run, rounds=1, iterations=1)
    header("Ablation — shingle size K")
    print(
        format_table(
            ["K", "similarity/alignment correlation"],
            [(k, f"{corr[k]:.3f}") for k in sorted(corr)],
        )
    )
    # K=2 captures structure K=1 cannot and keeps matches K=3 loses —
    # the paper's stated reason for choosing K=2.
    assert corr[2] >= corr[1] - 0.02
    assert corr[2] >= corr[3] - 0.02


def test_ablation_xor_salt_trick(benchmark):
    """The single-hash + xor-salts derivation must match independent hash
    functions on estimate quality while being much faster to compute."""
    from repro.fingerprint import MinHashFingerprint, encode_function, exact_jaccard
    from tests.reference import reference_minhash

    functions = _corpus().defined_functions()[:60]
    encoded = [encode_function(f) for f in functions]

    cfg = MinHashConfig(k=128)

    def independent_fingerprint(stream):
        # The k-independent-hashes side lives in the test oracle.
        values, shingles = reference_minhash(stream, cfg, independent=True)
        return MinHashFingerprint(values, cfg, shingles)

    def build(independent):
        make = independent_fingerprint if independent else (
            lambda e: MinHashFingerprint.from_encoded(e, cfg)
        )
        start = time.perf_counter()
        fps = [make(e) for e in encoded]
        elapsed = time.perf_counter() - start
        errors = []
        for i in range(0, len(fps) - 1, 2):
            estimated = fps[i].similarity(fps[i + 1])
            exact = exact_jaccard(encoded[i], encoded[i + 1])
            errors.append(abs(estimated - exact))
        return elapsed, sum(errors) / len(errors)

    xor_time, xor_err = benchmark.pedantic(build, args=(False,), rounds=1, iterations=1)
    ind_time, ind_err = build(True)
    header("Ablation — xor-salt trick vs independent hashes")
    print(
        format_table(
            ["variant", "fingerprint time", "mean |estimate - exact|"],
            [
                ("single hash + xor salts (paper)", f"{xor_time * 1000:.1f}ms", f"{xor_err:.3f}"),
                ("k independent hashes", f"{ind_time * 1000:.1f}ms", f"{ind_err:.3f}"),
            ],
        )
    )
    assert xor_time < ind_time  # "many times faster"
    assert abs(xor_err - ind_err) < 0.08  # "very small effect on quality"


def test_ablation_postmerge_cleanup(benchmark):
    """Running the clean-up pipeline after merging only improves the
    measured size, and never breaks the module."""
    from repro.analysis import module_size
    from repro.ir import verify_module
    from repro.transforms import optimize_module

    def run():
        module = workload(300, "ablate-opt")
        report = run_merging(module, "f3m")
        merged_size = module_size(module)
        # Library semantics: every function is a potential entry point, so
        # global DCE of unreferenced functions would overstate the win.
        stats = optimize_module(module, drop_dead_functions=False)
        verify_module(module)
        return report.size_before, merged_size, module_size(module), stats

    original, merged, cleaned, stats = benchmark.pedantic(run, rounds=1, iterations=1)
    header("Ablation — post-merge clean-up pipeline")
    print(
        format_table(
            ["stage", "modelled size", "reduction vs original"],
            [
                ("original", original, "-"),
                ("after merging", merged, f"{1 - merged / original:.2%}"),
                ("after merging + cleanup", cleaned, f"{1 - cleaned / original:.2%}"),
            ],
        )
    )
    print(
        f"cleanup work: {stats.folds} folds, {stats.cfg_changes} CFG changes, "
        f"{stats.dead_instructions} dead instructions, "
        f"{stats.dead_functions} dead functions"
    )
    assert cleaned <= merged <= original
