"""Experiment drivers: one function per paper table/figure.

Every driver returns plain data structures (lists/dicts) so the benchmark
scripts under ``benchmarks/`` can both print the paper-style rows and
assert the qualitative claims (who wins, roughly by how much, where the
crossover falls).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..alignment.batch import BatchAlignmentEngine
from ..alignment.needleman_wunsch import EncodedRatioScorer, alignment_ratio_encoded
from ..analysis.size import module_size
from ..fingerprint.encoding import EncodingOptions, encode_function
from ..fingerprint.minhash import MinHashConfig, MinHashFingerprint
from ..fingerprint.opcode_freq import fingerprint_function
from ..ir.interp import Interpreter
from ..ir.module import Module
from ..merge.pass_ import FunctionMergingPass, PassConfig
from ..merge.report import MergeReport
from ..search.pairing import ExhaustiveRanker, MinHashLSHRanker, Ranker
from ..workloads.suites import build_workload
from .stats import pearson

__all__ = [
    "make_ranker",
    "run_merging",
    "CompileTimeModel",
    "correlation_experiment",
    "selected_pairs_experiment",
    "runtime_impact_experiment",
    "CorrelationResult",
]

# Modelled downstream-compilation speed.  A full -Os LTO pipeline compiles
# on the order of tens of thousands of IR instructions per second, i.e.
# tens of microseconds per instruction; the constant only needs to put the
# backend and the (Python) merging pass on comparable scales, as they are
# in the paper's C++ setting.
_BACKEND_SECONDS_PER_INSTRUCTION = 75e-6


def make_ranker(strategy: str, **kwargs) -> Ranker:
    """Ranker factory: ``"hyfm"`` | ``"f3m"`` | ``"f3m-adaptive"``."""
    if strategy == "hyfm":
        return ExhaustiveRanker()
    if strategy == "f3m":
        return MinHashLSHRanker(**kwargs)
    if strategy == "f3m-adaptive":
        return MinHashLSHRanker(adaptive=True, **kwargs)
    raise ValueError(f"unknown strategy {strategy!r}")


@dataclass
class CompileTimeModel:
    """Whole-compilation time = merging pass + modelled backend.

    The backend term scales with the *post-merging* module size, which is
    how merging can pay for itself (paper Section IV-C: "reducing the
    number of functions tends to reduce the amount of work for subsequent
    compilation passes").
    """

    seconds_per_instruction: float = _BACKEND_SECONDS_PER_INSTRUCTION

    def backend_time(self, module: Module) -> float:
        return module.num_instructions * self.seconds_per_instruction

    def total_time(self, report: MergeReport, module: Module) -> float:
        return report.merge_time + self.backend_time(module)


def run_merging(
    module: Module,
    strategy: str,
    pass_config: Optional[PassConfig] = None,
    **ranker_kwargs,
) -> MergeReport:
    """Run one merging configuration over *module* (mutating it).

    ``pass_config`` configures the pass; remaining keyword arguments go to
    the ranker factory (e.g. ``config=MinHashConfig(k=100)`` for F3M).
    """
    ranker = make_ranker(strategy, **ranker_kwargs)
    return FunctionMergingPass(ranker, pass_config or PassConfig(verify=False)).run(module)


# ---------------------------------------------------------------------------
# Figures 4 and 10: fingerprint similarity vs alignment-ratio correlation.
# ---------------------------------------------------------------------------


@dataclass
class CorrelationResult:
    fingerprint: str
    pairs: List[Tuple[float, float]] = field(default_factory=list)  # (sim, ratio)
    correlation: float = 0.0

    def identical_no_alignment(self) -> int:
        """Pairs with identical fingerprints but (near-)zero alignment."""
        return sum(1 for s, r in self.pairs if s >= 0.999 and r < 0.05)

    def disjoint_full_alignment(self) -> int:
        """Pairs with no fingerprint overlap but (near-)perfect alignment."""
        return sum(1 for s, r in self.pairs if s <= 0.001 and r > 0.95)


def correlation_experiment(
    module: Module,
    fingerprint: str = "minhash",
    max_pairs: int = 50_000,
    seed: int = 7,
    minhash_config: MinHashConfig = MinHashConfig(),
    encoding: Optional[EncodingOptions] = None,
    oracle: str = "blocks",
) -> CorrelationResult:
    """Sampled all-pairs similarity-vs-alignment sweep (Figs. 4 and 10).

    The paper plots all 800M Linux pairs; we sample up to *max_pairs*
    uniformly from the n·(n−1)/2 pair space, which preserves the
    correlation statistic the figure reports.

    ``oracle`` selects the alignment-quality ground truth: ``"blocks"``
    runs HyFM's structural block-level alignment (what the paper measures);
    ``"lcs"`` is a cheaper longest-common-subsequence ratio over the
    linearized encodings (more forgiving for unrelated pairs).
    """
    rng = random.Random(seed)
    functions = module.defined_functions()
    enc_options = encoding or EncodingOptions()
    encoded = [encode_function(f, enc_options) for f in functions]

    if fingerprint == "opcode":
        fps = [fingerprint_function(f) for f in functions]

        def sim(i: int, j: int) -> float:
            return fps[i].similarity(fps[j])

    elif fingerprint == "minhash":
        mfps = [
            MinHashFingerprint.from_encoded(e, minhash_config) for e in encoded
        ]

        def sim(i: int, j: int) -> float:
            return mfps[i].similarity(mfps[j])

    else:
        raise ValueError(f"unknown fingerprint kind {fingerprint!r}")

    n = len(functions)
    total_pairs = n * (n - 1) // 2
    result = CorrelationResult(fingerprint)
    if total_pairs <= max_pairs:
        pair_iter = ((i, j) for i in range(n) for j in range(i + 1, n))
    else:
        def sample():
            seen = set()
            while len(seen) < max_pairs:
                i = rng.randrange(n)
                j = rng.randrange(n)
                if i == j:
                    continue
                key = (min(i, j), max(i, j))
                if key not in seen:
                    seen.add(key)
                    yield key

        pair_iter = sample()

    if oracle == "blocks":
        engine = BatchAlignmentEngine()

        def ratio(i: int, j: int) -> float:
            return engine.align_functions(functions[i], functions[j]).alignment_ratio

    elif oracle == "lcs":
        # One scorer per left index: the dense pair order is i-outer, so
        # the SequenceMatcher's cached side (seq2 = encoded[i]) is reused
        # across all of i's partners instead of rebuilt per pair.
        scorers: Dict[int, EncodedRatioScorer] = {}

        def ratio(i: int, j: int) -> float:
            scorer = scorers.get(i)
            if scorer is None:
                scorers.clear()
                scorer = scorers[i] = EncodedRatioScorer(encoded[i])
            return scorer.ratio(encoded[j])

    else:
        raise ValueError(f"unknown oracle {oracle!r}")

    sims: List[float] = []
    ratios: List[float] = []
    for i, j in pair_iter:
        sims.append(sim(i, j))
        ratios.append(ratio(i, j))
    result.pairs = list(zip(sims, ratios))
    result.correlation = pearson(sims, ratios)
    return result


# ---------------------------------------------------------------------------
# Figures 6 and 9: similarity distribution of selected pairs.
# ---------------------------------------------------------------------------


def selected_pairs_experiment(
    module: Module, strategy: str, pass_config: Optional[PassConfig] = None, **kw
) -> List[Tuple[float, bool, int, float]]:
    """Run merging; return (similarity, profitable, saving, pair_time) per
    ranked pair (Figure 6 histogram, Figure 9 contributions)."""
    report = run_merging(module, strategy, pass_config, **kw)
    rows = []
    for att in report.attempts:
        if att.candidate is None or att.outcome == "rejected_threshold":
            continue
        pair_time = sum(
            att.stage_times.get(name, 0.0) for name in ("align", "codegen", "commit")
        )
        rows.append((att.similarity, att.success, att.saving, pair_time))
    return rows


# ---------------------------------------------------------------------------
# Figure 17: runtime impact of merged code.
# ---------------------------------------------------------------------------


def runtime_impact_experiment(
    num_functions: int,
    strategies: Sequence[str] = ("hyfm", "f3m"),
    inputs: Sequence[int] = (1, 5, 11),
    name: str = "runtime",
) -> Dict[str, float]:
    """Dynamic-instruction overhead of merged code relative to baseline.

    Returns {strategy: relative slowdown}, where slowdown is the ratio of
    summed dynamic instruction counts of the workload driver.
    """
    baseline = build_workload(num_functions, name)
    driver = baseline.get_function("driver")
    base_count = 0
    for x in inputs:
        base_count += Interpreter().run(driver, [x]).instructions_executed

    out: Dict[str, float] = {}
    for strategy in strategies:
        module = build_workload(num_functions, name)
        run_merging(module, strategy)
        merged_driver = module.get_function("driver")
        count = 0
        for x in inputs:
            count += Interpreter().run(merged_driver, [x]).instructions_executed
        out[strategy] = count / base_count if base_count else 1.0
    return out
