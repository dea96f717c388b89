"""Pipeline profiler and the ``perf``/``attempts`` bench-perf suites.

Two layers:

* :func:`profile_pass` runs one merging configuration and folds the pass's
  stage table (:meth:`~repro.merge.report.MergeReport.stage_totals`) into
  a flat :class:`PipelineProfile` — wall-clock total and seconds per
  :data:`PERF_STAGES` stage.
* :func:`run_perf_bench` profiles HyFM, F3M and F3M adaptive on the same
  workloads and reports HyFM's pass time over F3M's (``speedup_vs_hyfm``);
  ``repro bench-perf perf`` emits the result as ``BENCH_f3m_perf.json``.
  :func:`run_attempt_bench` checks the attempt-stage engine's identity and
  soundness flags (``BENCH_attempt_perf.json``).

Timings take the best of ``repeats`` runs — on a noisy shared box the
minimum is the stable estimator of the actual cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..fingerprint.batch import minhash_module
from ..fingerprint.cache import FingerprintCache
from ..fingerprint.minhash import MinHashConfig
from ..ir.module import Module
from ..merge.pass_ import FunctionMergingPass, PassConfig
from ..merge.report import PERF_STAGES, MergeReport
from .bench import best_of
from .experiments import make_ranker

__all__ = [
    "PipelineProfile",
    "profile_pass",
    "run_perf_bench",
    "run_attempt_bench",
    "PERF_STAGES",
]

@dataclass
class PipelineProfile:
    """Wall-clock cost of one pass run, split by pipeline stage."""

    strategy: str
    functions: int
    total_time: float
    stages: Dict[str, float] = field(default_factory=dict)
    merges: int = 0
    comparisons: int = 0
    size_reduction: float = 0.0
    cache_stats: Optional[Dict[str, object]] = None

    @property
    def accounted(self) -> float:
        """Seconds attributed to a named stage (≤ total_time; the rest is
        pass bookkeeping between stages)."""
        return sum(self.stages.values())

    def to_row(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "strategy": self.strategy,
            "functions": self.functions,
            "total_time": self.total_time,
            "merges": self.merges,
            "comparisons": self.comparisons,
            "size_reduction": self.size_reduction,
        }
        for stage in PERF_STAGES:
            row[f"stage_{stage}"] = self.stages.get(stage, 0.0)
        if self.cache_stats is not None:
            row["cache"] = dict(self.cache_stats)
        return row


def profile_from_report(report: MergeReport, ranker=None) -> PipelineProfile:
    """Fold a finished pass report into a :class:`PipelineProfile`; the
    ranker, when given, contributes its fingerprint-cache counters."""
    stages = report.stage_totals()
    cache_stats = None
    cache = getattr(ranker, "cache", None)
    if cache is not None:
        cache_stats = cache.stats.to_dict()
    return PipelineProfile(
        strategy=report.strategy,
        functions=report.num_functions,
        total_time=report.total_time,
        stages=stages,
        merges=report.merges,
        comparisons=report.comparisons,
        size_reduction=report.size_reduction,
        cache_stats=cache_stats,
    )


def profile_pass(
    module: Module,
    strategy: str = "f3m",
    pass_config: Optional[PassConfig] = None,
    **ranker_kwargs,
) -> Tuple[PipelineProfile, MergeReport]:
    """Run one merging configuration over *module* and profile it.

    Mutates *module* (it runs the real pass).  Keyword arguments go to the
    ranker factory, e.g. ``cache=FingerprintCache()``.
    """
    ranker = make_ranker(strategy, **ranker_kwargs)
    pass_ = FunctionMergingPass(ranker, pass_config or PassConfig(verify=False))
    report = pass_.run(module)
    return profile_from_report(report, ranker), report


# ---------------------------------------------------------------------------
# The bench-perf suites
# ---------------------------------------------------------------------------


def _merged_pairs(report: MergeReport) -> set:
    return {
        (a.function, a.candidate) for a in report.attempts if a.outcome == "merged"
    }


def run_attempt_bench(
    sizes: Sequence[int],
    repeats: int = 3,
    workload: str = "perf",
) -> Tuple[List[Dict[str, object]], Dict[str, object]]:
    """The ``bench-perf attempts`` suite for ``BENCH_attempt_perf.json``.

    Per workload size:

    * end-to-end equivalence checks on the full pass — bounded vs
      unbounded, cold vs prewarmed engine — each comparing the final
      printed module bit-for-bit;
    * bound soundness: the pairs ``rejected_bound`` skipped, intersected
      with the pairs the *unbounded* pipeline merged (must be empty);
    * a profiled pass with the bound/align/codegen stage split.
    """
    from ..alignment.batch import BatchAlignmentEngine
    from ..ir.printer import print_module
    from ..workloads.suites import build_workload

    rows: List[Dict[str, object]] = []
    headline: Dict[str, object] = {}
    for size in sizes:

        def fresh() -> Module:
            return build_workload(size, workload)

        row: Dict[str, object] = {"workload": workload, "size": size}

        def run_pass(config: PassConfig, engine=None) -> Tuple[str, MergeReport]:
            mod = fresh()
            ranker = make_ranker("f3m")
            pass_ = FunctionMergingPass(ranker, config, alignment_engine=engine)
            report = pass_.run(mod)
            return print_module(mod), report

        # Bounded vs unbounded: same merges, same final module, and the
        # bound never rejects a pair the unbounded pipeline merged.
        text_unbound, rep_unbound = run_pass(
            PassConfig(verify=False, prealign_bound=False)
        )
        text_bound, rep_bound = run_pass(PassConfig(verify=False))
        rejected = {
            (a.function, a.candidate)
            for a in rep_bound.attempts
            if a.outcome == "rejected_bound"
        }
        row["bounded_identical"] = text_bound == text_unbound
        row["rejected_bound"] = len(rejected)
        row["bound_unsound_rejections"] = sorted(
            rejected & _merged_pairs(rep_unbound)
        )
        row["attempted_alignments_unbounded"] = sum(
            1 for a in rep_unbound.attempts if "align" in a.stage_times
        )
        row["attempted_alignments_bounded"] = sum(
            1 for a in rep_bound.attempts if "align" in a.stage_times
        )
        row["attempted_codegens_unbounded"] = sum(
            1 for a in rep_unbound.attempts if "codegen" in a.stage_times
        )
        row["attempted_codegens_bounded"] = sum(
            1 for a in rep_bound.attempts if "codegen" in a.stage_times
        )

        # Cold vs prewarmed engine: a pass through an engine warmed on an
        # identical module must produce a bit-identical module (the cache
        # hit path changes nothing but time).
        warm_engine = BatchAlignmentEngine()
        run_pass(PassConfig(verify=False), engine=warm_engine)
        hits_before = warm_engine.cache.stats.hits + warm_engine.plans.stats.hits
        text_cached, _rep_cached = run_pass(PassConfig(verify=False), engine=warm_engine)
        hits_after = warm_engine.cache.stats.hits + warm_engine.plans.stats.hits
        row["cached_identical"] = text_cached == text_bound
        row["cache_hits_during_warm_run"] = hits_after - hits_before

        # Stage split of the production configuration.
        row["f3m_profile"] = _best_profile(fresh, "f3m", repeats).to_row()

        rows.append(row)
        headline = {
            "size": size,
            "bounded_identical": row["bounded_identical"],
            "cached_identical": row["cached_identical"],
            "bound_sound": not row["bound_unsound_rejections"],
        }

    metadata: Dict[str, object] = {
        "workload": workload,
        "repeats": repeats,
        "headline": headline,
    }
    return rows, metadata


def _best_profile(
    fresh: Callable[[], Module], strategy: str, repeats: int
) -> PipelineProfile:
    """The fastest of ``repeats`` profiled passes, each on a fresh module."""
    best: Optional[PipelineProfile] = None
    for _ in range(max(1, repeats)):
        profile, _report = profile_pass(fresh(), strategy)
        if best is None or profile.total_time < best.total_time:
            best = profile
    return best


def run_perf_bench(
    sizes: Sequence[int],
    repeats: int = 3,
    workload: str = "perf",
) -> Tuple[List[Dict[str, object]], Dict[str, object]]:
    """The ``bench-perf perf`` suite: rows + metadata for ``BENCH_f3m_perf.json``.

    Per workload size: profiled pass runs for ExhaustiveRanker (HyFM), F3M
    (static config) and F3M adaptive, HyFM's pass time over F3M's
    (``speedup_vs_hyfm``), and a cached remerge run (same module
    fingerprinted again through a warm :class:`FingerprintCache`).
    """
    from ..workloads.suites import build_workload

    rows: List[Dict[str, object]] = []
    headline: Dict[str, object] = {}
    for size in sizes:

        def fresh() -> Module:
            return build_workload(size, workload)

        row: Dict[str, object] = {"workload": workload, "size": size}
        profiles = {
            strategy: _best_profile(fresh, strategy, repeats)
            for strategy in ("hyfm", "f3m", "f3m-adaptive")
        }
        for strategy, profile in profiles.items():
            row[strategy] = profile.to_row()

        # Cached remerge: fingerprint the same module again through a warm
        # cache — every lookup hits.
        cache = FingerprintCache()
        funcs = fresh().defined_functions()
        minhash_module(funcs, MinHashConfig(), cache=cache)
        t_warm = best_of(
            {"t": lambda: minhash_module(funcs, MinHashConfig(), cache=cache)},
            repeats,
        )["t"]
        row["cache_remerge"] = {
            "warm_fingerprint_s": t_warm,
            **cache.stats.to_dict(),
        }

        f3m_time = profiles["f3m"].total_time
        row["speedup_vs_hyfm"] = (
            profiles["hyfm"].total_time / f3m_time if f3m_time > 0 else 0.0
        )
        rows.append(row)
        headline = {"size": size, "speedup_vs_hyfm": row["speedup_vs_hyfm"]}

    metadata: Dict[str, object] = {
        "workload": workload,
        "repeats": repeats,
        "headline": headline,
        "speedup_vs_hyfm_definition": (
            "HyFM pass time / F3M (static) pass time at the largest size, "
            "best of `repeats` runs each on a fresh module"
        ),
    }
    return rows, metadata
