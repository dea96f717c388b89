"""Stage-level accounting for the merging pass.

The paper's Figures 3 and 13 break the pass runtime into preprocess /
ranking / align / codegen stages, each split by whether the attempt
ultimately succeeded.  :class:`MergeReport` collects exactly that, plus the
pair-level records behind Figures 6, 9 and 14.  Every time in here is a
``stage_times`` entry written by the stage timer (:mod:`repro.obs.stage`),
keyed by the canonical names in :data:`PERF_STAGES`.

Outcomes are a *closed* enum (:class:`Outcome`): every attempt ends in
exactly one of these states, and constructing a record with anything else
raises immediately instead of silently splitting the aggregation keyspace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Union

__all__ = ["Outcome", "AttemptRecord", "MergeReport", "OUTCOMES", "PERF_STAGES"]

#: The ranker's set-up stages, timed once per pass into
#: ``MergeReport.stage_times``.
PREPROCESS_STAGES = ("fingerprint", "index")
#: The stages of one attempt, timed into ``AttemptRecord.stage_times``
#: (``profitability`` is the size model plus the rollback of an
#: unprofitable merge).
ATTEMPT_STAGES = (
    "rank", "bound", "align", "codegen", "profitability",
    "staticcheck", "validate", "oracle", "commit",
)
#: The stages timed into ``MergeReport.stage_times``: set-up, and
#: ``insert``, which files each merged function in the ranker so later
#: attempts can merge it again (remerging).
PASS_STAGES = PREPROCESS_STAGES + ("insert",)
#: The canonical stage names, in pipeline order: the keys of every stage
#: table (records, profiles, metrics, manifests) and the names of the
#: stage spans.  Sub-stages (``codegen.verify``) are recorded too, but nest
#: inside their stage and are not listed.
PERF_STAGES = PREPROCESS_STAGES + ATTEMPT_STAGES + ("insert",)

# Stages whose breakdown is split by whether the attempt merged.
_SPLIT_BY_OUTCOME = ("rank", "align", "codegen")


class Outcome(str, Enum):
    """Every way one candidate's trip through the pipeline can end.

    The string values are the stable, externally visible names (reports,
    tables, CLI output); the enum being a ``str`` subclass keeps existing
    ``record.outcome == "merged"`` comparisons working.

    **Member definition order is the canonical display order** — success
    first, then rejections in the order the pipeline can produce them
    (ranking → threshold → bound → alignment → codegen → profitability →
    static gate → oracle gate), then the containment outcomes.  Everything
    that enumerates outcomes (:data:`OUTCOMES`,
    :meth:`MergeReport.outcome_counts`, the harness outcome table, run
    manifests) derives its order from here and nowhere else.
    """

    MERGED = "merged"
    NO_CANDIDATE = "no_candidate"
    REJECTED_THRESHOLD = "rejected_threshold"
    # The profitability bound proved the pair can never be profitable:
    # before alignment (alignment and codegen skipped) or after it, from
    # what the alignment says codegen must emit (codegen skipped).
    REJECTED_BOUND = "rejected_bound"
    ALIGN_FAIL = "align_fail"
    CODEGEN_FAIL = "codegen_fail"
    UNPROFITABLE = "unprofitable"
    # Robustness outcomes: the static merge-safety linter or the
    # differential oracle vetoed the commit, an unexpected exception was
    # contained before any module mutation, or a partially applied commit
    # was undone by the transaction layer.
    STATIC_FAIL = "static_fail"
    # The translation validator refuted the merge: the product-CFG walk
    # found a definitive miscompile (demote-contract violation or a
    # constant return divergence) without executing anything.
    VALIDATE_FAIL = "validate_fail"
    ORACLE_FAIL = "oracle_fail"
    # The oracle could not finish the merged side within its step budget
    # (guard/select headroom included) while the original terminated: the
    # merge introduced an (effective) infinite loop rather than a wrong
    # value, so it is vetoed under a distinct name.
    ORACLE_TIMEOUT = "oracle_timeout"
    INTERNAL_ERROR = "internal_error"
    ROLLED_BACK = "rolled_back"

    def __str__(self) -> str:
        return self.value


#: Canonical outcome order (the Outcome definition order); every table and
#: manifest renders outcomes in exactly this sequence.
OUTCOMES = tuple(o.value for o in Outcome)


@dataclass
class AttemptRecord:
    """One candidate function's trip through the pipeline."""

    function: str
    candidate: Optional[str]
    similarity: float
    outcome: Union[Outcome, str]
    alignment_ratio: float = 0.0
    saving: int = 0
    # Stage name -> seconds, for every stage the attempt entered (written
    # by :func:`repro.obs.stage.stage`; a stage that raised keeps its
    # partial time).  A stage that never ran has no entry.
    stage_times: Dict[str, float] = field(default_factory=dict)
    # Translation-validator verdict ("proved" | "refuted" | "unknown")
    # when the validate stage ran; None when it was off.
    validate_verdict: Optional[str] = None
    # Name of the merged function a successful attempt created (None for
    # every non-merged outcome).  Sweep replay uses this to map worker-side
    # names onto the functions the parent-module replay produces.
    merged_name: Optional[str] = None
    # Structured failure detail: "<stage>:<ExceptionType>" for contained
    # faults, or the oracle's first divergence description.
    error: Optional[str] = None

    def __post_init__(self) -> None:
        self.outcome = Outcome(self.outcome)

    @property
    def success(self) -> bool:
        return self.outcome == Outcome.MERGED


@dataclass
class MergeReport:
    """Aggregate result of one :class:`FunctionMergingPass` run."""

    strategy: str = ""
    num_functions: int = 0
    size_before: int = 0
    size_after: int = 0
    # Pass-level stage name (PASS_STAGES) -> seconds.
    stage_times: Dict[str, float] = field(default_factory=dict)
    total_time: float = 0.0
    attempts: List[AttemptRecord] = field(default_factory=list)
    comparisons: int = 0
    merges: int = 0
    # Alignment-decision cache counters (None until a pass has run).
    # Cumulative over the engine's lifetime, so passes sharing one engine
    # see the shared totals.
    align_cache_stats: Optional[Dict[str, object]] = None

    # -- headline numbers ---------------------------------------------------------
    @property
    def size_reduction(self) -> float:
        """Fractional object-size reduction (the paper's headline metric)."""
        if self.size_before == 0:
            return 0.0
        return 1.0 - self.size_after / self.size_before

    @property
    def merge_time(self) -> float:
        """Total time spent inside the merging pass."""
        return self.total_time

    @property
    def preprocess_time(self) -> float:
        """Seconds the ranker spent setting up (fingerprints plus index)."""
        return sum(self.stage_times.get(name, 0.0) for name in PREPROCESS_STAGES)

    def stage_totals(self) -> Dict[str, float]:
        """Seconds per :data:`PERF_STAGES` stage, summed over the run."""
        totals = {name: 0.0 for name in PERF_STAGES}
        for table in [self.stage_times] + [att.stage_times for att in self.attempts]:
            for name, seconds in table.items():
                if name in totals:
                    totals[name] += seconds
        return totals

    # -- stage breakdown (Figures 3 and 13) -----------------------------------------
    def stage_breakdown(self) -> Dict[str, float]:
        """Stage → seconds: ``preprocess``, then every attempt stage, with
        rank/align/codegen split into ``_success``/``_fail`` by outcome."""
        out: Dict[str, float] = {"preprocess": self.preprocess_time}
        for name in ATTEMPT_STAGES:
            if name in _SPLIT_BY_OUTCOME:
                out[f"{name}_success"] = out[f"{name}_fail"] = 0.0
            else:
                out[name] = 0.0
        for att in self.attempts:
            suffix = "_success" if att.success else "_fail"
            for name, seconds in att.stage_times.items():
                key = name + suffix if name in _SPLIT_BY_OUTCOME else name
                if key in out:
                    out[key] += seconds
        return out

    def outcome_counts(self) -> Dict[str, int]:
        """Attempt count per outcome, keyed by the stable string values."""
        counts = {outcome: 0 for outcome in OUTCOMES}
        for att in self.attempts:
            counts[Outcome(att.outcome).value] += 1
        return counts

    def successful_attempts(self) -> List[AttemptRecord]:
        return [a for a in self.attempts if a.success]

    def contained_failures(self) -> List[AttemptRecord]:
        """Attempts that failed unexpectedly but were contained (the pass
        kept going and the module was restored)."""
        return [
            a
            for a in self.attempts
            if a.outcome in (Outcome.INTERNAL_ERROR, Outcome.ROLLED_BACK)
        ]

    def summary(self) -> str:
        counts = self.outcome_counts()
        return (
            f"{self.strategy}: {self.num_functions} functions, "
            f"{self.merges} merges, size {self.size_before} -> {self.size_after} "
            f"({self.size_reduction:.1%} reduction), "
            f"{self.total_time:.3f}s pass time, "
            f"{self.comparisons} fingerprint comparisons, "
            f"outcomes={ {k: v for k, v in counts.items() if v} }"
        )
