"""The function-merging pass: ranking → alignment → codegen → commit.

This is the top-level optimization shared by the baseline and F3M; the
*ranker* argument selects the paper's configurations:

* ``ExhaustiveRanker()`` — HyFM (state of the art).
* ``MinHashLSHRanker()`` — F3M static (k=200, r=2, b=100, t=0).
* ``MinHashLSHRanker(adaptive=True)`` — F3M adaptive (Section III-D).

The pass walks functions in module order, asks the ranker for the most
similar live candidate, aligns the pair block-wise, generates the merged
function and commits it when the size model finds it profitable.  Every
stage runs under the stage timer (:func:`repro.obs.stage.stage`), which
times it into the attempt's ``stage_times``, opens its span and fires its
fault point, so the paper's breakdown figures can be regenerated.

Every attempt is *transactional*: any failure — an expected codegen
rejection, a veto from the differential oracle, or an unexpected
exception from any stage (the §III-E class of generator bugs) — rolls
the module back to its pre-attempt state and, under the default
``on_error="skip"`` policy, the pass records a structured outcome and
continues with the next candidate.  ``on_error="raise"`` preserves the
exception for debugging, after the rollback has run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple

from ..alignment.batch import BatchAlignmentEngine
from ..analysis.size import module_size
from ..faults import FaultInjector, InjectedFault
from ..ir.module import Module
from ..ir.verifier import VerificationError, verify_function
from ..diagnostics import errors_only
from ..obs import trace
from ..obs.stage import StageContext, stage
from ..oracle.differential import DifferentialOracle, OracleConfig
from ..search.pairing import Ranker
from ..staticcheck.lint import lint_commit, lint_merge
from ..staticcheck.validate import PROVED, REFUTED, validate_merge
from .errors import MergeError
from .layout import BlockLayout
from .merger import MergeOptions, MergeResult, merge_functions
from .profitability import ProfitabilityBound, ProfitabilityModel
from .report import ATTEMPT_STAGES, AttemptRecord, MergeReport, Outcome
from .thunks import commit_merge
from .transaction import MergeTransaction

__all__ = ["PassConfig", "FunctionMergingPass"]


@dataclass(frozen=True)
class PassConfig:
    """Pass-wide options.

    ``threshold`` — similarity threshold t below which ranked pairs are
    rejected before alignment (Section III-D; HyFM effectively uses 0).
    ``alignment`` — ``"linear"`` (HyFM's fast pairwise strategy, the paper's
    configuration) or ``"nw"`` (SalSSA-quality Needleman–Wunsch).
    ``legacy_bugs`` — re-enable the HyFM codegen bugs of Section III-E.
    ``verify`` — run the IR verifier on every merged function (slower;
    always on in tests, optional in benchmarks).
    ``min_instructions`` — skip trivially small functions as candidates.
    ``remerge`` — merged functions re-enter the candidate pool, so whole
    families collapse into one function across successive merges (the
    paper's Fig. 1 workflow replaces the pair with the merged function in
    the module being optimized).
    ``static_check`` — gate every profitable merge with the static
    merge-safety linter (:func:`repro.staticcheck.lint.lint_merge`): an
    error-severity diagnostic vetoes the commit with a ``static_fail``
    outcome, exactly like the oracle but at zero execution cost.  The
    applied commit (thunks, call-site rewrites) is re-linted before the
    transaction is finalized.
    ``oracle`` — gate every profitable merge with the differential-execution
    oracle; divergence vetoes the commit with an ``oracle_fail`` outcome.
    ``validate`` — run the translation validator
    (:func:`repro.staticcheck.validate.validate_merge`) on every
    profitable merge.  ``"off"`` skips it; ``"observe"`` records the
    verdict and timing on the attempt without influencing the decision
    (the fuzz campaign's cross-check mode); ``"gate"`` enforces it —
    ``refuted`` vetoes the commit with a ``validate_fail`` outcome,
    ``proved`` skips the differential oracle entirely (the simulation
    relation already covers what the oracle would sample), and
    ``unknown`` escalates to the oracle when one is configured.
    ``on_error`` — ``"skip"`` (default) contains unexpected exceptions:
    the attempt is rolled back, recorded, and the pass continues.
    ``"raise"`` re-raises after the rollback (debugging).
    ``prealign_bound`` — run the bound stage's two checks of the
    profitability upper bound
    (:class:`~repro.merge.profitability.ProfitabilityBound`): before
    alignment, reject pairs that can never be profitable and skip
    alignment and codegen; after alignment, price what codegen must emit
    and skip codegen for pairs that cannot pay.  Either check records a
    ``rejected_bound`` outcome.  The bound is sound: it never rejects a
    pair the full pipeline would have merged.
    ``lsh_compact_ratio`` — auto-compaction threshold of the LSH index:
    compact when tombstones exceed this fraction of the live entries.
    The default 1.0 is the historical "tombstones outnumber live rows"
    trigger; long-lived daemon indexes use a lower ratio, ``None``
    disables auto-compaction.
    """

    threshold: float = 0.0
    alignment: str = "linear"
    legacy_bugs: bool = False
    verify: bool = True
    min_instructions: int = 1
    remerge: bool = True
    static_check: bool = False
    validate: str = "off"
    oracle: bool = False
    on_error: str = "skip"
    prealign_bound: bool = True
    lsh_compact_ratio: Optional[float] = 1.0

    def __post_init__(self) -> None:
        if self.on_error not in ("skip", "raise"):
            raise ValueError(
                f"on_error must be 'skip' or 'raise', got {self.on_error!r}"
            )
        if self.validate not in ("off", "observe", "gate"):
            raise ValueError(
                f"validate must be 'off', 'observe' or 'gate', got {self.validate!r}"
            )
        if self.lsh_compact_ratio is not None and self.lsh_compact_ratio <= 0:
            raise ValueError(
                f"lsh_compact_ratio must be positive or None, got {self.lsh_compact_ratio!r}"
            )


class FunctionMergingPass:
    """Apply function merging over a whole module."""

    def __init__(
        self,
        ranker: Ranker,
        config: PassConfig = PassConfig(),
        faults: Optional[FaultInjector] = None,
        oracle: Optional[DifferentialOracle] = None,
        alignment_engine: Optional[BatchAlignmentEngine] = None,
        metrics=None,
        transaction_factory=None,
    ) -> None:
        self.ranker = ranker
        self.config = config
        # Every attempt runs inside a transaction this factory produces.
        # Partitioned merging with reconciliation passes a retaining
        # factory whose commit() keeps the snapshots, so the reconcile
        # phase can later undo an already-committed merge bit-identically.
        self.transaction_factory = transaction_factory or MergeTransaction
        # Optional obs.metrics.Registry: when attached, run() folds the
        # report's stage timings and outcome tallies into it.
        self.metrics = metrics
        self.profitability = ProfitabilityModel()
        self.faults = faults
        if faults is not None:
            # Let ranking-internal stages (fingerprint, lsh) hit the same
            # injector; their faults surface inside best_match() and are
            # contained by the per-attempt transaction like any other.
            ranker.faults = faults
        if config.lsh_compact_ratio != 1.0 and hasattr(ranker, "compact_ratio"):
            # Non-default compaction threshold flows onto the LSH ranker
            # before preprocess() builds its index.
            ranker.compact_ratio = config.lsh_compact_ratio
        if oracle is None and config.oracle:
            oracle = DifferentialOracle(OracleConfig())
        self.oracle = oracle
        # Alignment runs through the vectorized, memoized, cached
        # BatchAlignmentEngine.  Passing an engine shares its alignment
        # cache and function entries across passes (remerge rounds, partition
        # sweeps); otherwise each pass owns one.
        if alignment_engine is None:
            alignment_engine = BatchAlignmentEngine(strategy=config.alignment)
        self.engine = alignment_engine
        # The bound reads the engine's function entries, so a function is
        # encoded once for both, in one mergeability-code space.
        self.bound = ProfitabilityBound(self.profitability, engine=alignment_engine)

    # -- driver ---------------------------------------------------------------------
    def run(self, module: Module, functions=None) -> MergeReport:
        """Merge over *module*; *functions* optionally restricts the
        candidate population (used by profile-guided merging)."""
        report = MergeReport(strategy=self.ranker.name)
        report.size_before = module_size(module)
        start = time.perf_counter()

        population = functions if functions is not None else module.defined_functions()
        functions = [
            f
            for f in population
            if f.num_instructions >= self.config.min_instructions
        ]
        report.num_functions = len(functions)

        self.ranker.preprocess(functions)
        report.stage_times.update(self.ranker.stage_times)
        clock = StageContext(report.stage_times)

        consumed = set()
        # The ranker's threshold (adaptive variant) overrides the static one.
        threshold = max(self.config.threshold, getattr(self.ranker, "threshold", 0.0))

        worklist = list(functions)
        index = 0
        while index < len(worklist):
            func = worklist[index]
            index += 1
            if id(func) in consumed:
                continue
            attempt, merged = self._attempt(module, func, consumed, threshold)
            report.attempts.append(attempt)
            if attempt.success:
                report.merges += 1
                if self.config.remerge and merged is not None:
                    with stage(clock, "insert", fn=merged.name):
                        self.ranker.insert(merged)
                    worklist.append(merged)

        report.total_time = time.perf_counter() - start
        report.comparisons = self.ranker.stats.comparisons
        report.size_after = module_size(module)
        stats = self.engine.cache.stats.to_dict()
        stats["plan"] = self.engine.plans.stats.to_dict()
        report.align_cache_stats = stats
        if self.metrics is not None:
            self._record_metrics(report)
        return report

    def _record_metrics(self, report: MergeReport) -> None:
        """Fold the finished report into the attached metrics registry.

        Runs once per pass, after the timed region, so attaching a
        registry costs the attempts themselves nothing.
        """
        metrics = self.metrics
        metrics.absorb_counts("merge.outcome", report.outcome_counts())
        metrics.counter("merge.attempts").inc(len(report.attempts))
        metrics.counter("merge.merges").inc(report.merges)
        metrics.gauge("merge.size_before").set(report.size_before)
        metrics.gauge("merge.size_after").set(report.size_after)
        metrics.histogram("merge.preprocess_s").observe(report.preprocess_time)
        stage_hists = {
            name: metrics.histogram(f"merge.stage.{name}_s") for name in ATTEMPT_STAGES
        }
        for att in report.attempts:
            for name, seconds in att.stage_times.items():
                hist = stage_hists.get(name)
                if hist is not None:
                    hist.observe(seconds)
            if att.validate_verdict is not None:
                metrics.counter(f"merge.validate.{att.validate_verdict}").inc()

    # -- body-derived memo hygiene ----------------------------------------------------
    def _invalidate(self, functions) -> None:
        """Drop memoized body-derived state for *functions*.

        Called with every function a transaction captured: a committed
        merge rewrote call sites inside their blocks (or replaced their
        bodies with thunks), and a commit-stage rollback replayed its
        journal onto them.  Cheap failure paths never capture, so their
        memo entries stay live.
        """
        for func in functions:
            self.engine.invalidate_function(func)

    # -- one candidate --------------------------------------------------------------
    def _attempt(self, module, func, consumed, threshold):
        """Returns ``(record, merged_function_or_None)``.

        The whole attempt runs inside a :class:`MergeTransaction`; every
        exit path either commits the transaction (successful merge) or
        rolls it back, so the module is never left half-mutated.
        """
        with trace.span("attempt", fn=func.name) as sp:
            record, merged = self._attempt_guarded(module, func, consumed, threshold)
            sp.set(outcome=str(record.outcome), similarity=record.similarity)
            if record.candidate is not None:
                sp.set(candidate=record.candidate)
            return record, merged

    def _attempt_guarded(self, module, func, consumed, threshold):
        txn = self.transaction_factory(module)
        record = AttemptRecord(func.name, None, 0.0, Outcome.NO_CANDIDATE)
        ctx = StageContext(record.stage_times)
        try:
            return self._attempt_stages(module, func, consumed, threshold, txn, record, ctx)
        except (MergeError, VerificationError) as exc:
            # Expected rejections from codegen/verification — and, via
            # CommitError, structural failures while applying the commit.
            touched = txn.captured_functions()
            txn.rollback()
            self._invalidate(touched)
            outcome = (
                Outcome.ROLLED_BACK
                if ctx.stage == "commit"
                else Outcome.CODEGEN_FAIL
            )
            return self._fail(record, ctx.stage, exc, outcome), None
        except RecursionError:
            # Containing a blown interpreter/codegen stack is not safe —
            # Python may be out of stack for the rollback itself.
            raise
        except Exception as exc:
            mutated = txn.captured
            touched = txn.captured_functions()
            txn.rollback()
            self._invalidate(touched)
            if self.config.on_error == "raise":
                raise
            outcome = Outcome.ROLLED_BACK if mutated else Outcome.INTERNAL_ERROR
            return self._fail(record, ctx.stage, exc, outcome), None

    @staticmethod
    def _fail(record: AttemptRecord, stage_name, exc, outcome) -> AttemptRecord:
        # An injected fault may fire at a sub-stage of the pipeline stage
        # (fingerprint/lsh inside rank); prefer its own stage when present.
        stage_name = getattr(exc, "fault_stage", None) or stage_name
        record.outcome = outcome
        record.error = f"{stage_name}:{type(exc).__name__}"
        return record

    def _attempt_stages(
        self,
        module,
        func,
        consumed,
        threshold,
        txn: MergeTransaction,
        record: AttemptRecord,
        ctx: StageContext,
    ) -> Tuple[AttemptRecord, Optional[object]]:
        """The happy path; any exception escapes to :meth:`_attempt`, which
        reads the failure stage off *ctx* (the partial stage times are
        already in *record*)."""
        faults = self.faults
        # Each stage below is one stage-timer region: its span, its
        # record.stage_times entry, the profiler table and the metrics are
        # the same measurement.
        with stage(ctx, "rank", faults):
            match = self.ranker.best_match(func)

        if match is None:
            return record, None
        other = match.function
        record.candidate = other.name
        record.similarity = match.similarity
        if match.similarity < threshold:
            record.outcome = Outcome.REJECTED_THRESHOLD
            return record, None

        if self.config.prealign_bound:
            with stage(ctx, "bound"):
                bound, shared_pairs = self.bound.query(func, other)
            if shared_pairs == 0 or bound <= 0:
                # No common mergeability class means alignment would match
                # nothing; a non-positive saving bound means profitability
                # (saving > 0) can never hold.  Either way this pair can
                # never merge — skip alignment and codegen.
                record.outcome = Outcome.REJECTED_BOUND
                return record, None

        with stage(ctx, "align", faults, fn_a=func.name, fn_b=other.name):
            if func.return_type is not other.return_type:
                record.outcome = Outcome.ALIGN_FAIL
                return record, None
            alignment = self.engine.align_functions(
                func, other, strategy=self.config.alignment
            )
        record.alignment_ratio = alignment.alignment_ratio
        if alignment.matched_instructions == 0:
            record.outcome = Outcome.ALIGN_FAIL
            return record, None

        layout = None
        if self.config.prealign_bound:
            # Second check of the bound stage: the alignment fixes most of
            # what codegen will emit, so price that and skip codegen for a
            # pair that cannot pay.  Codegen reuses the priced layout.
            with stage(ctx, "bound"):
                layout = BlockLayout(alignment)
                bound = self.bound.after_alignment(alignment, layout)
            if bound <= 0:
                record.outcome = Outcome.REJECTED_BOUND
                return record, None

        with stage(ctx, "codegen", faults):
            result: MergeResult = merge_functions(
                alignment,
                module,
                options=MergeOptions(legacy_bugs=self.config.legacy_bugs),
                layout=layout,
            )
            if self.config.verify:
                with stage(ctx, "codegen.verify", faults):
                    verify_function(result.merged)

        with stage(ctx, "profitability"):
            benefit = self.profitability.evaluate(result)
            if not benefit.profitable:
                txn.rollback()
                record.outcome = Outcome.UNPROFITABLE
                return record, None

        if self.config.static_check:
            with stage(ctx, "staticcheck", faults):
                static_errors = errors_only(lint_merge(result, module))
            if static_errors:
                txn.rollback()
                record.outcome = Outcome.STATIC_FAIL
                first = static_errors[0]
                record.error = f"static:{first.checker}:{first.message}"
                return record, None

        run_oracle = self.oracle is not None
        if self.config.validate != "off":
            with stage(ctx, "validate", faults):
                validation = validate_merge(result)
            record.validate_verdict = validation.verdict
            if self.config.validate == "gate":
                if validation.verdict == REFUTED:
                    txn.rollback()
                    record.outcome = Outcome.VALIDATE_FAIL
                    first = validation.diagnostics[0]
                    record.error = f"validate:{first.code}:{first.message}"
                    return record, None
                if validation.verdict == PROVED:
                    # The simulation relation covers every input the
                    # oracle could sample; skip the expensive re-execution.
                    run_oracle = False
                # unknown: fall through — escalate to the oracle when one
                # is configured, otherwise let the remaining gates decide.

        if run_oracle:
            with stage(ctx, "oracle", faults):
                verdict = self.oracle.check(result)
            if not verdict.equivalent:
                txn.rollback()
                # A merged function that only *times out* (its fuel budget,
                # guard headroom included, ran dry while the original
                # terminated) is a distinct outcome from a behavioural
                # divergence: it usually means an introduced infinite loop.
                record.outcome = (
                    Outcome.ORACLE_TIMEOUT
                    if verdict.timed_out
                    else Outcome.ORACLE_FAIL
                )
                record.error = f"oracle:{verdict.divergences[0]}"
                return record, None

        # The commit fault point fires inside commit_merge, between the
        # two originals, so this stage takes no injector of its own.
        with stage(ctx, "commit"):
            txn.capture_commit_set(result.function_a, result.function_b)
            touched = txn.captured_functions()
            commit_merge(result, faults=faults)
            if self.config.static_check:
                # Re-lint the *applied* commit (thunk shape, call-site
                # rewrites, dangling references) while the transaction can
                # still undo it; its time is part of the commit stage.
                commit_errors = errors_only(lint_commit(result, module))
                if commit_errors:
                    txn.rollback()
                    self._invalidate(touched)
                    record.outcome = Outcome.STATIC_FAIL
                    first = commit_errors[0]
                    record.error = f"static:{first.checker}:{first.message}"
                    return record, None
            txn.commit()
            self._invalidate(touched)
            self.ranker.remove(func)
            self.ranker.remove(other)
            consumed.add(id(func))
            consumed.add(id(other))
        record.saving = benefit.saving
        record.outcome = Outcome.MERGED
        record.merged_name = result.merged.name
        return record, result.merged
