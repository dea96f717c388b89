"""Deterministic fault injection for the merging pipeline.

The §III-E story is that merging infrastructure fails in practice — the
question is whether the pass *contains* such failures (skip the pair,
roll the module back, keep going) or lets them abort a whole build.  A
:class:`FaultInjector` raises :class:`InjectedFault` at a named pipeline
stage so tests can prove the containment property for every stage:

* ``rank``    — before the ranker is consulted for a candidate;
* ``fingerprint`` — inside the ranker's query, before the candidate's
  fingerprint is consulted (both ranking strategies);
* ``lsh``     — inside the ranker's query, before the LSH bucket probe
  (:class:`~repro.search.pairing.MinHashLSHRanker` only);
* ``align``   — before block alignment;
* ``codegen`` — before merged-function code generation;
* ``verify``  — before the IR verifier runs on the merged function;
* ``staticcheck`` — before the merge-safety linter (if enabled);
* ``validate`` — before the translation validator (if enabled);
* ``oracle``  — before the differential-execution oracle (if enabled);
* ``commit``  — *in the middle of* call-site rewriting, after the first
  original has already been redirected, so a commit-stage fault leaves
  the module genuinely half-mutated and rollback must repair it.

The fuzz campaign adds two *worker* stages that live outside the merge
pipeline (:data:`WORKER_FAULT_STAGES`): ``worker_crash`` kills a
subprocess worker mid-candidate and ``worker_hang`` makes it sleep past
its deadline, so quarantine behaviour is testable deterministically.

The serve daemon adds two *service* stages (:data:`SERVE_FAULT_STAGES`):
``serve_commit`` fires in the middle of a delta commit — after the corpus
module has been mutated and part of the index update applied, so rollback
to the pre-request snapshot is genuinely exercised — and
``serve_disconnect`` simulates the client vanishing mid-request (the
response cannot be delivered; the daemon must stay consistent anyway).

Optimistic cross-partition merging adds one *reconcile* stage
(:data:`RECONCILE_FAULT_STAGES`): ``reconcile`` fires at the start of a
phase-2 cross-partition merge attempt, inside the attempt's transaction,
so a reconcile-stage fault is contained per pair and the module stays
byte-identical to the phase-1 (partition-local) result.

Injection is deterministic: ``FaultInjector("codegen", at=2)`` fires on
the second codegen attempt only; ``at=None`` fires on every hit.
"""

from __future__ import annotations

from typing import Dict, Optional, Type

__all__ = [
    "FAULT_STAGES",
    "WORKER_FAULT_STAGES",
    "SERVE_FAULT_STAGES",
    "RECONCILE_FAULT_STAGES",
    "InjectedFault",
    "FaultInjector",
]

FAULT_STAGES = (
    "rank",
    "fingerprint",
    "lsh",
    "align",
    "codegen",
    "verify",
    "staticcheck",
    "validate",
    "oracle",
    "commit",
)

#: Campaign-level stages: faults in the crash-isolated worker itself, not
#: in the merge pipeline it runs.  Kept out of :data:`FAULT_STAGES` so the
#: per-stage containment tests only cover stages the pass can contain.
WORKER_FAULT_STAGES = ("worker_crash", "worker_hang")

#: Daemon-level stages: faults in the serve request loop, not in the merge
#: pipeline.  Kept out of :data:`FAULT_STAGES` for the same reason as the
#: worker stages.
SERVE_FAULT_STAGES = ("serve_commit", "serve_disconnect")

#: Reconcile-phase stage: a fault at the start of each phase-2
#: cross-partition attempt of
#: :func:`repro.merge.partitioned.partitioned_merging` with
#: ``reconcile=True``.  Kept out of :data:`FAULT_STAGES` because it only
#: exists in the reconcile phase, not in a plain
#: :class:`~repro.merge.pass_.FunctionMergingPass` run.
RECONCILE_FAULT_STAGES = ("reconcile",)


class InjectedFault(RuntimeError):
    """The synthetic failure raised by :class:`FaultInjector`.

    ``fault_stage`` records the stage the injector fired at, which may be
    finer-grained than the pipeline stage the pass was executing (the
    ``fingerprint``/``lsh`` stages fire inside the ``rank`` stage).
    """

    fault_stage: Optional[str] = None


class FaultInjector:
    """Raise at the *at*-th hit of *stage* (every hit when ``at`` is None)."""

    def __init__(
        self,
        stage: str,
        at: Optional[int] = None,
        exception: Type[BaseException] = InjectedFault,
    ) -> None:
        known = (
            FAULT_STAGES
            + WORKER_FAULT_STAGES
            + SERVE_FAULT_STAGES
            + RECONCILE_FAULT_STAGES
        )
        if stage not in known:
            raise ValueError(
                f"unknown fault stage {stage!r}; expected one of {known}"
            )
        if at is not None and at < 1:
            raise ValueError("fault ordinal is 1-based")
        self.stage = stage
        self.at = at
        self.exception = exception
        self.hits: Dict[str, int] = {s: 0 for s in known}
        self.fired = 0

    @classmethod
    def parse(cls, spec: str) -> "FaultInjector":
        """Build an injector from a ``stage`` or ``stage:N`` CLI spec."""
        stage, _, ordinal = spec.partition(":")
        return cls(stage, at=int(ordinal) if ordinal else None)

    def hit(self, stage: str) -> None:
        """Record one arrival at *stage*, raising if the plan says so."""
        self.hits[stage] += 1
        if stage != self.stage:
            return
        if self.at is None or self.hits[stage] == self.at:
            self.fired += 1
            exc = self.exception(
                f"injected fault at stage {stage!r} (hit {self.hits[stage]})"
            )
            try:
                exc.fault_stage = stage
            except AttributeError:  # exception types with __slots__
                pass
            raise exc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        when = "always" if self.at is None else f"at={self.at}"
        return f"<FaultInjector {self.stage} {when} fired={self.fired}>"
