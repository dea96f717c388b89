"""The journaled transaction against the clone-snapshot reference.

``MergeTransaction`` logs what a commit changes and replays the log
backwards on rollback; ``tests/reference/transaction.py`` keeps the
clone-based transaction it replaced.  Driven through the same pass on
the same module, with the same injected commit fault or post-commit
static-check veto, both must print the same module, produce the same
attempt records and alignment-cache statistics, and leave every
function with the same call sites and use count after every rollback.
``partitioned_merging(..., reconcile=True)`` must produce the same digest
with either retaining transaction.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import repro.merge.partitioned as partitioned
import repro.merge.pass_ as pass_module
import repro.merge.reconcile as reconcile
from repro.diagnostics import Diagnostic, Severity
from repro.faults import FaultInjector
from repro.harness.experiments import make_ranker
from repro.ir import parse_module, print_module, verify_module
from repro.merge import FunctionMergingPass, MergeTransaction, PassConfig
from repro.merge.partitioned import partitioned_merging
from repro.workloads.suites import WorkloadConfig, build_workload
from tests.reference.transaction import (
    ReferenceMergeTransaction,
    ReferenceRetainingTransaction,
)


def _use_state(module):
    """Each function's direct call sites, as positions, and its use count."""
    state = {}
    for func in module.functions:
        sites = frozenset(
            (site.function.name, site.parent.name, site.parent.instructions.index(site))
            for site in func.callers()
        )
        state[func.name] = (sites, func.num_uses)
    return state


def _recording(base, states):
    """*base* with every effective rollback followed by a use-state record."""

    class Recording(base):
        def rollback(self):
            closed = self._closed
            super().rollback()
            if not closed:
                states.append(_use_state(self.module))

    return Recording


def _attempts(report):
    return [
        (
            a.function,
            a.candidate,
            a.similarity,
            str(a.outcome),
            a.alignment_ratio,
            a.saving,
            a.merged_name,
            a.error,
        )
        for a in report.attempts
    ]


def _run(text, strategy, plan, transaction, monkeypatch):
    kind, ordinal = plan
    module = parse_module(text)
    faults = FaultInjector.parse(f"commit:{ordinal}") if kind == "commit" else None
    if kind == "veto":
        # Veto the ordinal-th applied commit after commit_merge ran, so the
        # rollback undoes a complete commit of both originals.
        real = pass_module.lint_commit
        calls = []

        def vetoing(result, mod):
            calls.append(None)
            found = list(real(result, mod))
            if len(calls) == ordinal:
                found.append(Diagnostic("test", Severity.ERROR, "vetoed"))
            return found

        monkeypatch.setattr(pass_module, "lint_commit", vetoing)
    states = []
    pass_ = FunctionMergingPass(
        make_ranker(strategy),
        PassConfig(static_check=kind == "veto"),
        faults=faults,
        transaction_factory=_recording(transaction, states),
    )
    report = pass_.run(module)
    verify_module(module)
    return print_module(module), _attempts(report), report.align_cache_stats, states


def _compare(num_functions, seed, strategy, plan):
    text = print_module(build_workload(num_functions, config=WorkloadConfig(seed=seed)))
    with pytest.MonkeyPatch.context() as mp:
        journal = _run(text, strategy, plan, MergeTransaction, mp)
    with pytest.MonkeyPatch.context() as mp:
        reference = _run(text, strategy, plan, ReferenceMergeTransaction, mp)
    assert journal[0] == reference[0]
    assert journal[1] == reference[1]
    assert journal[2] == reference[2]
    assert len(journal[3]) == len(reference[3])
    for after_journal, after_reference in zip(journal[3], reference[3]):
        assert after_journal == after_reference
    return journal


class TestJournalEqualsClones:
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        num_functions=st.integers(40, 120),
        seed=st.integers(0, 2**16),
        strategy=st.sampled_from(["f3m", "hyfm"]),
        plan=st.tuples(st.sampled_from(["commit", "veto"]), st.integers(1, 6)),
    )
    def test_pass_is_byte_identical(self, num_functions, seed, strategy, plan):
        _compare(num_functions, seed, strategy, plan)

    @pytest.mark.parametrize(
        "kind, error", [("commit", "commit:InjectedFault"), ("veto", "static:test:vetoed")]
    )
    def test_fault_rolls_back_a_commit(self, kind, error):
        # The plan must reach the commit stage, or the property above
        # would compare two runs that never replayed a journal.
        _, attempts, _, _ = _compare(80, 7, "f3m", (kind, 2))
        assert [a[-1] for a in attempts].count(error) == 1

    def test_reconcile_digest_is_identical(self, monkeypatch):
        text = print_module(build_workload(96, config=WorkloadConfig(seed=11)))

        def digest():
            module = parse_module(text)
            report = partitioned_merging(module, 4, reconcile=True)
            return report.digest(), print_module(module), report.reconcile

        journal_digest, journal_text, journal_report = digest()
        monkeypatch.setattr(partitioned, "RetainingTransaction", ReferenceRetainingTransaction)
        monkeypatch.setattr(reconcile, "RetainingTransaction", ReferenceRetainingTransaction)
        reference_digest, reference_text, _ = digest()
        assert journal_digest == reference_digest
        assert journal_text == reference_text
        # The comparison exercised undo: some optimistic merge was rolled
        # back for a cross-partition pair.
        assert journal_report.rollbacks > 0
