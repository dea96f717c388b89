"""Journaled merge transactions against the clone-snapshot reference.

Tier-2, run with::

    PYTHONPATH=src python -m pytest benchmarks/test_journal_regression.py -m tier2 --no-header

At 600 and 2,000 functions, every ranker and both ``legacy_bugs``
settings (the §III-E codegen bugs), the pass with the journaled
``MergeTransaction`` must print the same module and produce the same
attempt records and alignment-cache statistics as with the clone-based
``tests/reference/transaction.py``.  ``repro merge --inject-fault
commit:N`` for N = 1..5 must write the same file with either transaction.

The pass runs without the profitability bound, which rejects nearly every
pair that would end ``unprofitable`` before codegen: with it, no attempt
on these workloads rolls back a codegen, and the rollback path would go
unchecked.
"""

from __future__ import annotations

import pytest

import repro.merge.pass_ as pass_module
from repro.cli import main
from repro.harness.experiments import make_ranker
from repro.ir import print_module
from repro.merge import FunctionMergingPass, MergeTransaction, PassConfig
from repro.workloads import build_workload
from tests.reference.transaction import ReferenceMergeTransaction

pytestmark = pytest.mark.tier2


def _merge(num_functions, strategy, legacy_bugs, transaction):
    module = build_workload(num_functions, f"journal{num_functions}")
    report = FunctionMergingPass(
        make_ranker(strategy),
        PassConfig(legacy_bugs=legacy_bugs, prealign_bound=False),
        transaction_factory=transaction,
    ).run(module)
    attempts = [
        (a.function, a.candidate, a.similarity, str(a.outcome), a.saving, a.error)
        for a in report.attempts
    ]
    return print_module(module), attempts, report.align_cache_stats


@pytest.mark.parametrize("legacy_bugs", [False, True])
@pytest.mark.parametrize("strategy", ["f3m", "f3m-adaptive", "hyfm"])
@pytest.mark.parametrize("num_functions", [600, 2000])
def test_pass_identical_to_reference(num_functions, strategy, legacy_bugs):
    journal = _merge(num_functions, strategy, legacy_bugs, MergeTransaction)
    reference = _merge(num_functions, strategy, legacy_bugs, ReferenceMergeTransaction)
    assert journal[0] == reference[0]
    assert journal[1] == reference[1]
    assert journal[2] == reference[2]
    # Every unprofitable attempt rolled back the function codegen added.
    assert any(outcome == "unprofitable" for _, _, _, outcome, _, _ in journal[1])


@pytest.mark.parametrize("ordinal", [1, 2, 3, 4, 5])
def test_cli_commit_fault_identical_to_reference(ordinal, tmp_path, monkeypatch):
    source = tmp_path / "in.ll"
    source.write_text(print_module(build_workload(200, "journalcli")))
    outputs = []
    for transaction in (MergeTransaction, ReferenceMergeTransaction):
        monkeypatch.setattr(pass_module, "MergeTransaction", transaction)
        out = tmp_path / f"{transaction.__name__}.ll"
        argv = ["merge", str(source), "-o", str(out), "--inject-fault", f"commit:{ordinal}"]
        assert main(argv) == 0
        outputs.append(out.read_text())
    assert outputs[0] == outputs[1]
    assert outputs[0] != source.read_text()
