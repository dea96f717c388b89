"""Work-saving gates for the profitability bound.

Tier-2 + ``perf`` marked, run with::

    PYTHONPATH=src python -m pytest benchmarks/test_attempt_perf_regression.py -m perf --no-header

Identity assertions are exact: the bound must never change a decision to
save work.  The codegen gate checks the post-alignment check's demotion
floor: a pair whose SSA repair would make it unprofitable is rejected
before codegen, so few codegens end ``unprofitable``.  The alignment
engine's decision identity with the pure aligner is tier 1
(``tests/alignment/test_batch_alignment.py``).
"""

import pytest

from repro.harness.experiments import make_ranker
from repro.harness.profile import _merged_pairs
from repro.ir.printer import print_module
from repro.merge.pass_ import FunctionMergingPass, PassConfig
from repro.search.pairing import ExhaustiveRanker
from repro.merge.report import Outcome
from repro.workloads import build_workload
from repro.workloads.suites import WorkloadConfig

pytestmark = [pytest.mark.tier2, pytest.mark.perf]


class TestBoundSavesWorkWithoutChangingDecisions:
    @pytest.fixture(scope="class")
    def reports(self):
        out = {}
        for bound in (True, False):
            module = build_workload(150, "attemptgate-bound")
            config = PassConfig(verify=False, prealign_bound=bound)
            report = FunctionMergingPass(ExhaustiveRanker(), config).run(module)
            out[bound] = (print_module(module), report)
        return out

    def test_bound_reduces_attempted_alignments(self, reports):
        _, bounded = reports[True]
        _, unbounded = reports[False]
        aligned_bounded = sum(1 for a in bounded.attempts if "align" in a.stage_times)
        aligned_unbounded = sum(1 for a in unbounded.attempts if "align" in a.stage_times)
        assert bounded.outcome_counts()["rejected_bound"] > 0
        assert aligned_bounded < aligned_unbounded

    def test_decisions_identical(self, reports):
        text_bounded, bounded = reports[True]
        text_unbounded, unbounded = reports[False]
        assert text_bounded == text_unbounded
        assert bounded.merges == unbounded.merges
        assert _merged_pairs(bounded) == _merged_pairs(unbounded)


@pytest.mark.parametrize("strategy", ["f3m", "hyfm"])
def test_few_codegens_end_unprofitable(strategy):
    """At most a quarter of the codegens end ``unprofitable``.  Without the
    demotion floor about half did: 67 of 127 per F3M pass over seeded
    200-function modules."""
    codegens = unprofitable = 0
    for seed in (41, 53, 67):
        module = build_workload(200, f"codegen-gate-{seed}", WorkloadConfig(seed=seed))
        report = FunctionMergingPass(make_ranker(strategy), PassConfig(verify=False)).run(module)
        codegens += sum(1 for a in report.attempts if "codegen" in a.stage_times)
        unprofitable += report.outcome_counts()[str(Outcome.UNPROFITABLE)]
    assert codegens > 0
    assert unprofitable <= codegens / 4, f"{unprofitable} of {codegens} codegens unprofitable"
