"""Traced pipeline runs shared by the stage-timer and docs tests.

Each run is computed once per test process (``lru_cache``) and returns the
finished spans in finish order next to what the run reported.
"""

from functools import lru_cache

from repro.faults import FaultInjector
from repro.harness.experiments import make_ranker
from repro.merge import FunctionMergingPass, PassConfig
from repro.merge.partitioned import partitioned_merging
from repro.obs.trace import Tracer
from repro.workloads import build_workload
from repro.workloads.suites import WorkloadConfig

#: Every gate on, so every attempt stage can run.
GATED = PassConfig(static_check=True, validate="observe", oracle=True)


def _traced(run):
    tracer = Tracer(maxlen=1 << 20)
    with tracer.install():
        result = run()
    assert tracer.spans_dropped == 0
    return result, tracer.finished()


@lru_cache(maxsize=None)
def gated_pass():
    """A fully gated f3m pass over a seeded 200-function module."""
    module = build_workload(200, "stage-timer", WorkloadConfig(seed=16))
    return _traced(lambda: FunctionMergingPass(make_ranker("f3m"), GATED).run(module))


@lru_cache(maxsize=None)
def faulted_pass():
    """A pass whose first verify fault point raises (inside ``codegen``)."""
    module = build_workload(40, "stage-fault", WorkloadConfig(seed=16))
    pass_ = FunctionMergingPass(
        make_ranker("f3m"), PassConfig(), faults=FaultInjector("verify", at=1)
    )
    return _traced(lambda: pass_.run(module))


@lru_cache(maxsize=None)
def optimistic_run():
    """A two-partition run with reconciliation."""
    module = build_workload(60, "stage-sweep", WorkloadConfig(seed=16))
    return _traced(
        lambda: partitioned_merging(
            module, 2, lambda: make_ranker("f3m"), PassConfig(verify=False), reconcile=True
        )
    )
