"""The plan-emitting merger against the two-phase merger it replaced.

Tier-2, run with::

    PYTHONPATH=src python -m pytest benchmarks/test_codegen_perf.py -m tier2 --no-header -s

F3M's merging pass runs on generated modules of 200 and 2,000 functions.
Every pair the pass sends to codegen is merged twice, once by
:func:`repro.merge.merger.merge_functions` and once by the reference
``tests/reference/merger.py``, alternating which goes first; the one made
first is erased and the pass goes on with the other.  Both must print the
same merged function and fill the same result fields.  Each side's
codegen time is summed per pass over its calls, SSA repair included and
garbage collection held off during each call.  The test reports the
median of 7 passes for each side with its interquartile range, and
requires the merger's median to be below the reference's by at least
``MIN_CUT``.
"""

from __future__ import annotations

import gc
import statistics
import time

import pytest

from repro.ir.parser import parse_module
from repro.ir.printer import print_function, print_module
from repro.merge import pass_ as pass_module
from repro.merge.pass_ import FunctionMergingPass, PassConfig
from repro.search.pairing import MinHashLSHRanker
from repro.workloads import build_workload
from tests.reference.merger import reference_merge_functions

pytestmark = pytest.mark.tier2

REPEATS = 7
#: Required cut of the median codegen time, as a share of the reference's.
#: Two runs on a 2-vCPU host measured 36-37% at both sizes, with each
#: side's interquartile range at 15-40% of its median.
MIN_CUT = 0.20


def _made(result):
    return (
        print_function(result.merged),
        result.param_map_a,
        result.param_map_b,
        result.num_selects,
        result.num_shared,
        result.num_private,
        result.repairs,
    )


def _one_pass(text, monkeypatch):
    """Run the pass once; returns (our seconds, reference seconds, calls)."""
    real_merge = pass_module.merge_functions
    seconds = {"ours": 0.0, "reference": 0.0}
    calls = []

    def merge_both(alignment, module, options, layout=None):
        sides = [
            ("ours", lambda: real_merge(alignment, module, options=options, layout=layout)),
            ("reference", lambda: reference_merge_functions(alignment, module, options=options, layout=layout)),
        ]
        if len(calls) % 2:
            sides.reverse()
        made = []
        for side, merge in sides:
            # Collections triggered inside one merge would be charged to
            # whichever side happened to allocate past the threshold.
            gc.disable()
            start = time.perf_counter()
            result = merge()
            seconds[side] += time.perf_counter() - start
            gc.enable()
            made.append(_made(result))
            if len(made) == 1:
                result.merged.erase_from_parent()
        assert made[0] == made[1]
        calls.append(1)
        return result

    monkeypatch.setattr(pass_module, "merge_functions", merge_both)
    module = parse_module(text)
    FunctionMergingPass(MinHashLSHRanker(), PassConfig(verify=False)).run(module)
    monkeypatch.undo()
    return seconds["ours"], seconds["reference"], len(calls)


def _spread(values):
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


@pytest.mark.parametrize("num_functions", [200, 2000])
def test_codegen_faster_than_reference(num_functions, monkeypatch):
    text = print_module(build_workload(num_functions, f"codegen{num_functions}"))
    ours, theirs = [], []
    for _ in range(REPEATS):
        our_s, their_s, calls = _one_pass(text, monkeypatch)
        ours.append(our_s * 1e3)
        theirs.append(their_s * 1e3)
    ours_ms = statistics.median(ours)
    theirs_ms = statistics.median(theirs)
    print(
        f"\n{num_functions} functions, {calls} codegens per pass: median {ours_ms:.1f} ms "
        f"(IQR {_spread(ours):.1f}), reference {theirs_ms:.1f} ms (IQR {_spread(theirs):.1f}), "
        f"{1 - ours_ms / theirs_ms:.0%} less"
    )
    assert ours_ms <= (1 - MIN_CUT) * theirs_ms
