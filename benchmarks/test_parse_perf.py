"""Reading a module: the parser and the verifier against their references.

Tier-2, run with::

    PYTHONPATH=src python -m pytest benchmarks/test_parse_perf.py -m tier2 --no-header -s

On generated modules of 200 and 2,000 functions, the production parser must
print the same module as ``tests/reference/parser.py``, and over 7
interleaved repeats (reference and production alternating, so both see the
same host load) its median parse time must be at least 25% below the
reference's.  On the same modules, ``verify_module`` must end as
``tests/reference/verifier.py`` does, and its median over 7 interleaved
repeats, each with the cyclic collector quiesced, must be at least 15%
below the reference's.
"""

from __future__ import annotations

import gc
import statistics
import time

import pytest

from repro.ir import parse_module, print_module, verify_module
from repro.workloads import build_workload
from tests.reference import parser as reference
from tests.reference.verifier import reference_verify_module

pytestmark = pytest.mark.tier2

REPEATS = 7
#: Required cut of the median parse time, as a share of the reference's.
MIN_CUT = 0.25
#: Required cut of the median verify time.  Seven-repeat medians cut
#: 24-38% on a shared two-vCPU host (three trials at each size), and single
#: repeats ranged from 5% to 55%.
MIN_VERIFY_CUT = 0.15


def _seconds(parse, text):
    start = time.perf_counter()
    parse(text)
    return time.perf_counter() - start


@pytest.mark.parametrize("num_functions", [200, 2000])
def test_parse_faster_than_reference(num_functions):
    text = print_module(build_workload(num_functions, f"parse{num_functions}"))
    assert print_module(parse_module(text)) == print_module(reference.parse_module(text))
    ours, theirs = [], []
    for _ in range(REPEATS):
        theirs.append(_seconds(reference.parse_module, text))
        ours.append(_seconds(parse_module, text))
    ours_ms = statistics.median(ours) * 1e3
    theirs_ms = statistics.median(theirs) * 1e3
    print(
        f"\n{num_functions} functions, {len(text)} bytes: parse median "
        f"{ours_ms:.1f} ms, reference {theirs_ms:.1f} ms "
        f"({1 - ours_ms / theirs_ms:.0%} less)"
    )
    assert ours_ms <= (1 - MIN_CUT) * theirs_ms


def _quiet_seconds(verify, module):
    """Seconds of one verify, the collector emptied before and off during it."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        verify(module)
        return time.perf_counter() - start
    finally:
        gc.enable()


@pytest.mark.parametrize("num_functions", [200, 2000])
def test_verify_faster_than_reference(num_functions):
    module = parse_module(print_module(build_workload(num_functions, f"verify{num_functions}")))
    assert verify_module(module) is None
    assert reference_verify_module(module) is None
    ours, theirs = [], []
    for _ in range(REPEATS):
        theirs.append(_quiet_seconds(reference_verify_module, module))
        ours.append(_quiet_seconds(verify_module, module))
    ours_ms = statistics.median(ours) * 1e3
    theirs_ms = statistics.median(theirs) * 1e3
    print(
        f"\n{num_functions} functions: verify median {ours_ms:.1f} ms, "
        f"reference {theirs_ms:.1f} ms ({1 - ours_ms / theirs_ms:.0%} less)"
    )
    assert ours_ms <= (1 - MIN_VERIFY_CUT) * theirs_ms
