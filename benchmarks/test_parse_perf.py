"""The one-pass tokenizer against the per-token tokenizer it replaced.

Tier-2, run with::

    PYTHONPATH=src python -m pytest benchmarks/test_parse_perf.py -m tier2 --no-header -s

On generated modules of 200 and 2,000 functions, the production parser must
print the same module as ``tests/reference/parser.py``, and over 7
interleaved repeats (reference and production alternating, so both see the
same host load) its median parse time must be at least 25% below the
reference's.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.ir import parse_module, print_module
from repro.workloads import build_workload
from tests.reference import parser as reference

pytestmark = pytest.mark.tier2

REPEATS = 7
#: Required cut of the median parse time, as a share of the reference's.
MIN_CUT = 0.25


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
