"""The one-walk function entry against the two walks it replaced.

Tier-2, run with::

    PYTHONPATH=src python -m pytest benchmarks/test_function_entry_perf.py -m tier2 --no-header -s

On generated modules of 200 and 2,000 functions, every function's entry
and bound inputs must equal ``tests/reference/encoding.py``'s.  A cold
build encodes every function of the module with a fresh interner: the
production side builds each function's entry and its bound inputs, the
reference side its per-block entries and then the bound's profile walk
over the same interner.  Over 7 interleaved cold builds (reference and
production alternating, so both see the same host load), the production
median must be at least 50% below the reference's.  Each build runs with
the cyclic collector emptied before it and off during it: the production
side allocates the objects that trigger collections, and after other tests
in the same process a full collection of their heap cost up to 143 ms of
a 200-300 ms build.
"""

from __future__ import annotations

import gc
import statistics
import time
from contextlib import contextmanager

import pytest

from repro.alignment.batch import BatchAlignmentEngine, InstructionInterner
from repro.workloads import build_workload
from tests.reference.encoding import ReferenceProfile, reference_entry

pytestmark = pytest.mark.tier2

REPEATS = 7
#: Required cut of the median cold build time, as a share of the reference's.
MIN_CUT = 0.50


@contextmanager
def _collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _production(functions):
    engine = BatchAlignmentEngine()
    with _collector_off():
        start = time.perf_counter()
        for func in functions:
            engine.function_entry(func).profile()
        return time.perf_counter() - start


def _reference(functions):
    interner = InstructionInterner()
    with _collector_off():
        start = time.perf_counter()
        for func in functions:
            reference_entry(func, interner)
            ReferenceProfile(func, interner)
        return time.perf_counter() - start


def _assert_equal(functions):
    engine = BatchAlignmentEngine()
    for func in functions:
        entry = engine.function_entry(func).profile()
        ref = reference_entry(func, engine.interner)
        profile = ReferenceProfile(func, engine.interner)
        assert entry.blocks == ref.blocks
        assert entry.codes == [b.codes.tolist() for b in ref.entries]
        assert entry.bodies == [b.body for b in ref.entries]
        assert entry.counts.tolist() == ref.counts.tolist()
        assert entry.magnitudes.tolist() == ref.magnitudes.tolist()
        assert (entry.code_counts, entry.code_weights) == (
            profile.code_counts,
            profile.code_weights,
        )
        assert (entry.body_weight, entry.total_size) == (
            profile.body_weight,
            profile.total_size,
        )


@pytest.mark.parametrize("num_functions", [200, 2000])
def test_entry_faster_than_reference(num_functions):
    module = build_workload(num_functions, f"entry{num_functions}")
    functions = module.defined_functions()
    _assert_equal(functions)
    ours, theirs = [], []
    for _ in range(REPEATS):
        theirs.append(_reference(functions))
        ours.append(_production(functions))
    ours_ms = statistics.median(ours) * 1e3
    theirs_ms = statistics.median(theirs) * 1e3
    print(
        f"\n{len(functions)} functions: cold entries median {ours_ms:.1f} ms, "
        f"reference {theirs_ms:.1f} ms ({1 - ours_ms / theirs_ms:.0%} less, "
        f"{ours_ms * 1e3 / len(functions):.0f} against "
        f"{theirs_ms * 1e3 / len(functions):.0f} us per function)"
    )
    assert ours_ms <= (1 - MIN_CUT) * theirs_ms
