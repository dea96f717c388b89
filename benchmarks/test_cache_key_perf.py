"""The fingerprint cache's one-pass content keys against the grouped oracle.

Tier-2, run with::

    PYTHONPATH=src python -m pytest benchmarks/test_cache_key_perf.py -m tier2 --no-header -s

On the workload modules of 200 and 2,000 functions, ``content_keys``
must give the keys of ``tests/reference/fnv.py::reference_content_keys``
(streams grouped by length, masked uint64 FNV-1a).  Over 7 interleaved
runs (oracle and production alternating, so both see the same host
load), the production median must be at least ``MIN_CUT`` below the
oracle's.  A warm serve daemon keys every module it merges, so keys that
cost more than the fingerprints they look up make the cache a loss.
"""

from __future__ import annotations

import gc
import statistics
import time

import pytest

from repro.fingerprint.batch import encode_module, minhash_encoded_batch
from repro.fingerprint.cache import content_keys
from repro.workloads import build_workload
from tests.reference.fnv import reference_content_keys

pytestmark = pytest.mark.tier2

REPEATS = 7
#: Required cut of the median keying time, as a share of the oracle's.
#: Measured on a 2-vCPU host: 88-95% less at both sizes, with each
#: side's interquartile range under 10% of its median.
MIN_CUT = 0.75


def _timed(fn, flat, lens):
    gc.disable()
    try:
        start = time.perf_counter()
        fn(flat, lens)
        return time.perf_counter() - start
    finally:
        gc.enable()


def _spread(times):
    q1, _, q3 = statistics.quantiles(times, n=4)
    return (q3 - q1) * 1e3


@pytest.mark.parametrize("num_functions", [200, 2000])
def test_keys_faster_than_reference(num_functions):
    module = build_workload(num_functions, f"keys{num_functions}")
    flat, lens = encode_module(module.defined_functions())
    assert content_keys(flat, lens) == reference_content_keys(flat, lens)
    ours, theirs = [], []
    for _ in range(REPEATS):
        theirs.append(_timed(reference_content_keys, flat, lens))
        ours.append(_timed(content_keys, flat, lens))
    minhash = statistics.median(
        _timed(minhash_encoded_batch, flat, lens) for _ in range(REPEATS)
    )
    ours_ms = statistics.median(ours) * 1e3
    theirs_ms = statistics.median(theirs) * 1e3
    print(
        f"\n{num_functions} functions: keys median {ours_ms:.2f} ms "
        f"(IQR {_spread(ours):.2f}), oracle {theirs_ms:.2f} ms "
        f"(IQR {_spread(theirs):.2f}), {1 - ours_ms / theirs_ms:.0%} less; "
        f"the MinHash they key takes {minhash * 1e3:.2f} ms"
    )
    assert ours_ms <= (1 - MIN_CUT) * theirs_ms
