"""Effectiveness gates for the fingerprint cache.

Tier-2 + ``perf`` marked, run with::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_regression.py -m perf --no-header

The batched engine's bit-identity with the per-function reference path is
tier 1 (``tests/fingerprint/test_batch.py``, ``tests/search/test_pairing.py``).
"""

import pytest

from repro.fingerprint import FingerprintCache, MinHashConfig, minhash_module
from repro.workloads import build_workload

pytestmark = [pytest.mark.tier2, pytest.mark.perf]

_SIZE = 500


@pytest.fixture(scope="module")
def functions():
    return build_workload(_SIZE, "perfgate").defined_functions()


class TestCacheEffectiveness:
    def test_remerge_hits_cache(self, functions):
        cache = FingerprintCache()
        config = MinHashConfig()
        minhash_module(functions, config, cache=cache)
        assert cache.stats.hit_rate >= 0.0  # cold run may already dedup clones
        before = cache.stats.hits
        minhash_module(functions, config, cache=cache)
        assert cache.stats.hits > before
        assert cache.stats.hit_rate > 0
