"""Property tests for the batched alignment engine.

The engine's contract is *decision identity*: the vectorized kernels, the
content-addressed caches and the whole-plan replay must all produce exactly
the alignment the pure Python path (``tests.reference.PureAlignmentEngine``)
produces — never "close enough".
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.alignment.batch as B
from repro.alignment.batch import (
    OP_GAP_A,
    OP_GAP_B,
    OP_MATCH,
    BatchAlignmentEngine,
    _nw_ops_py,
    _traceback,
    linear_ops_encoded,
    nw_ops_encoded,
)
from repro.alignment.cache import AlignmentCache, PlanCache, block_key
from repro.ir.clone import clone_function
from repro.ir.instructions import Ret, Unreachable
from repro.ir.module import Module
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.merge.pass_ import FunctionMergingPass, PassConfig
from repro.search.pairing import ExhaustiveRanker, MinHashLSHRanker
from repro.workloads import build_workload
from repro.workloads.generator import FunctionGenerator, GeneratorConfig
from tests.reference import PureAlignmentEngine, alignment_shape

# Small alphabet so random streams actually collide (matches = shared code).
codes = st.lists(st.integers(min_value=0, max_value=5), max_size=24)


def _pure_ops(a, b):
    """The reference path: pure DP + traceback, no vectorization."""
    score = _nw_ops_py(list(a), list(b), 2, -1, -1)
    return _traceback(score, list(a), list(b), 2, -1, -1)


def _check_ops_shape(ops, n, m):
    counts = np.bincount(ops, minlength=3)
    assert counts[OP_MATCH] + counts[OP_GAP_A] == n
    assert counts[OP_MATCH] + counts[OP_GAP_B] == m


class TestVectorizedNWEqualsPure:
    @given(codes, codes)
    @settings(max_examples=200, deadline=None)
    def test_vectorized_matches_reference(self, a, b):
        """Force the vectorized rows (no small-size fallback) and compare."""
        pure = _pure_ops(a, b)
        old = B._SMALL_NW_PRODUCT
        B._SMALL_NW_PRODUCT = -1
        try:
            vec = nw_ops_encoded(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
        finally:
            B._SMALL_NW_PRODUCT = old
        assert vec.tolist() == pure.tolist()
        _check_ops_shape(vec, len(a), len(b))

    @given(codes, codes)
    @settings(max_examples=100, deadline=None)
    def test_full_band_equals_full_dp(self, a, b):
        full = nw_ops_encoded(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
        band = max(len(a), len(b))
        banded = nw_ops_encoded(
            np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), band=band
        )
        assert banded.tolist() == full.tolist()

    def test_empty_both(self):
        assert nw_ops_encoded(np.array([], dtype=np.int64), np.array([], dtype=np.int64)).tolist() == []

    def test_one_sided_a(self):
        ops = nw_ops_encoded(np.array([1, 2, 3], dtype=np.int64), np.array([], dtype=np.int64))
        assert ops.tolist() == [OP_GAP_A] * 3

    def test_one_sided_b(self):
        ops = nw_ops_encoded(np.array([], dtype=np.int64), np.array([7, 7], dtype=np.int64))
        assert ops.tolist() == [OP_GAP_B] * 2

    @given(codes, codes)
    @settings(max_examples=100, deadline=None)
    def test_linear_kernel_consumes_both_streams(self, a, b):
        ops = linear_ops_encoded(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
        _check_ops_shape(ops, len(a), len(b))
        # Linear pairing matches the common prefix and suffix only; every
        # match must be an equal-code pair in order.
        ia = ib = 0
        for op in ops.tolist():
            if op == OP_MATCH:
                assert a[ia] == b[ib]
                ia += 1
                ib += 1
            elif op == OP_GAP_A:
                ia += 1
            else:
                ib += 1

    @given(codes)
    @settings(max_examples=50, deadline=None)
    def test_identical_streams_align_all_matches(self, a):
        arr = np.array(a, dtype=np.int64)
        assert nw_ops_encoded(arr, arr).tolist() == [OP_MATCH] * len(a)
        assert linear_ops_encoded(arr, arr).tolist() == [OP_MATCH] * len(a)


class TestEngineDecisionIdentity:
    """Engine alignments equal the pure path's on real workload functions."""

    @pytest.fixture(scope="class")
    def functions(self):
        return build_workload(40, "batchalign").defined_functions()

    @pytest.mark.parametrize("strategy", ["linear", "nw"])
    def test_engine_equals_pure(self, functions, strategy):
        engine = BatchAlignmentEngine(strategy=strategy)
        pure = PureAlignmentEngine(strategy=strategy)
        for i in range(len(functions) - 1):
            a, b = functions[i], functions[i + 1]
            assert alignment_shape(engine.align_functions(a, b)) == alignment_shape(
                pure.align_functions(a, b)
            )

    @pytest.mark.parametrize("strategy", ["linear", "nw"])
    def test_plan_replay_identical(self, functions, strategy):
        """Second alignment of the same pair is a plan-cache hit and must
        reproduce the decision bit-for-bit."""
        engine = BatchAlignmentEngine(strategy=strategy)
        pairs = [(functions[i], functions[i + 1]) for i in range(10)]
        first = [alignment_shape(engine.align_functions(a, b)) for a, b in pairs]
        hits_before = engine.plans.stats.hits
        second = [alignment_shape(engine.align_functions(a, b)) for a, b in pairs]
        assert engine.plans.stats.hits > hits_before
        assert first == second

    def test_invalidate_function_drops_memos(self, functions):
        engine = BatchAlignmentEngine()
        engine.align_functions(functions[0], functions[1])
        assert engine._functions
        engine.invalidate_function(functions[0])
        # No memo of the function survives: its one entry is gone, and no
        # other entry holds any of its blocks.
        assert id(functions[0]) not in engine._functions
        own = {id(block) for block in functions[0].blocks}
        for entry in engine._functions.values():
            assert entry.function is not functions[0]
            assert own.isdisjoint(id(block) for block in entry.blocks)
        # Still answers (recomputes) after invalidation.
        assert alignment_shape(
            engine.align_functions(functions[0], functions[1])
        ) == alignment_shape(PureAlignmentEngine().align_functions(functions[0], functions[1]))


def _arms(name: str, left: str, right: str) -> str:
    """Two arms with the same bodies, ending in *left* and *right*."""
    return f"""define void @{name}(i1 %c, i32 %x) {{
entry:
  %a = add i32 %x, 1
  br i1 %c, label %l, label %r
l:
  %b = mul i32 %x, 2
  {left}
r:
  %d = mul i32 %x, 3
  {right}
}}
"""


def _terminator_variants(rng: random.Random) -> Module:
    """Generated functions, each with copies that end some returning
    blocks in ``unreachable`` instead: the same block bodies, so the same
    function key, and different count rows."""
    module = Module("variants")
    generator = FunctionGenerator(module, rng, GeneratorConfig(max_ops=16, max_depth=2))
    for i in range(3):
        base = generator.generate(f"f{i}")
        for k in range(3):
            variant = clone_function(base, f"f{i}.v{k}", module)
            for block in variant.blocks:
                if isinstance(block.terminator, Ret) and rng.random() < 0.6:
                    block.terminator.erase_from_parent()
                    block.append(Unreachable())
    return module


class TestPlanCacheWarmth:
    """A whole-function plan replays only on pairs that block pairing
    scores the same, and pairing reads count rows that include phis and
    terminators."""

    def test_terminators_key_the_plan(self):
        module = parse_module(
            _arms("f1", "ret void", "ret void")
            + _arms("g1", "ret void", "ret void")
            + _arms("f2", "ret void", "unreachable")
            + _arms("g2", "unreachable", "ret void")
        )
        get = module.get_function
        warm = BatchAlignmentEngine()
        warm.align_functions(get("f1"), get("g1"))
        alignment = warm.align_functions(get("f2"), get("g2"))
        cold = BatchAlignmentEngine().align_functions(get("f2"), get("g2"))
        names = [(p.block_a.name, p.block_b.name) for p in alignment.block_pairs]
        assert names == [("entry", "entry"), ("r", "l"), ("l", "r")]
        assert alignment_shape(alignment) == alignment_shape(cold)
        assert warm.plans.stats.hits == 0

    @given(st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=30, deadline=None)
    def test_any_order_matches_cold_engine(self, seed):
        rng = random.Random(seed)
        functions = _terminator_variants(rng).defined_functions()
        pairs = [
            (a, b)
            for a in functions
            for b in functions
            if a is not b and a.return_type is b.return_type
        ]
        rng.shuffle(pairs)
        for strategy in ("linear", "nw"):
            warm = BatchAlignmentEngine(strategy)
            for a, b in pairs[:60]:
                cold = BatchAlignmentEngine(strategy).align_functions(a, b)
                assert alignment_shape(warm.align_functions(a, b)) == alignment_shape(cold)


class TestAlignmentCache:
    def test_block_key_separates_contents(self):
        k1 = block_key(np.array([1, 2, 3], dtype=np.int64))
        k2 = block_key(np.array([1, 2, 4], dtype=np.int64))
        k3 = block_key(np.array([1, 2, 3], dtype=np.int64))
        assert k1 != k2
        assert k1 == k3
        assert k1[0] == 3

    def test_lru_eviction_and_stats(self):
        cache = AlignmentCache(maxsize=2)
        ka = ("linear", (1, 1, 1), (2, 2, 2))
        kb = ("linear", (1, 1, 1), (3, 3, 3))
        kc = ("linear", (1, 1, 1), (4, 4, 4))
        cache.put(ka, np.array([0], dtype=np.int8))
        cache.put(kb, np.array([1], dtype=np.int8))
        cache.put(kc, np.array([2], dtype=np.int8))
        assert cache.stats.evictions == 1
        assert cache.get(ka) is None  # evicted (oldest)
        assert cache.get(kc).tolist() == [2]
        assert cache.stats.misses == 1 and cache.stats.hits == 1

    def test_get_returns_copy(self):
        cache = AlignmentCache()
        key = ("nw", (1, 0, 0), (1, 0, 0))
        cache.put(key, np.array([0, 1], dtype=np.int8))
        got = cache.get(key)
        got[0] = 2
        assert cache.get(key).tolist() == [0, 1]

    def test_plan_cache_lru(self):
        plans = PlanCache(maxsize=1)
        plans.put(("a",), ())
        plans.put(("b",), ())
        assert plans.get(("a",)) is None
        assert plans.get(("b",)) == ()
        assert plans.stats.evictions == 1


class TestCacheHitPathBitIdentical:
    """A pass through a prewarmed engine must merge bit-identically.

    This is the hit-path acceptance test: the second module is aligned
    entirely (plans) or mostly (blocks) out of the cache, and the merged
    module text must equal the cold run's exactly.
    """

    def test_warm_engine_module_identical(self):
        cold_module = build_workload(60, "cachehit")
        cold_engine = BatchAlignmentEngine()
        FunctionMergingPass(
            ExhaustiveRanker(), PassConfig(verify=False), alignment_engine=cold_engine
        ).run(cold_module)

        warm_module = build_workload(60, "cachehit")
        report = FunctionMergingPass(
            ExhaustiveRanker(), PassConfig(verify=False), alignment_engine=cold_engine
        ).run(warm_module)

        assert print_module(warm_module) == print_module(cold_module)
        stats = report.align_cache_stats
        assert stats["hits"] + stats["plan"]["hits"] > 0


def _decisions(report):
    return [(a.function, a.candidate, str(a.outcome), a.saving) for a in report.attempts]


class TestPassEngineIdentical:
    """A whole merging pass through the engine and through the pure aligner
    produces a byte-identical module from identical attempt decisions."""

    @pytest.mark.parametrize("strategy", ["linear", "nw"])
    def test_engine_identical(self, strategy):
        results = []
        for engine in (BatchAlignmentEngine(strategy), PureAlignmentEngine(strategy)):
            module = build_workload(80, "engine-identical")
            config = PassConfig(verify=False, alignment=strategy)
            report = FunctionMergingPass(
                MinHashLSHRanker(), config, alignment_engine=engine
            ).run(module)
            results.append((print_module(module), _decisions(report)))
        (text_engine, engine_decisions), (text_pure, pure_decisions) = results
        assert engine_decisions == pure_decisions
        assert any(d[2] == "merged" for d in engine_decisions)
        assert text_engine == text_pure
