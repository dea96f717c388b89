"""Tests for the workload generator, mutation engine and suites."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fingerprint import fingerprint_function
from repro.ir import (
    Interpreter,
    Module,
    parse_module,
    print_function,
    print_module,
    verify_function,
    verify_module,
)
from repro.workloads import (
    BENCHMARKS,
    FunctionGenerator,
    GeneratorConfig,
    WorkloadConfig,
    benchmark_by_name,
    build_benchmark,
    build_workload,
    make_variant,
    mutate_function,
    size_class,
)
from tests.conftest import build_diamond


class TestGenerator:
    def test_functions_verify(self):
        module = Module("gen")
        gen = FunctionGenerator(module, random.Random(0))
        for i in range(25):
            func = gen.generate(f"g{i}")
            verify_function(func)

    def test_deterministic(self):
        m1, m2 = Module("a"), Module("b")
        g1 = FunctionGenerator(m1, random.Random(99))
        g2 = FunctionGenerator(m2, random.Random(99))
        for i in range(10):
            f1 = g1.generate(f"g{i}")
            f2 = g2.generate(f"g{i}")
            assert print_function(f1) == print_function(f2)

    def test_functions_are_interpretable(self):
        module = Module("gen")
        gen = FunctionGenerator(module, random.Random(3))
        for i in range(15):
            func = gen.generate(f"g{i}")
            args = []
            for p in func.ftype.params:
                if p.is_float:
                    args.append(1.5)
                else:
                    args.append(2)
            result = Interpreter(fuel=200_000).run(func, args)
            assert result.instructions_executed > 0

    def test_config_bounds_respected(self):
        module = Module("gen")
        cfg = GeneratorConfig(min_ops=3, max_ops=5, max_params=2)
        gen = FunctionGenerator(module, random.Random(1), cfg)
        for i in range(10):
            func = gen.generate(f"g{i}")
            assert 1 <= len(func.args) <= 2

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        max_depth=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_generated_text_round_trips(self, seed, max_depth):
        """Functions with several loops name each loop's phis apart, so
        the printed module parses back to the same text."""
        module = Module("gen")
        gen = FunctionGenerator(
            module, random.Random(seed), GeneratorConfig(max_ops=16, max_depth=max_depth)
        )
        for i in range(2):
            gen.generate(f"g{i}")
        text = print_module(module)
        assert print_module(parse_module(text)) == text


class TestMutation:
    def test_variants_verify(self, module):
        base = build_diamond(module, "base")
        rng = random.Random(7)
        for i in range(10):
            variant = make_variant(base, f"v{i}", rng, i, module)
            verify_function(variant)

    def test_zero_mutations_identical(self, module):
        base = build_diamond(module, "base")
        variant = make_variant(base, "v0", random.Random(1), 0, module)
        assert print_function(variant) == print_function(base).replace("@base", "@v0")

    def test_mutations_change_code(self, module):
        base = build_diamond(module, "base")
        variant = make_variant(base, "v", random.Random(1), 8, module)
        assert print_function(variant) != print_function(base).replace("@base", "@v")

    def test_mutation_count_reported(self, module):
        base = build_diamond(module, "base")
        applied = mutate_function(base, random.Random(1), 5)
        assert 0 <= applied <= 5
        verify_function(base)

    def test_heavier_mutation_lowers_similarity(self, module):
        base = build_diamond(module, "base")
        rng = random.Random(11)
        light = make_variant(base, "light", rng, 1, module)
        heavy = make_variant(base, "heavy", rng, 40, module)
        fp = fingerprint_function(base)
        assert fp.similarity(fingerprint_function(light)) >= fp.similarity(
            fingerprint_function(heavy)
        )

    def test_mutants_stay_interpretable(self, module):
        from tests.conftest import build_loop

        base = build_loop(module, "base")
        rng = random.Random(5)
        for i in range(8):
            variant = make_variant(base, f"v{i}", rng, 10, module)
            Interpreter(fuel=100_000).run(variant, [3])


class TestSuites:
    def test_benchmark_table_shape(self):
        names = [b.name for b in BENCHMARKS]
        assert "400.perlbench" in names
        assert "linux" in names and "chrome" in names
        assert benchmark_by_name("400.perlbench").functions == 1837
        assert benchmark_by_name("linux").functions == 45000
        assert benchmark_by_name("chrome").functions == 1_200_000

    def test_sorted_for_figures(self):
        # Benchmarks appear on figure x-axes ordered by function count.
        counts = [b.functions for b in BENCHMARKS]
        assert counts == sorted(counts)

    def test_size_classes(self):
        assert size_class(500) == "small"
        assert size_class(5000) == "medium"
        assert size_class(50_000) == "large"

    def test_build_workload_counts(self):
        module = build_workload(40, "wl")
        defined = [f for f in module.defined_functions() if f.name != "driver"]
        assert len(defined) == 40
        assert module.get_function("driver") is not None
        verify_module(module)

    def test_build_workload_deterministic(self):
        from repro.ir import print_module

        m1 = build_workload(30, "same")
        m2 = build_workload(30, "same")
        assert print_module(m1) == print_module(m2)

    def test_families_exist(self):
        module = build_workload(60, "fam")
        family_members = [f for f in module.functions if f.name.startswith("fam")]
        assert len(family_members) > 5

    def test_build_benchmark_scaling(self):
        module = build_benchmark("462.libquantum", scale=0.5)
        n = len(module.defined_functions()) - 1  # minus driver
        assert abs(n - 115 * 0.5) <= 1

    def test_build_benchmark_cap(self):
        module = build_benchmark("linux", scale=1.0, max_functions=50)
        assert len(module.defined_functions()) - 1 == 50

    def test_driver_runs(self):
        module = build_workload(30, "drv")
        result = Interpreter().run(module.get_function("driver"), [5])
        assert result.instructions_executed > 10
