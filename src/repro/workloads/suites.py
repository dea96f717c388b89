"""Benchmark-shaped workloads (paper Table I equivalents).

The paper evaluates on SPEC CPU2006/2017 plus large real applications
(Linux, Chrome).  Without their sources, we reproduce the *population
statistics* the merging pipeline actually sees: the function count of each
benchmark and a mix of unrelated functions and mutation-derived families of
similar functions.  Function counts follow the paper where stated
(perlbench 1837, Linux ≈45k, Chrome ≈1.2m) and typical SPEC sizes
elsewhere; a ``scale`` factor shrinks the giant programs to what a Python
host can simulate while preserving the size *ordering* across benchmarks.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..ir.basicblock import BasicBlock
from ..ir.builder import IRBuilder
from ..ir.function import Function
from ..ir.instructions import ICmpPred
from ..ir.module import Module
from ..ir.types import DOUBLE, FunctionType, I1, I32, I64, IntType
from ..ir.values import ConstantFloat, ConstantInt, Value
from .generator import FunctionGenerator, GeneratorConfig
from .mutate import make_shuffled_variant, make_variant

__all__ = [
    "BenchmarkSpec",
    "BENCHMARKS",
    "WorkloadConfig",
    "build_workload",
    "build_benchmark",
    "benchmark_by_name",
    "size_class",
]


@dataclass(frozen=True)
class BenchmarkSpec:
    """One Table-I row: name and (paper-reported or typical) function count."""

    name: str
    functions: int
    category: str  # "spec2006" | "spec2017" | "app"


# Counts marked * are stated in the paper (perlbench 1837, Linux 45k,
# Chrome 1.2m); the rest are typical for the benchmark and only need to
# preserve relative ordering.
BENCHMARKS: List[BenchmarkSpec] = [
    BenchmarkSpec("462.libquantum", 115, "spec2006"),
    BenchmarkSpec("429.mcf", 136, "spec2006"),
    BenchmarkSpec("505.mcf_r", 141, "spec2017"),
    BenchmarkSpec("470.lbm", 179, "spec2006"),
    BenchmarkSpec("519.lbm_r", 189, "spec2017"),
    BenchmarkSpec("444.namd", 250, "spec2006"),
    BenchmarkSpec("508.namd_r", 266, "spec2017"),
    BenchmarkSpec("458.sjeng", 288, "spec2006"),
    BenchmarkSpec("433.milc", 334, "spec2006"),
    BenchmarkSpec("531.deepsjeng_r", 350, "spec2017"),
    BenchmarkSpec("456.hmmer", 538, "spec2006"),
    BenchmarkSpec("401.bzip2", 562, "spec2006"),
    BenchmarkSpec("473.astar", 610, "spec2006"),
    BenchmarkSpec("525.x264_r", 843, "spec2017"),
    BenchmarkSpec("445.gobmk", 1106, "spec2006"),
    BenchmarkSpec("464.h264ref", 1223, "spec2006"),
    BenchmarkSpec("400.perlbench", 1837, "spec2006"),  # *
    BenchmarkSpec("600.perlbench_s", 2051, "spec2017"),
    BenchmarkSpec("403.gcc", 3458, "spec2006"),
    BenchmarkSpec("447.dealII", 4234, "spec2006"),
    BenchmarkSpec("510.parest_r", 5318, "spec2017"),
    BenchmarkSpec("623.xalancbmk_s", 6891, "spec2017"),
    BenchmarkSpec("620.omnetpp_s", 9447, "spec2017"),
    BenchmarkSpec("602.gcc_s", 11288, "spec2017"),
    BenchmarkSpec("linux", 45000, "app"),  # *
    BenchmarkSpec("chrome", 1_200_000, "app"),  # *
]

_BY_NAME: Dict[str, BenchmarkSpec] = {b.name: b for b in BENCHMARKS}


def benchmark_by_name(name: str) -> BenchmarkSpec:
    return _BY_NAME[name]


def size_class(num_functions: int) -> str:
    """Paper Section IV-D buckets: small / medium / large."""
    if num_functions < 1000:
        return "small"
    if num_functions < 10_000:
        return "medium"
    return "large"


@dataclass(frozen=True)
class WorkloadConfig:
    """Population statistics of a generated workload.

    ``family_fraction`` — share of functions that belong to a similarity
    family (the merging fodder).  ``near_dup_fraction`` — share of family
    variants mutated only lightly (profitable pairs); the rest drift hard
    (fingerprint-similar but unprofitable pairs, the HyFM failure mode).
    """

    seed: int = 0xF3A
    family_fraction: float = 0.45
    min_family: int = 2
    max_family: int = 6
    near_dup_fraction: float = 0.40
    shuffle_fraction: float = 0.18
    light_mutations: int = 2
    heavy_mutations: int = 14
    drivers: int = 1
    preoptimize: bool = True
    generator: GeneratorConfig = GeneratorConfig()


def build_workload(
    num_functions: int,
    name: str = "workload",
    config: WorkloadConfig = WorkloadConfig(),
) -> Module:
    """Generate a module with *num_functions* defined functions (+ drivers)."""
    rng = random.Random(config.seed ^ (num_functions * 2654435761))
    module = Module(name)
    generator = FunctionGenerator(module, rng, config.generator)

    made = 0
    family_idx = 0
    while made < num_functions:
        in_family = rng.random() < config.family_fraction
        if in_family and num_functions - made >= config.min_family:
            size = rng.randint(
                config.min_family, min(config.max_family, num_functions - made)
            )
            base = generator.generate(f"fam{family_idx}.base")
            made += 1
            for v in range(size - 1):
                vname = f"fam{family_idx}.v{v}"
                roll = rng.random()
                if roll < 0.10:
                    # Exact duplicate (mergefunc fodder, a minority).
                    make_variant(base, vname, rng, 0, module)
                elif roll < 0.10 + config.shuffle_fraction:
                    # Same code, different instruction schedule: identical
                    # opcode multiset, degraded alignment (Figure 5's trap).
                    make_shuffled_variant(
                        base, vname, rng, rng.randint(6, 20), module
                    )
                elif roll < 0.10 + config.shuffle_fraction + config.near_dup_fraction:
                    make_variant(
                        base, vname, rng, rng.randint(1, config.light_mutations), module
                    )
                else:
                    make_variant(
                        base,
                        vname,
                        rng,
                        rng.randint(config.light_mutations + 2, config.heavy_mutations),
                        module,
                    )
                made += 1
            family_idx += 1
        else:
            generator.generate(f"fn{made}")
            made += 1

    for d in range(config.drivers):
        _build_driver(module, rng, f"driver{d}" if config.drivers > 1 else "driver")
    if config.preoptimize:
        # The paper applies merging "after all source files have been
        # optimized for size (-Os)"; without this, dead code left by the
        # generator would inflate every merging statistic.
        from ..transforms.pipeline import optimize_module

        optimize_module(module, max_rounds=2, drop_dead_functions=False)
    # Generated loops reuse local names like %iv; make every function's
    # names unique so the module's printed form round-trips through the
    # parser (the CLI and the serve daemon exchange modules as text).
    for func in module.defined_functions():
        func.uniquify_names()
    return module


def _build_driver(module: Module, rng: random.Random, name: str) -> Function:
    """An executable entry point calling a sample of the module's functions.

    Interpreting the driver before and after merging measures the dynamic
    instruction overhead of merged code (paper Figure 17).
    """
    callable_funcs = [
        f
        for f in module.defined_functions()
        if not f.name.startswith("driver")
        and all(isinstance(p, IntType) or p.is_float for p in f.ftype.params)
    ]
    sample_size = min(len(callable_funcs), 40)
    sample = rng.sample(callable_funcs, sample_size) if sample_size else []

    func = Function(FunctionType(I32, [I32]), module.unique_name(name), parent=module)
    func.internal = False  # entry points are externally visible
    builder = IRBuilder(BasicBlock("entry", func))
    x = func.args[0]
    acc: Value = builder.add(x, ConstantInt(I32, 1))
    for callee in sample:
        args: List[Value] = []
        for param in callee.ftype.params:
            if param is I32:
                args.append(acc)
            elif isinstance(param, IntType) and param.bits == 64:
                args.append(builder.sext(acc, I64))
            elif isinstance(param, IntType) and param.bits == 1:
                args.append(builder.icmp(ICmpPred.SGT, acc, ConstantInt(I32, 0)))
            elif isinstance(param, IntType):
                args.append(ConstantInt(param, 3))
            else:
                args.append(ConstantFloat(param, 2.5))  # type: ignore[arg-type]
        result = builder.call(callee, args)
        if result.type is I32:
            acc = builder.xor(acc, result)
        elif isinstance(result.type, IntType) and result.type.bits == 64:
            acc = builder.xor(acc, builder.trunc(result, I32))
        elif result.type.is_float:
            acc = builder.xor(acc, builder.fptosi(result, I32))
    builder.ret(acc)
    return func


def build_benchmark(
    name: str,
    scale: float = 1.0,
    max_functions: Optional[int] = None,
    config: Optional[WorkloadConfig] = None,
) -> Module:
    """Build the workload for one Table-I benchmark, optionally scaled."""
    spec = benchmark_by_name(name)
    n = max(8, int(round(spec.functions * scale)))
    if max_functions is not None:
        n = min(n, max_functions)
    from ..fingerprint.fnv import fnv1a_32

    cfg = config or WorkloadConfig(seed=(fnv1a_32(name.encode()) & 0xFFFFFF) or 1)
    return build_workload(n, name=name, config=cfg)
