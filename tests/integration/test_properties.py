"""Property-based tests over randomly generated IR.

These are the heavyweight guarantees:

* print → parse → print is a fixpoint for any generated function;
* merging any two same-return-type generated functions yields a verifier-
  clean merged function that reproduces *both* originals on random inputs.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.alignment import align_functions
from repro.fingerprint import MinHashConfig, exact_jaccard, minhash_function
from repro.ir import (
    Interpreter,
    Module,
    Trap,
    parse_module,
    print_module,
    verify_function,
    verify_module,
)
from repro.merge import MergeError, merge_functions
from repro.workloads import FunctionGenerator, make_variant

_SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _generate(seed, count=2):
    module = Module(f"prop{seed}")
    gen = FunctionGenerator(module, random.Random(seed))
    funcs = [gen.generate(f"p{i}") for i in range(count)]
    return module, funcs


def _args_for(func, rng):
    args = []
    for p in func.ftype.params:
        if p.is_float:
            args.append(round(rng.uniform(-4, 4), 3))
        elif p.is_int and p.bits == 1:
            args.append(rng.randint(0, 1))
        else:
            args.append(rng.randint(0, 100))
    return args


def _run(func, args):
    try:
        value = Interpreter(fuel=500_000).run(func, args).value
    except Trap as trap:
        return ("trap", str(trap))
    if value != value:
        return ("ok", "nan")  # NaN != NaN, but two NaN results agree
    return ("ok", value)


class TestRoundTripProperty:
    @settings(**_SETTINGS)
    @given(seed=st.integers(0, 10_000))
    def test_print_parse_fixpoint(self, seed):
        module, _funcs = _generate(seed, count=3)
        module.get_function  # touch
        for func in module.functions:
            func.uniquify_names()
        text = print_module(module)
        reparsed = parse_module(text)
        verify_module(reparsed)
        assert print_module(reparsed) == text


class TestMergeEquivalenceProperty:
    @settings(**_SETTINGS)
    @given(seed=st.integers(0, 10_000))
    def test_merge_random_pair(self, seed):
        module, funcs = _generate(seed, count=2)
        f1, f2 = funcs
        if f1.return_type is not f2.return_type:
            return  # pair rejected by design
        rng = random.Random(seed ^ 0xABCDEF)
        try:
            result = merge_functions(align_functions(f1, f2), module)
        except MergeError:
            return  # rejection is allowed; miscompilation is not
        verify_function(result.merged)
        merged = result.merged
        for trial in range(3):
            for func, pmap, fid in (
                (f1, result.param_map_a, 0),
                (f2, result.param_map_b, 1),
            ):
                args = _args_for(func, rng)
                margs = [0] * len(merged.args)
                for arg_meta, slot in zip(merged.args, range(len(merged.args))):
                    if arg_meta.type.is_float:
                        margs[slot] = 0.0
                margs[0] = fid
                for value, slot in zip(args, pmap):
                    margs[slot] = value
                assert _run(merged, margs) == _run(func, args)

    @settings(**_SETTINGS)
    @given(seed=st.integers(0, 10_000), n_mut=st.integers(0, 10))
    def test_merge_base_with_variant(self, seed, n_mut):
        """Family pairs (the common case) must always merge cleanly."""
        module, funcs = _generate(seed, count=1)
        base = funcs[0]
        rng = random.Random(seed * 31 + n_mut)
        variant = make_variant(base, "variant", rng, n_mut, module)
        result = merge_functions(align_functions(base, variant), module)
        verify_function(result.merged)
        merged = result.merged
        for trial in range(3):
            args = _args_for(base, rng)
            for func, pmap, fid in (
                (base, result.param_map_a, 0),
                (variant, result.param_map_b, 1),
            ):
                margs = [0] * len(merged.args)
                for i, arg_meta in enumerate(merged.args):
                    if arg_meta.type.is_float:
                        margs[i] = 0.0
                margs[0] = fid
                for value, slot in zip(args, pmap):
                    margs[slot] = value
                assert _run(merged, margs) == _run(func, args)


class TestMinHashOnRealFunctionsProperty:
    @settings(**_SETTINGS)
    @given(seed=st.integers(0, 10_000))
    def test_estimate_tracks_exact_jaccard(self, seed):
        from repro.fingerprint import encode_function

        module, funcs = _generate(seed, count=1)
        base = funcs[0]
        rng = random.Random(seed + 1)
        variant = make_variant(base, "v", rng, rng.randint(0, 8), module)
        cfg = MinHashConfig(k=256)
        sim = minhash_function(base, cfg).similarity(minhash_function(variant, cfg))
        exact = exact_jaccard(encode_function(base), encode_function(variant))
        assert abs(sim - exact) <= 4.0 / (256**0.5) + 0.02
