"""The one-walk function entry against the encoding it replaced.

``BatchAlignmentEngine.function_entry`` builds one entry per function in a
single walk; the alignment engine and the profitability bound both read it.
``tests/reference/encoding.py`` keeps the per-block encoding with FNV keys
and stacked count rows, and the bound's separate profile walk.  On
generated modules (loops with phis, invokes, unreachable blocks, clones
and near-clones), every block's body, codes, count row and magnitude, and
every function's bound inputs, must equal the reference's; and two block
keys, or two function keys, must be equal exactly when the code streams
they stand for are.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alignment.batch import BatchAlignmentEngine
from repro.ir.basicblock import BasicBlock
from repro.ir.builder import IRBuilder
from repro.ir.module import Module
from repro.ir.types import I32
from repro.ir.values import ConstantInt
from repro.ir.verifier import verify_module
from repro.workloads.generator import FunctionGenerator, GeneratorConfig
from repro.workloads.mutate import make_variant, mutate_function_danger
from tests.reference.encoding import ReferenceProfile, reference_entry


def _add_dead_block(func, rng: random.Random) -> None:
    """Append a block no edge reaches: outside the linearization, inside
    ``function_size``."""
    builder = IRBuilder(BasicBlock(func.next_name("dead"), func))
    value = builder.add(ConstantInt(I32, rng.randint(0, 9)), ConstantInt(I32, 1))
    for _ in range(rng.randint(0, 3)):
        value = builder.mul(value, ConstantInt(I32, rng.randint(2, 5)))
    builder.unreachable()


def _build(seed: int, num_functions: int) -> Module:
    rng = random.Random(seed)
    module = Module(f"entry.{seed}")
    generator = FunctionGenerator(module, rng, GeneratorConfig(max_ops=16, max_depth=2))
    functions = []
    for i in range(num_functions):
        if functions and rng.random() < 0.3:
            # Clones and near-clones share block contents across functions.
            base = rng.choice(functions)
            func = make_variant(base, f"v{i}", rng, rng.randint(0, 2))
        else:
            func = generator.generate(f"f{i}")
        if rng.random() < 0.4:
            mutate_function_danger(func, rng, 3, danger_bias=0.9)
        if rng.random() < 0.3:
            _add_dead_block(func, rng)
        functions.append(func)
    verify_module(module)
    return module


def _check_module(module: Module) -> None:
    engine = BatchAlignmentEngine()
    keys_by_stream = {}
    streams_by_key = {}
    functions_by_key = {}
    for func in module.defined_functions():
        entry = engine.function_entry(func)
        assert engine.function_entry(func) is entry
        profile = entry.profile()
        ref = reference_entry(func, engine.interner)
        ref_profile = ReferenceProfile(func, engine.interner)

        assert entry.blocks == ref.blocks
        assert entry.counts.tolist() == ref.counts.tolist()
        assert entry.magnitudes.tolist() == ref.magnitudes.tolist()
        for i, block_ref in enumerate(ref.entries):
            assert entry.bodies[i] == block_ref.body
            assert entry.codes[i] == block_ref.codes.tolist()
            assert entry.arrays[i].dtype == block_ref.codes.dtype
            assert entry.arrays[i].tolist() == block_ref.codes.tolist()
            key = entry.keys[i]
            assert key[0] == len(block_ref.codes)
            stream = tuple(block_ref.codes.tolist())
            keys_by_stream.setdefault(stream, set()).add(key)
            streams_by_key.setdefault(key, set()).add(stream)
        assert entry.key == tuple(entry.keys)
        functions_by_key.setdefault(entry.key, set()).add(
            tuple(tuple(b.codes.tolist()) for b in ref.entries)
        )

        assert profile.code_counts == ref_profile.code_counts
        assert profile.code_weights == ref_profile.code_weights
        assert profile.body_weight == ref_profile.body_weight
        assert profile.total_size == ref_profile.total_size

    # Keys are equal exactly when the streams are.
    assert all(len(keys) == 1 for keys in keys_by_stream.values())
    assert all(len(streams) == 1 for streams in streams_by_key.values())
    assert all(len(streams) == 1 for streams in functions_by_key.values())


@given(st.integers(min_value=0, max_value=2**20), st.integers(min_value=1, max_value=24))
@settings(max_examples=40, deadline=None)
def test_entry_equals_reference(seed, num_functions):
    _check_module(_build(seed, num_functions))


def test_grid_exercises_every_shape():
    """The generator reaches what the property claims to cover: phis,
    invokes, unreachable blocks and block contents shared across
    functions."""
    module = _build(7, 24)
    _check_module(module)
    opcodes = {inst.opcode.name for f in module.defined_functions() for inst in f.instructions()}
    assert {"PHI", "INVOKE"} <= opcodes
    engine = BatchAlignmentEngine()
    dead = sum(
        len(f.blocks) - len(engine.function_entry(f).blocks)
        for f in module.defined_functions()
    )
    assert dead > 0
    keys = [k for f in module.defined_functions() for k in engine.function_entry(f).keys]
    assert len(set(keys)) < len(keys)
