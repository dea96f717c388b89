"""Tests for the HyFM opcode-frequency fingerprint."""

import pytest

from repro.fingerprint import OpcodeFingerprint, fingerprint_function
from repro.workloads import make_variant
from tests.conftest import build_diamond, build_straightline
import random


class TestOpcodeFingerprint:
    def test_identical_functions_zero_distance(self, module):
        f1 = build_diamond(module, "f1")
        f2 = build_diamond(module, "f2")
        fp1, fp2 = fingerprint_function(f1), fingerprint_function(f2)
        assert fp1.distance(fp2) == 0
        assert fp1.similarity(fp2) == 1.0

    def test_distance_counts_opcode_changes(self, module):
        f1 = build_diamond(module, "f1", mul_by=2)
        f2 = build_diamond(module, "f2", mul_by=3)
        # Same opcodes, different constants: fingerprints identical — the
        # paper's core criticism of this metric.
        assert fingerprint_function(f1).distance(fingerprint_function(f2)) == 0

    def test_different_shapes_nonzero_distance(self, module):
        f1 = build_diamond(module, "f1")
        f2 = build_straightline(module, "f2")
        fp1, fp2 = fingerprint_function(f1), fingerprint_function(f2)
        assert fp1.distance(fp2) > 0
        assert 0.0 <= fp1.similarity(fp2) < 1.0

    def test_similarity_symmetric(self, module):
        f1 = build_diamond(module, "f1")
        f2 = build_straightline(module, "f2")
        fp1, fp2 = fingerprint_function(f1), fingerprint_function(f2)
        assert fp1.similarity(fp2) == pytest.approx(fp2.similarity(fp1))

    def test_magnitude(self, module):
        func = build_straightline(module)
        assert fingerprint_function(func).magnitude == func.num_instructions

    def test_block_fingerprint(self, module):
        func = build_diamond(module)
        entry_fp = OpcodeFingerprint.from_instructions(func.entry.instructions)
        assert entry_fp.magnitude == len(func.entry)

    def test_variant_similarity_decreases_with_mutations(self, module):
        base = build_diamond(module, "base")
        rng = random.Random(3)
        light = make_variant(base, "light", rng, 1, module)
        heavy = make_variant(base, "heavy", rng, 30, module)
        fp = fingerprint_function(base)
        sim_light = fp.similarity(fingerprint_function(light))
        sim_heavy = fp.similarity(fingerprint_function(heavy))
        assert sim_light >= sim_heavy
