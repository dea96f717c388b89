"""The fingerprint cache's one-pass content keys against the grouped oracle.

``content_keys`` hashes every stream of a pack in one sweep over word
columns; ``tests/reference/fnv.py::reference_content_keys`` groups the
streams by length and hashes each group with the masked uint64 FNV-1a.
The keys are stored on disk (``.repro-cache/`` and the fingerprint
store's meta), so the two must agree bit for bit on every pack.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fingerprint.cache import content_keys
from repro.fingerprint.fnv import fnv1a_32_ints
from tests.reference.fnv import KEY_SALT, reference_content_keys

_LENGTH = st.integers(min_value=0, max_value=150)

# Stream lengths: mixed; many streams of one length; one long stream
# among short ones (most columns then step a one-row prefix).
_LENGTHS = st.one_of(
    st.lists(_LENGTH, max_size=40),
    st.tuples(_LENGTH, st.integers(1, 40)).map(lambda t: [t[0]] * t[1]),
    st.tuples(
        st.integers(100, 150),
        st.lists(st.integers(0, 4), max_size=30),
        st.integers(0, 30),
    ).map(lambda t: t[1][: t[2]] + [t[0]] + t[1][t[2] :]),
)

# Word values: the full uint32 range, a tiny alphabet (many identical
# streams), and the byte-boundary extremes.
_EDGES = np.array([0, 0xFF, 0xFF00, 0x80000000, 0xFFFFFFFF], dtype=np.uint64)


def _words(regime, seed, total):
    rng = np.random.default_rng(seed)
    if regime == "full":
        return rng.integers(0, 1 << 32, size=total, dtype=np.uint64)
    if regime == "small":
        return rng.integers(0, 3, size=total, dtype=np.uint64)
    return rng.choice(_EDGES, size=total)


def _pack(streams):
    lens = np.array([len(s) for s in streams], dtype=np.int64)
    flat = np.array([v for s in streams for v in s], dtype=np.uint64)
    return flat, lens


class TestContentKeysDifferential:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        lengths=_LENGTHS,
        regime=st.sampled_from(["full", "small", "edges"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(lengths=[], regime="full", seed=0)
    @example(lengths=[0], regime="full", seed=0)
    @example(lengths=[0, 0, 0], regime="full", seed=0)
    @example(lengths=[150], regime="edges", seed=1)
    @example(lengths=[3, 0, 3, 1, 0], regime="small", seed=2)
    def test_matches_reference(self, lengths, regime, seed):
        lens = np.array(lengths, dtype=np.int64)
        flat = _words(regime, seed, int(lens.sum()))
        assert content_keys(flat, lens) == reference_content_keys(flat, lens)

    def test_scalar_hashes(self):
        # Each key is (length, fnv1a(stream), fnv1a(salt || stream)).
        streams = [[], [7], [0xDEADBEEF, 0, 0xFFFFFFFF], [5, 6], [7]]
        flat, lens = _pack(streams)
        want = [
            (len(s), fnv1a_32_ints(s), fnv1a_32_ints([KEY_SALT] + s)) for s in streams
        ]
        assert content_keys(flat, lens) == want

    def test_upper_carrier_bits_ignored(self):
        # Encoded words travel in uint64 carriers; only the low 32 bits
        # are content.
        flat = np.array([1, 2, 3], dtype=np.uint64)
        lens = np.array([2, 1], dtype=np.int64)
        high = flat | np.uint64(0xABCD << 32)
        assert content_keys(high, lens) == content_keys(flat, lens)
        assert content_keys(high, lens) == reference_content_keys(high, lens)

    def test_module_sized_packs(self):
        # Packs the size of a workload module: hundreds of streams.
        rng = np.random.default_rng(28)
        for _ in range(10):
            lens = rng.integers(0, 151, size=int(rng.integers(1, 400)))
            flat = rng.integers(0, 1 << 32, size=int(lens.sum()), dtype=np.uint64)
            assert content_keys(flat, lens) == reference_content_keys(flat, lens)
