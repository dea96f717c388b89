"""Function fingerprints: the HyFM opcode-frequency baseline and F3M MinHash.

The batched engine (:mod:`.batch`) computes MinHash for a whole module,
or one function, in a few vectorized passes; :mod:`.cache` shares a
module's fingerprints content-addressed across functions, runs and CLI
invocations (a single function is fingerprinted directly).
"""

from .batch import (
    encode_module,
    minhash_encoded_batch,
    minhash_encoded_one,
    minhash_module,
)
from .cache import CacheStats, FingerprintCache
from .encoding import EncodingOptions, encode_function, encode_instruction
from .fnv import fnv1a_32, fnv1a_32_ints, fnv1a_32_pair, salts
from .minhash import MinHashConfig, MinHashFingerprint, exact_jaccard, minhash_function
from .opcode_freq import OpcodeFingerprint, fingerprint_block, fingerprint_function
from .shingles import shingle_set, shingles
from .store import FingerprintStore, StoreFormatError

__all__ = [
    "CacheStats",
    "EncodingOptions",
    "FingerprintCache",
    "encode_module",
    "minhash_encoded_batch",
    "minhash_encoded_one",
    "minhash_module",
    "encode_function",
    "encode_instruction",
    "fnv1a_32",
    "fnv1a_32_ints",
    "fnv1a_32_pair",
    "salts",
    "MinHashConfig",
    "MinHashFingerprint",
    "exact_jaccard",
    "minhash_function",
    "OpcodeFingerprint",
    "fingerprint_block",
    "fingerprint_function",
    "shingles",
    "shingle_set",
    "FingerprintStore",
    "StoreFormatError",
]
