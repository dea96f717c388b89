"""Batched module-wide MinHash fingerprinting (the F3M hot path, vectorized).

Fingerprinting a function is encode → shingle → hash → k-way min.  Done
one function at a time over a whole module, that is thousands of tiny
array operations whose fixed per-call overhead dominates the actual
hashing work.  This module computes the fingerprints in a handful of
module-wide passes:

* :func:`encode_module` packs every function's encoded instruction stream
  into one flat ``uint64`` array with per-function lengths — a single
  pure-Python sweep reads the IR, while the bit-folding and field packing
  of the 32-bit encoding run vectorized over all instructions at once;
* :func:`minhash_encoded_batch` hashes every shingle window of every
  function in one pass, xors the whole window-hash stream against all *k*
  salts, and reduces per-function minima with ``np.minimum.reduceat``;
* :func:`minhash_module` ties both together with the content-addressed
  :class:`~repro.fingerprint.cache.FingerprintCache` (identical-bodied
  functions share one computation).

:func:`minhash_encoded_batch` is the MinHash kernel.  A single function
(:meth:`MinHashFingerprint.from_encoded`, and through it
:func:`minhash_function`) takes its one-row short path,
:func:`minhash_encoded_one`, which skips the per-function segment
gathers; it never consults the cache, since keying one stream costs more
than fingerprinting it.
Every path is bit-identical to the per-function kernel kept as the test
oracle ``tests/reference/minhash.py`` — property-tested in
``tests/fingerprint/test_batch.py``.
"""

from __future__ import annotations

import threading
from itertools import chain
from operator import attrgetter
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.linearizer import linearize
from ..arrays import sorted_unique
from ..ir.function import Function
from ..obs import trace
from .encoding import EncodingOptions, encode_function
from .minhash import MinHashConfig, MinHashFingerprint, _salts_for
from .fnv import fnv1a_32_array_u32

__all__ = [
    "encode_module",
    "minhash_encoded_batch",
    "minhash_encoded_one",
    "minhash_module",
]

_U32 = 0xFFFFFFFF
_U64 = (1 << 64) - 1
_EMPTY_SENTINEL = np.uint32(0xFFFFFFFF)

# Cap on shingle windows per vectorized xor/min block: bounds the scratch
# (k, windows) matrix at k=200 to ~13 MB.  The block buffer is reused (see
# _xor_scratch), so the cap only bounds retained memory — per-block reduceat
# overhead is negligible once the buffer stops being reallocated.
_MAX_BLOCK_WINDOWS = 1 << 14

# Grow-only per-thread scratch for the (k, windows) xor block.  A fresh
# multi-MB np.empty per call lands on mmap'd pages that the allocator
# returns to the OS on free, so every call would pay the page faults again;
# reusing one buffer keeps the hot loop fault-free after warm-up.
_SCRATCH = threading.local()


def _xor_scratch(k: int, windows: int) -> np.ndarray:
    buf = getattr(_SCRATCH, "xor_buf", None)
    if buf is None or buf.shape[0] < k or buf.shape[1] < windows:
        grow_k = k if buf is None else max(k, buf.shape[0])
        grow_w = windows if buf is None else max(windows, buf.shape[1])
        buf = np.empty((grow_k, grow_w), dtype=np.uint32)
        _SCRATCH.xor_buf = buf
    return buf[:k, :windows]

# Reaching through to the IntEnum's _value_ slot skips one __index__ call
# per instruction when the list is converted to an array below.
_GET_OPCODE = attrgetter("opcode._value_")
_GET_TYPE_ID = attrgetter("type.type_id")
_GET_OPERANDS = attrgetter("_operands")


# ---------------------------------------------------------------------------
# Vectorized module encoding
# ---------------------------------------------------------------------------


def _pack_streams(encoded: Sequence[Sequence[int]]) -> Tuple[np.ndarray, np.ndarray]:
    """Pack per-function encoded streams into (flat uint64, lengths)."""
    lens = np.array([len(e) for e in encoded], dtype=np.int64)
    total = int(lens.sum())
    flat = np.fromiter(
        (v for stream in encoded for v in stream), dtype=np.uint64, count=total
    )
    return flat, lens


def encode_module(
    functions: Sequence[Function], options: Optional[EncodingOptions] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Encode all *functions* at once.

    Returns ``(flat, lens)`` where ``flat`` is every function's encoded
    instruction stream concatenated into one ``uint64`` array and ``lens``
    holds the per-function stream lengths (``int64``).  Bit-identical to
    calling :func:`encode_function` per function.

    One Python sweep extracts the four raw per-instruction properties
    (opcode, operand count, result type id, operand-type product); the
    xor-folds and the bit packing of the 32-bit encoding run as whole-module
    array operations.
    """
    options = options or EncodingOptions()
    if options.include_predicates:
        # The predicate ablation folds per-instruction predicate kinds into
        # the opcode field; it needs isinstance dispatch per instruction, so
        # it takes the reference encoder (correctness over speed for the
        # ablation configuration).
        return _pack_streams([encode_function(f, options) for f in functions])

    insts_all: List = []
    lens_list: List[int] = []
    for func in functions:
        insts = linearize(func)
        lens_list.append(len(insts))
        insts_all.extend(insts)
    opcodes = list(map(_GET_OPCODE, insts_all))
    tids = list(map(_GET_TYPE_ID, insts_all))
    # _operands skips the tuple copy of the .operands property.
    opl = list(map(_GET_OPERANDS, insts_all))

    lens = np.array(lens_list, dtype=np.int64)
    if not opcodes:
        return np.empty(0, dtype=np.uint64), lens

    nops = np.array(list(map(len, opl)), dtype=np.int64)
    op_tids = np.fromiter(
        map(_GET_TYPE_ID, chain.from_iterable(opl)),
        dtype=np.uint64,
        count=int(nops.sum()),
    )
    # Operand-type product per instruction via one segmented reduction.  A
    # trailing sentinel 1 keeps every reduceat start index in bounds; for a
    # zero-operand instruction reduceat returns a single (wrong) element,
    # overwritten with the empty product below.  uint64 multiplication wraps
    # mod 2**64, which equals masking every step (ring homomorphism) — the
    # same argument the reference encoder relies on.
    seg = np.empty(op_tids.shape[0] + 1, dtype=np.uint64)
    seg[:-1] = op_tids | np.uint64(1)
    seg[-1] = 1
    starts = np.cumsum(nops) - nops
    p_a = np.multiply.reduceat(seg, starts)
    p_a[nops == 0] = 1

    op_a = np.array(opcodes, dtype=np.uint64) & np.uint64(0x3F)
    no_a = np.minimum(nops, 15).astype(np.uint64)
    # result type fold: type ids are 31-bit, so _fold(tid, 8) is the xor of
    # the four 8-bit chunks.
    t_a = np.array(tids, dtype=np.uint64)
    result_fold = (
        t_a ^ (t_a >> np.uint64(8)) ^ (t_a >> np.uint64(16)) ^ (t_a >> np.uint64(24))
    ) & np.uint64(0xFF)
    # operand product fold: 64-bit products xor-folded in 14-bit chunks
    # (ceil(64/14) = 5 chunks), matching encoding._fold(product, 14).
    operand_fold = p_a.copy()
    for shift in (14, 28, 42, 56):
        operand_fold ^= p_a >> np.uint64(shift)
    operand_fold &= np.uint64(0x3FFF)

    flat = (
        op_a
        | (no_a << np.uint64(6))
        | (result_fold << np.uint64(10))
        | (operand_fold << np.uint64(18))
    ) & np.uint64(_U32)
    return flat, lens


# ---------------------------------------------------------------------------
# Vectorized batched MinHash
# ---------------------------------------------------------------------------


def _segment_indices(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``[starts[i], starts[i]+counts[i])`` ranges as one array."""
    total = int(counts.sum())
    ends = np.cumsum(counts)
    return (
        np.arange(total, dtype=np.int64)
        - np.repeat(ends - counts, counts)
        + np.repeat(starts, counts)
    )


def _window_hashes(
    flat: np.ndarray, lens: np.ndarray, shingle_size: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-window FNV-1a hashes for every non-empty function.

    Returns ``(base, seg_starts, wcounts, nonempty)``: the window-hash
    stream of all non-empty functions concatenated in function order, the
    start of each function's segment inside it, the per-function window
    counts and the indices of the non-empty functions.
    """
    offsets = np.cumsum(lens) - lens
    nonempty = np.flatnonzero(lens > 0)
    ne_lens = lens[nonempty]
    ne_off = offsets[nonempty]
    # A function shorter than the shingle size yields one (short) window.
    wcounts = np.where(ne_lens >= shingle_size, ne_lens - shingle_size + 1, 1)
    seg_starts = np.cumsum(wcounts) - wcounts
    base = np.empty(int(wcounts.sum()), dtype=np.uint32)

    # Encoded words are 32-bit values in a uint64 carrier; truncating the
    # stream once up front halves the window-gather traffic and feeds the
    # uint32 FNV kernel without a per-call conversion copy.
    flat32 = flat.astype(np.uint32)
    normal = ne_lens >= shingle_size
    if normal.any():
        counts = wcounts[normal]
        src = _segment_indices(ne_off[normal], counts)
        dest = _segment_indices(seg_starts[normal], counts)
        windows = np.lib.stride_tricks.sliding_window_view(flat32, shingle_size)
        base[dest] = fnv1a_32_array_u32(windows[src])
    short = ~normal
    if short.any():
        s_lens = ne_lens[short]
        s_off = ne_off[short]
        s_dest = seg_starts[short]
        for length in sorted_unique(s_lens)[0].tolist():
            rows = s_lens == length
            gather = s_off[rows][:, None] + np.arange(length, dtype=np.int64)[None, :]
            base[s_dest[rows]] = fnv1a_32_array_u32(flat32[gather])
    return base, seg_starts, wcounts, nonempty


def minhash_encoded_batch(
    flat: np.ndarray,
    lens: np.ndarray,
    config: MinHashConfig = MinHashConfig(),
) -> Tuple[np.ndarray, np.ndarray]:
    """MinHash values for every function packed in ``(flat, lens)``.

    Returns ``(values, num_shingles)`` — a ``(n, k)`` uint32 matrix and the
    per-function window counts — where row *i* is the fingerprint of the
    *i*-th packed stream (an empty stream gets all-ones values).
    """
    flat = np.asarray(flat, dtype=np.uint64)
    lens = np.asarray(lens, dtype=np.int64)
    n = lens.shape[0]
    k = config.k
    values = np.full((n, k), _EMPTY_SENTINEL, dtype=np.uint32)
    counts = np.zeros(n, dtype=np.int64)
    if n == 0 or not (lens > 0).any():
        return values, counts

    base, seg_starts, wcounts, nonempty = _window_hashes(flat, lens, config.shingle_size)
    counts[nonempty] = wcounts
    salt_vec = _salts_for(config)

    if config.independent_hashes:
        # k separate FNV-1a hashes of (salt, window_hash) pairs, one pass
        # over the whole window stream per salt.
        pairs = np.empty((base.shape[0], 2), dtype=np.uint32)
        pairs[:, 1] = base
        out = np.empty((k, nonempty.shape[0]), dtype=np.uint32)
        for j in range(k):
            pairs[:, 0] = salt_vec[j]
            out[j] = np.minimum.reduceat(fnv1a_32_array_u32(pairs), seg_starts)
        values[nonempty] = out.T
        return values, counts

    # xor-salt path: expand the window-hash stream against all k salts in
    # (k, windows) blocks — the salts-major layout keeps each reduceat
    # segment contiguous — and reduce per-function minima in one call.
    m = nonempty.shape[0]
    out = np.empty((m, k), dtype=np.uint32)
    seg_ends = seg_starts + wcounts
    fstart = 0
    while fstart < m:
        fend = int(np.searchsorted(seg_ends, seg_ends[fstart] + _MAX_BLOCK_WINDOWS, "left"))
        fend = max(fend, fstart + 1)
        ws, we = int(seg_starts[fstart]), int(seg_ends[fend - 1])
        ext = _xor_scratch(k, we - ws)
        np.bitwise_xor(salt_vec[:, None], base[None, ws:we], out=ext)
        out[fstart:fend] = np.minimum.reduceat(
            ext, seg_starts[fstart:fend] - ws, axis=1
        ).T
        fstart = fend
    values[nonempty] = out
    return values, counts


def minhash_encoded_one(
    encoded: Sequence[int], config: MinHashConfig = MinHashConfig()
) -> Tuple[np.ndarray, int]:
    """``(values, num_shingles)`` of one encoded stream: row 0 of
    :func:`minhash_encoded_batch` on a one-stream pack, without the
    segment gathers a pack of many streams needs."""
    words = np.asarray(encoded, dtype=np.uint64).astype(np.uint32)
    n = words.shape[0]
    if n == 0:
        return np.full(config.k, _EMPTY_SENTINEL, dtype=np.uint32), 0
    # A stream shorter than the shingle size is one (short) window.  The
    # windows are a strided view of the words (sliding_window_view's
    # argument checks cost more than hashing a short stream).
    width = min(config.shingle_size, n)
    windows = np.ndarray((n - width + 1, width), np.uint32, words, 0, (4, 4))
    base = fnv1a_32_array_u32(windows)
    salt_vec = _salts_for(config)
    if config.independent_hashes:
        pairs = np.empty((base.shape[0], 2), dtype=np.uint32)
        pairs[:, 1] = base
        values = np.empty(config.k, dtype=np.uint32)
        for j in range(config.k):
            pairs[:, 0] = salt_vec[j]
            values[j] = fnv1a_32_array_u32(pairs).min()
        return values, int(base.shape[0])
    # Windows-major, so the min runs down contiguous rows of k salts.
    return (base[:, None] ^ salt_vec[None, :]).min(axis=0), int(base.shape[0])


# ---------------------------------------------------------------------------
# Top-level entry points
# ---------------------------------------------------------------------------


def minhash_module(
    functions: Iterable[Function],
    config: MinHashConfig = MinHashConfig(),
    encoding: Optional[EncodingOptions] = None,
    *,
    cache=None,
) -> List[MinHashFingerprint]:
    """MinHash fingerprints for a whole module in one batched pass.

    Bit-identical to ``[minhash_function(f, config, encoding) for f in
    functions]``.  With *cache* (a :class:`FingerprintCache`) fingerprints
    are shared content-addressed: functions with identical encoded streams
    — within this call, across calls, and across CLI invocations when the
    cache has a disk layer — are hashed once.
    """
    functions = list(functions)
    if not functions:
        return []
    with trace.span("encode", functions=len(functions)):
        flat, lens = encode_module(functions, encoding)
    n = len(functions)
    if cache is None:
        with trace.span("minhash", functions=n, hashed=n):
            values, counts = minhash_encoded_batch(flat, lens, config)
        return [
            MinHashFingerprint(values[i], config, int(counts[i])) for i in range(n)
        ]

    with trace.span("minhash", functions=n) as sp:
        keys = cache.keys_for(flat, lens, config)
        resolved: dict = {}
        compute_rows: List[int] = []
        for i, key in enumerate(keys):
            if key in resolved:
                continue
            hit = cache.get(key)
            if hit is not None:
                resolved[key] = hit
            else:
                resolved[key] = None
                compute_rows.append(i)
        sp.set(hashed=len(compute_rows), cache_hits=n - len(compute_rows))
        if compute_rows:
            rows = np.array(compute_rows, dtype=np.int64)
            offsets = np.cumsum(lens) - lens
            idx = _segment_indices(offsets[rows], lens[rows])
            values, counts = minhash_encoded_batch(flat[idx], lens[rows], config)
            for pos, i in enumerate(compute_rows):
                entry = (values[pos], int(counts[pos]))
                resolved[keys[i]] = entry
                cache.put(keys[i], values[pos], int(counts[pos]))
    return [
        MinHashFingerprint(resolved[keys[i]][0], config, resolved[keys[i]][1])
        for i in range(n)
    ]

