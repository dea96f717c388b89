"""The corpus-scale sweep behind ``repro bench-perf scale``.

Every other benchmark in this repo holds the whole module in RAM; this one
opens the 10^5–10^6-function regime where that stops being an option and
the paper's adaptive t/b/r policy (Eq. 3/4) actually bends.  The sweep:

1. **generate** — builds a synthetic corpus once, in chunks of ``chunk``
   functions (``workloads/generator.py`` via ``build_workload``, fresh seed
   per chunk, no drivers), encoding each chunk and appending the encoded
   streams into one :class:`~repro.fingerprint.store.FingerprintStore` on
   disk.  IR is discarded chunk by chunk — corpus size never implies
   corpus-sized RAM.
2. Per size (a prefix of the corpus), under that size's
   :func:`~repro.search.adaptive.adaptive_parameters`:

   * **store_fingerprint** — re-minhash the encoded slices chunkwise into a
     per-size fingerprint store (each size has its own adaptive ``k``);
   * **store_index** — build a frozen index over the store
     (:meth:`~repro.search.lsh.LSHIndex.from_store`) and answer
     ``best_match`` for every row;
   * **inram** — the status-quo contender: whole encoded corpus slice in
     RAM, ``minhash_encoded_batch`` in one shot, per-function
     ``MinHashFingerprint`` objects and ``LSHIndex.insert_batch``.

Both index stages answer through the same per-key ``best_match`` loop.

Each stage runs in its own forked child
(:func:`~repro.harness.rss.run_isolated`), so per-stage wall-clock *and*
per-stage peak RSS are kernel-accounted and mutually isolated; the parent
stays slim and all bulk data travels via the on-disk stores.  Stages
cross-check through digests: sha256 over the signature bytes (fingerprint
bit-identity) and over the ``(best, similarity)`` result arrays (decision
identity, store-backed index vs in-RAM index).
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..fingerprint.batch import encode_module, minhash_encoded_batch
from ..fingerprint.minhash import MinHashConfig, MinHashFingerprint
from ..fingerprint.store import FingerprintStore
from ..search.adaptive import adaptive_parameters
from ..search.lsh import LSHIndex
from .rss import IsolatedRun, run_isolated

__all__ = ["run_scale_bench"]

_SCALE_SEED = 0x5CA1E


def _sha256_arrays(*arrays: np.ndarray) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _generate_corpus(
    corpus_dir: str, total: int, chunk: int, config: MinHashConfig, workload: str
) -> Dict[str, object]:
    """Child: build the corpus store chunk by chunk, IR discarded per chunk."""
    from ..workloads.suites import WorkloadConfig, build_workload

    store = FingerprintStore.create(corpus_dir, config, store_encoded=True)
    gen_s = 0.0
    encode_s = 0.0
    made = 0
    index = 0
    while made < total:
        want = min(chunk, total - made)
        t0 = time.perf_counter()
        module = build_workload(
            want, f"{workload}-{index}", WorkloadConfig(seed=_SCALE_SEED + index, drivers=0)
        )
        functions = module.defined_functions()[:want]
        gen_s += time.perf_counter() - t0
        t0 = time.perf_counter()
        flat, lens = encode_module(functions)
        store.append_encoded(flat, lens)
        encode_s += time.perf_counter() - t0
        made += len(functions)
        index += 1
    return {
        "functions": len(store),
        "instructions": int(store.stats()["encoded_total"]),
        "generate_s": gen_s,
        "encode_append_s": encode_s,
        "store": store.stats(),
    }


def _store_fingerprint_stage(
    corpus_dir: str, size_dir: str, size: int, chunk: int, config: MinHashConfig
) -> Dict[str, object]:
    """Child: stream encoded slices into a per-size fingerprint store."""
    corpus = FingerprintStore.open(corpus_dir)
    store = FingerprintStore.create(size_dir, config, store_encoded=False)
    minhash_s = 0.0
    for start in range(0, size, chunk):
        stop = min(start + chunk, size)
        flat, lens = corpus.encoded_slice(start, stop)
        t0 = time.perf_counter()
        store.append_encoded(flat, lens)
        minhash_s += time.perf_counter() - t0
    # Digest the store's signature matrix chunkwise off the memmap — the
    # matrix itself never becomes RAM-resident.
    digest = hashlib.sha256()
    for _start, _stop, values in store.iter_chunks(chunk):
        digest.update(np.ascontiguousarray(values).tobytes())
    return {
        "minhash_append_s": minhash_s,
        "values_sha256": digest.hexdigest(),
        "store": store.stats(),
    }


def _best_matches(index: LSHIndex, size: int) -> Tuple[np.ndarray, np.ndarray, float]:
    """``best_match`` of every key ``0..size-1``: ``(best, sims, seconds)``,
    ``best`` holding -1 where a key has no candidate."""
    t0 = time.perf_counter()
    best = np.full(size, -1, dtype=np.int64)
    sims = np.zeros(size, dtype=np.float64)
    for i in range(size):
        match = index.best_match(i)
        if match is not None:
            best[i] = match[0]
            sims[i] = match[1]
    return best, sims, time.perf_counter() - t0


def _store_index_stage(
    size_dir: str,
    rows: int,
    bands: int,
    bucket_cap: Optional[int],
) -> Dict[str, object]:
    """Child: frozen index build over the store + best_match for every row."""
    store = FingerprintStore.open(size_dir)
    t0 = time.perf_counter()
    index = LSHIndex.from_store(store, rows=rows, bands=bands, bucket_cap=bucket_cap)
    build_s = time.perf_counter() - t0
    best, sims, query_s = _best_matches(index, len(store))
    return {
        "build_s": build_s,
        "query_s": query_s,
        "total_s": build_s + query_s,
        "decisions_sha256": _sha256_arrays(best, sims),
        "matched": int(np.count_nonzero(best >= 0)),
        "index_stats": index.index_stats(),
    }


def _inram_stage(
    corpus_dir: str,
    size: int,
    rows: int,
    bands: int,
    bucket_cap: Optional[int],
    config: MinHashConfig,
) -> Dict[str, object]:
    """Child: the fully RAM-resident reference path."""
    corpus = FingerprintStore.open(corpus_dir)
    flat, lens = corpus.encoded_slice(0, size)
    flat = np.array(flat)  # pull the slice into RAM: this path is the
    lens = np.array(lens)  # in-memory contender, page cache doesn't count
    t0 = time.perf_counter()
    values, counts = minhash_encoded_batch(flat, lens, config)
    fingerprints = [
        MinHashFingerprint(values[i], config, int(counts[i])) for i in range(size)
    ]
    fingerprint_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    index: LSHIndex[int] = LSHIndex(rows=rows, bands=bands, bucket_cap=bucket_cap)
    index.insert_batch(list(range(size)), fingerprints)
    index_s = time.perf_counter() - t0
    best, sims, query_s = _best_matches(index, size)
    return {
        "fingerprint_s": fingerprint_s,
        "index_s": index_s,
        "query_s": query_s,
        "total_s": fingerprint_s + index_s + query_s,
        "values_sha256": _sha256_arrays(values),
        "decisions_sha256": _sha256_arrays(best, sims),
        "matched": int(np.count_nonzero(best >= 0)),
        "index_stats": index.index_stats(),
    }


def _stage_row(run: IsolatedRun) -> Dict[str, object]:
    row = dict(run.result)
    row["seconds"] = run.seconds
    row["rss_baseline_kb"] = run.baseline_kb
    row["rss_peak_kb"] = run.peak_kb
    row["rss_delta_kb"] = run.delta_kb
    return row


def run_scale_bench(
    sizes: Sequence[int],
    chunk: int = 2000,
    bucket_cap: Optional[int] = 100,
    workload: str = "scale",
    work_dir: Optional[str] = None,
    keep_work_dir: bool = False,
) -> Tuple[List[Dict[str, object]], Dict[str, object]]:
    """Rows + metadata for ``BENCH_scale.json``; see the module docstring.

    Sizes are prefixes of one generated corpus, so generation cost is paid
    once.
    """
    sizes = sorted(set(int(s) for s in sizes))
    if not sizes:
        raise ValueError("at least one size required")
    total = sizes[-1]
    owns_work_dir = work_dir is None
    if owns_work_dir:
        work_dir = tempfile.mkdtemp(prefix="repro-scale-")
    os.makedirs(work_dir, exist_ok=True)
    corpus_dir = os.path.join(work_dir, "corpus")

    largest = adaptive_parameters(total)
    corpus_config = MinHashConfig(k=largest.fingerprint_size)

    rows: List[Dict[str, object]] = []
    try:
        gen_run = run_isolated(
            _generate_corpus, corpus_dir, total, chunk, corpus_config, workload
        )
        generation = _stage_row(gen_run)

        for size in sizes:
            params = adaptive_parameters(size)
            config = MinHashConfig(k=params.fingerprint_size)
            size_dir = os.path.join(work_dir, f"size-{size}")
            row: Dict[str, object] = {
                "size": size,
                "adaptive": {
                    "threshold": params.threshold,
                    "rows": params.rows,
                    "bands": params.bands,
                    "k": params.fingerprint_size,
                },
                "stages": {},
            }
            stages: Dict[str, Dict[str, object]] = row["stages"]

            fp_run = run_isolated(
                _store_fingerprint_stage, corpus_dir, size_dir, size, chunk, config
            )
            stages["store_fingerprint"] = _stage_row(fp_run)

            index_run = run_isolated(
                _store_index_stage, size_dir, params.rows, params.bands, bucket_cap
            )
            stages["store_index"] = _stage_row(index_run)

            inram_run = run_isolated(
                _inram_stage,
                corpus_dir,
                size,
                params.rows,
                params.bands,
                bucket_cap,
                config,
            )
            stages["inram"] = _stage_row(inram_run)

            inram = stages["inram"]
            row["fingerprints_bit_identical"] = (
                stages["store_fingerprint"]["values_sha256"] == inram["values_sha256"]
            )
            row["decisions_identical"] = (
                stages["store_index"]["decisions_sha256"] == inram["decisions_sha256"]
            )
            row["store_peak_rss_kb"] = max(
                stage["rss_delta_kb"]
                for name, stage in stages.items()
                if name.startswith("store_")
            )
            row["inram_peak_rss_kb"] = inram["rss_delta_kb"]
            rows.append(row)
    finally:
        if owns_work_dir and not keep_work_dir:
            shutil.rmtree(work_dir, ignore_errors=True)

    largest_row = rows[-1]
    headline = {
        "largest_size": largest_row["size"],
        "fingerprints_bit_identical": all(r["fingerprints_bit_identical"] for r in rows),
        "decisions_identical": all(r["decisions_identical"] for r in rows),
        "inram_peak_rss_kb": largest_row["inram_peak_rss_kb"],
        "store_peak_rss_kb": largest_row["store_peak_rss_kb"],
        "rss_ratio": (
            largest_row["store_peak_rss_kb"] / largest_row["inram_peak_rss_kb"]
            if largest_row["inram_peak_rss_kb"]
            else 0.0
        ),
    }
    metadata = {
        "sizes": list(sizes),
        "chunk": chunk,
        "bucket_cap": bucket_cap,
        "workload": workload,
        "seed": _SCALE_SEED,
        "generation": generation,
        "headline": headline,
        "protocol": (
            "one corpus generated in chunks into a memmap FingerprintStore; "
            "per size (a corpus prefix, adaptive t/b/r per Eq. 3/4): "
            "store_fingerprint re-minhashes encoded slices chunkwise into a "
            "per-size store; store_index builds a frozen LSHIndex over the "
            "store (memmapped signatures, bucket layer built band range by "
            "band range) and answers best_match for every row; inram is the "
            "RAM-resident reference (one-shot minhash, fingerprint objects, "
            "LSHIndex.insert_batch, the same per-key best_match loop).  Each "
            "stage is one forked child: seconds is child wall-clock, "
            "rss_delta_kb its VmHWM growth.  values_sha256 must match "
            "between store_fingerprint and inram (bit-identical "
            "fingerprints); decisions_sha256 must match between store_index "
            "and inram (identical best-match decisions)."
        ),
    }
    return rows, metadata
