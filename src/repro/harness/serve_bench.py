"""Warm-daemon vs cold one-shot benchmark (``repro bench-perf serve``).

Three comparisons per workload size, all against the same module text:

* **cold one-shot** — a fresh ``repro merge -s f3m`` subprocess (process
  start + parse + merge + print), plus an in-process variant that strips
  the interpreter startup out, isolating pipeline cost;
* **warm daemon** — the same merge served by a long-lived
  :class:`~repro.serve.daemon.ServeDaemon`: the first request populates
  the caches, steady-state repeats hit the whole-result LRU, and a
  ``no_result_cache`` series shows the pipeline-warm path (only the
  content-addressed fingerprint/alignment/plan caches help);
* **delta vs rebuild** — a 1 %-changed delta submitted into the warm
  daemon against a from-scratch rebuild of the post-delta corpus in a
  fresh daemon.

Identity checks ride along: the daemon's merged module must be
byte-identical to both one-shot paths, and the daemon's incrementally
maintained index must agree with a serial replay of the exact same
insert/remove sequence on a plain :class:`~repro.search.lsh.LSHIndex`
(every live function's best match compared).  A full-rebuild agreement
rate is also reported — not gated, because tombstones legitimately occupy
capped bucket windows that a rebuild starts without.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import tempfile
from typing import Dict, List, Sequence, Tuple

from ..fingerprint.batch import minhash_module
from ..fingerprint.minhash import MinHashConfig
from ..ir.function import Function
from ..ir.module import Module
from ..ir.parser import parse_module
from ..ir.printer import print_module
from ..ir.verifier import verify_module
from ..merge.pass_ import FunctionMergingPass, PassConfig
from ..search.lsh import LSHIndex
from ..serve import ServeClient, ServeConfig, ServeDaemon
from ..workloads.mutate import make_variant
from ..workloads.suites import build_workload
from .bench import best_of
from .experiments import make_ranker

__all__ = [
    "declare_external_callees",
    "build_delta_text",
    "run_serve_bench",
]


def declare_external_callees(module: Module) -> None:
    """Add declarations for every function referenced but not present in
    *module*, so its printed text parses stand-alone (delta modules clone
    single functions out of a larger corpus and keep its call operands)."""
    for func in list(module.functions):
        for inst in func.instructions():
            for operand in inst.operands:
                if (
                    isinstance(operand, Function)
                    and module.get_function(operand.name) is None
                ):
                    module.declare_function(operand.ftype, operand.name)


def build_delta_text(
    corpus: Module, fraction: float, seed: int, mutations: int = 2
) -> Tuple[str, List[str]]:
    """A delta module redefining a deterministic ~*fraction* of *corpus*'s
    functions as mutated variants; returns ``(text, changed_names)``."""
    defined = corpus.defined_functions()
    names = [f.name for f in defined]
    count = max(1, int(len(names) * fraction))
    rng = random.Random(seed)
    picked = sorted(rng.sample(range(len(names)), count))
    delta = Module("delta")
    for i in picked:
        make_variant(corpus.get_function(names[i]), names[i], rng, mutations, delta)
    declare_external_callees(delta)
    return print_module(delta), [names[i] for i in picked]


def _one_shot_merge(text: str) -> Tuple[str, int]:
    """The in-process equivalent of ``repro merge -s f3m`` (all defaults)."""
    module = parse_module(text, name="request")
    verify_module(module)
    pass_ = FunctionMergingPass(make_ranker("f3m"), PassConfig())
    report = pass_.run(module)
    return print_module(module), report.merges


def _subprocess_env() -> Dict[str, str]:
    src = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return env


def _serial_replay_identical(
    daemon: ServeDaemon,
    corpus_names: List[str],
    corpus_fps,
    delta_text: str,
) -> Tuple[bool, float]:
    """Replay the daemon's exact index op sequence on a plain LSHIndex and
    compare every live function's best match; also measure how often a
    from-scratch rebuild agrees (reported, not gated — tombstones occupy
    capped bucket windows that a rebuild never sees)."""
    config = MinHashConfig()
    db = daemon.db
    serial: LSHIndex = LSHIndex(
        rows=db._ROWS,
        bands=config.k // db._ROWS,
        bucket_cap=db._BUCKET_CAP,
        compact_ratio=db.config.compact_ratio,
    )
    serial.insert_batch(corpus_names, corpus_fps)
    delta = parse_module(delta_text, name="delta")
    ddef = delta.defined_functions()
    # apply_delta removes the changed names in sorted order, then
    # re-inserts them (freshly fingerprinted) in delta definition order.
    for name in sorted(f.name for f in ddef):
        serial.remove(name)
    fps1 = minhash_module(ddef, config)
    serial.insert_batch([f.name for f in ddef], fps1)

    snap = db.snapshot
    identical = True
    for name in snap.entries:
        if snap.index.best_match(name) != serial.best_match(name):
            identical = False
            break

    rebuild: LSHIndex = LSHIndex(
        rows=db._ROWS,
        bands=config.k // db._ROWS,
        bucket_cap=db._BUCKET_CAP,
        compact_ratio=db.config.compact_ratio,
    )
    post = parse_module(db.dump(), name="post")
    post_defined = post.defined_functions()
    rebuild.insert_batch(
        [f.name for f in post_defined], minhash_module(post_defined, config)
    )
    names = sorted(snap.entries)
    stride = max(1, len(names) // 1000)
    sample = names[::stride]
    agree = sum(
        1
        for name in sample
        if snap.index.best_match(name) == rebuild.best_match(name)
    )
    return identical, agree / len(sample) if sample else 1.0


def run_serve_bench(
    sizes: Sequence[int],
    repeats: int = 3,
    delta_fraction: float = 0.01,
    workload: str = "serve",
) -> Tuple[List[Dict[str, object]], Dict[str, object]]:
    """Run the serve suite; returns ``(rows, metadata)`` for bench JSON."""
    sizes = list(sizes)
    rows: List[Dict[str, object]] = []
    env = _subprocess_env()

    for size in sizes:
        module = build_workload(size, name=f"{workload}{size}")
        text = print_module(module)
        last: Dict[str, object] = {}

        with tempfile.TemporaryDirectory(prefix="serve-bench-") as tmp:
            in_path = os.path.join(tmp, "in.ir")
            out_path = os.path.join(tmp, "out.ir")
            with open(in_path, "w", encoding="utf-8") as handle:
                handle.write(text)

            def cold_subprocess() -> str:
                proc = subprocess.run(
                    [
                        sys.executable,
                        "-m",
                        "repro",
                        "merge",
                        in_path,
                        "-s",
                        "f3m",
                        "-o",
                        out_path,
                    ],
                    env=env,
                    capture_output=True,
                )
                if proc.returncode != 0:
                    raise RuntimeError(
                        f"one-shot merge failed: {proc.stderr.decode()[-500:]}"
                    )
                with open(out_path, "r", encoding="utf-8") as handle:
                    return handle.read()

            cold = best_of(
                {
                    "subprocess": cold_subprocess,
                    "inprocess": lambda: _one_shot_merge(text),
                },
                repeats,
                last,
            )
        one_shot_text, one_shot_merges = last["inprocess"]

        daemon = ServeDaemon(ServeConfig())
        client = ServeClient(daemon=daemon)

        warm_first_s = best_of(
            {"first": lambda: client.merge(module=text)}, 1, last
        )["first"]
        warm_steady_s = best_of(
            {"steady": lambda: client.merge(module=text)}, max(repeats, 3)
        )["steady"]
        warm_pipeline_s = best_of(
            {"pipeline": lambda: client.merge(module=text, no_result_cache=True)},
            repeats,
            last,
        )["pipeline"]
        first, pipeline = last["first"], last["pipeline"]

        decisions_identical = (
            first["module"] == one_shot_text
            and first["module"] == last["subprocess"]
            and pipeline["module"] == one_shot_text
            and first["merges"] == one_shot_merges
        )

        # Incremental phase: corpus build, 1%-changed delta, full rebuild.
        corpus_fps = minhash_module(module.defined_functions(), MinHashConfig())
        corpus_names = [f.name for f in module.defined_functions()]
        submit_full_s = best_of({"t": lambda: client.submit(module=text)}, 1)["t"]
        delta_text, changed = build_delta_text(
            daemon.db.module, delta_fraction, seed=0xDE17A
        )
        delta_update_s = best_of(
            {"t": lambda: client.submit(module=delta_text)}, 1
        )["t"]

        post_text = client.dump()["module"]
        rebuild_daemon = ServeDaemon(ServeConfig())
        rebuild_client = ServeClient(daemon=rebuild_daemon)
        full_rebuild_s = best_of(
            {"t": lambda: rebuild_client.submit(module=post_text)}, 1
        )["t"]

        serial_identical, rebuild_agreement = _serial_replay_identical(
            daemon, corpus_names, corpus_fps, delta_text
        )

        rows.append(
            {
                "size": size,
                "merges": first["merges"],
                "cold_subprocess_s": cold["subprocess"],
                "cold_inprocess_s": cold["inprocess"],
                "warm_first_s": warm_first_s,
                "warm_steady_s": warm_steady_s,
                "warm_pipeline_s": warm_pipeline_s,
                "warm_speedup": cold["subprocess"] / warm_steady_s,
                "pipeline_speedup": cold["subprocess"] / warm_pipeline_s,
                "submit_full_s": submit_full_s,
                "delta_functions": len(changed),
                "delta_update_s": delta_update_s,
                "full_rebuild_s": full_rebuild_s,
                "delta_speedup": full_rebuild_s / delta_update_s,
                "decisions_identical": decisions_identical,
                "serial_identical": serial_identical,
                "rebuild_agreement": rebuild_agreement,
            }
        )

    largest = rows[-1]
    metadata = {
        "sizes": sizes,
        "repeats": repeats,
        "delta_fraction": delta_fraction,
        "workload": workload,
        "headline": {
            "largest_size": largest["size"],
            "warm_speedup": largest["warm_speedup"],
            "pipeline_speedup": largest["pipeline_speedup"],
            "delta_speedup": largest["delta_speedup"],
            "decisions_identical": all(r["decisions_identical"] for r in rows),
            "serial_identical": all(r["serial_identical"] for r in rows),
            "rebuild_agreement": largest["rebuild_agreement"],
        },
    }
    return rows, metadata
