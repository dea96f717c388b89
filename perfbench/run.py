"""Benchmark entry point: one workload, one seed, one measured run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload merge --seed 1 --seconds 45 --trace 0

The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracer installed; times are rescaled to a reference host (see
``calibration.py``).  With ``--trace 1`` a span tracer records every operation
and the metrics are the per-layer breakdown (see ``layers.py``); the layers
of an operation sum to its traced wall-clock.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no program sources under {ROOT}/src\n")
        return 2
    # The program never calls BLAS; one BLAS thread keeps the process
    # single-threaded, which the forked operations in workloads.py rely on.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from calibration import prepare, rescaled

    # Before the program is imported, so that only the calibration's own
    # objects leave the garbage collector's reach.
    prepare()
    from layers import LAYERS
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(
            f"perfbench: unknown workload {args.workload!r} "
            f"(have {', '.join(WORKLOADS)})\n"
        )
        return 2

    workload = WORKLOADS[args.workload](ROOT, args.seed)
    samples = []
    raised = 0
    try:
        setup_s = workload.setup()
        deadline = time.perf_counter() + args.seconds
        while not samples or time.perf_counter() < deadline:
            prepared = workload.prepare()
            gc.collect()
            try:
                sample = workload.measure(prepared, bool(args.trace))
            except Exception as exc:  # counted as a failed operation
                sample = {"error": repr(exc)}
            if "error" in sample:
                raised += 1
                sys.stderr.write(f"perfbench: operation failed: {sample['error']}\n")
                if not samples and raised >= 3:
                    break
                continue
            samples.append(sample)
    finally:
        workload.close()

    wrong = sum(1 for sample in samples if not sample["ok"])
    failed = raised + wrong
    metrics = {}
    if samples:
        n = len(samples)
        before = sum(sample["size_before"] for sample in samples)
        after = sum(sample["size_after"] for sample in samples)
        if args.trace:
            for name in LAYERS:
                total = sum(sample["layers"][name] for sample in samples)
                metrics[f"{name}_ms"] = _metric(total * 1000.0 / n, "ms")
            traced = sum(sum(sample["layers"].values()) for sample in samples)
            metrics["traced_op_ms"] = _metric(traced * 1000.0 / n, "ms")
            for key in ("attempts", "merges", "comparisons"):
                total = sum(sample[key] for sample in samples)
                metrics[f"{key}_per_op"] = _metric(total / n, "count")
        else:
            # Each timed step is rescaled by the host speed measured right
            # before it (calibration.py); the baseline's already is.
            seconds = [rescaled(sample["seconds"], sample["speed"]) for sample in samples]
            baseline = [sample["baseline_seconds"] for sample in samples]
            metrics["latency_ms"] = _metric(statistics.median(seconds) * 1000.0, "ms")
            metrics["speedup"] = _metric(
                statistics.median(b / s for b, s in zip(baseline, seconds)), "x"
            )
            metrics["size_reduction_pct"] = _metric(
                100.0 * (before - after) / before, "%"
            )
            metrics["setup_s"] = _metric(setup_s, "s")
    correct = bool(samples) and failed == 0 and after < before
    sys.stderr.write(f"perfbench: {len(samples)} operations, {failed} failed\n")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(samples) + raised,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
