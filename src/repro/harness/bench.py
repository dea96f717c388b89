"""The benchmark runner: suites, timing and ``BENCH_*.json`` emission.

The perf trajectory of the repo is tracked through small JSON files the
benchmark suites drop next to the repository root: one ``BENCH_<name>.json``
per suite, a list of per-module measurement rows plus free-form metadata.
This module centralizes everything the suites share:

* :data:`BENCH_SUITES` — the suite table behind ``repro bench-perf SUITE``:
  each suite's run function (imported lazily), default sizes, output
  file, workload name, constant settings and one-line headline;
* :func:`run_suite` — the single code path that runs a suite and writes
  its file;
* :func:`best_of` — the one best-of timer every harness uses;
* :func:`write_bench_json` — the payload schema, stamped with
  ``metadata.provenance`` (core count, git revision, Python version and
  the suite's config) so every file records where its numbers came from.

The first consumer of the row helpers is the commit-gate cost comparison:
per module, how much wall-time the static merge-safety gate
(``PassConfig.static_check``) costs next to the differential-execution
oracle gate — the number that justifies running the cheap static screen
before (or instead of) the expensive dynamic check.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import platform
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..merge.report import MergeReport
from ..obs.manifest import git_revision

__all__ = [
    "BENCH_SUITES",
    "BenchSuite",
    "best_of",
    "gate_cost_row",
    "load_bench_json",
    "run_suite",
    "write_bench_json",
]


def gate_cost_row(name: str, report: MergeReport) -> Dict[str, object]:
    """One per-module measurement row from a finished pass run.

    ``static_time`` / ``oracle_time`` are the summed per-attempt gate costs
    (zero when the corresponding gate was disabled), so suites can run the
    gates separately or together and the row stays comparable.
    """
    stages = report.stage_totals()
    return {
        "module": name,
        "functions": report.num_functions,
        "attempts": len(report.attempts),
        "merges": report.merges,
        "static_fails": report.outcome_counts().get("static_fail", 0),
        "oracle_fails": report.outcome_counts().get("oracle_fail", 0),
        "static_time": stages["staticcheck"],
        "oracle_time": stages["oracle"],
        "total_time": report.total_time,
        "size_reduction": report.size_reduction,
    }


def best_of(
    fns: Mapping[str, Callable[[], object]],
    repeats: int,
    results: Optional[Dict[str, object]] = None,
) -> Dict[str, float]:
    """Best-of-``repeats`` wall-clock of each workload, timed in interleaved
    rounds with the cyclic GC quiesced.

    Collecting before each rep and disabling the collector inside the timed
    region (standard benchmarking hygiene, cf. pyperf) keeps one run's
    garbage from being charged to the next.  Machine speed drifts on
    timescales of seconds (host scheduling, frequency scaling), which
    poisons A-then-B timing: A's minimum can come from a fast window and
    B's from a slow one, skewing their ratio either way.  Running one rep
    of every workload per round means each round samples the same machine
    state for all of them, so the minima — and any ratio taken between
    them — stay comparable.  When *results* is given it receives each
    workload's return value from the last round.
    """
    best = {name: float("inf") for name in fns}
    gc_was_enabled = gc.isenabled()
    for _ in range(max(1, repeats)):
        for name, fn in fns.items():
            gc.collect()
            gc.disable()
            try:
                t0 = time.perf_counter()
                value = fn()
                best[name] = min(best[name], time.perf_counter() - t0)
            finally:
                if gc_was_enabled:
                    gc.enable()
            if results is not None:
                results[name] = value
    return best


def write_bench_json(
    path: str,
    name: str,
    rows: List[Mapping[str, object]],
    metadata: Optional[Mapping[str, object]] = None,
    config: Optional[Mapping[str, object]] = None,
) -> None:
    """Write one ``BENCH_*.json`` payload to *path*, stamping
    ``metadata.provenance``: where the numbers came from (host core count,
    git revision of the code, Python version) and the suite's *config*."""
    provenance = {
        "cpu_count": os.cpu_count(),
        "git_rev": git_revision(),
        "python": platform.python_version(),
        "config": dict(config or {}),
    }
    payload = {
        "bench": name,
        "metadata": {**(metadata or {}), "provenance": provenance},
        "rows": [dict(r) for r in rows],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_bench_json(path: str) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# The bench-perf suites
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchSuite:
    """One ``repro bench-perf`` suite.

    ``run`` names the run function as ``module:function`` within this
    package; it is imported only when the suite runs.  It is called with
    ``sizes``, ``workload``, the ``constants`` and whichever of the
    runner's settings (``repeats``, ``work_dir``) ``settings`` lists, and
    returns ``(rows, metadata)`` with a ``headline`` dict in the metadata,
    which ``headline`` renders as one line.  The suite writes
    ``BENCH_<bench>.json``.
    """

    run: str
    bench: str
    workload: str
    sizes: Tuple[int, ...]
    headline: Callable[[Mapping[str, object]], str]
    settings: Tuple[str, ...] = ("repeats",)
    constants: Mapping[str, object] = field(default_factory=dict)

    @property
    def output(self) -> str:
        return f"BENCH_{self.bench}.json"

    def function(self) -> Callable[..., Tuple[List[dict], Dict[str, object]]]:
        module, name = self.run.split(":")
        return getattr(importlib.import_module(f".{module}", __package__), name)


def _perf_headline(h: Mapping[str, object]) -> str:
    return f"largest size {h['size']}: F3M runs at {h['speedup_vs_hyfm']:.2f}x HyFM's speed"


def _attempts_headline(h: Mapping[str, object]) -> str:
    return (
        f"largest size {h['size']}: "
        f"bounded_identical={h['bounded_identical']}, "
        f"cached_identical={h['cached_identical']}, "
        f"bound_sound={h['bound_sound']}"
    )


def _scale_headline(h: Mapping[str, object]) -> str:
    return (
        f"largest size {h['largest_size']}: "
        f"store peak RSS {h['store_peak_rss_kb']} kB vs "
        f"in-RAM {h['inram_peak_rss_kb']} kB (ratio {h['rss_ratio']:.2f}), "
        f"fingerprints_bit_identical={h['fingerprints_bit_identical']}, "
        f"decisions_identical={h['decisions_identical']}"
    )


def _serve_headline(h: Mapping[str, object]) -> str:
    return (
        f"largest size {h['largest_size']}: "
        f"warm daemon {h['warm_speedup']:.1f}x vs cold one-shot "
        f"(pipeline-warm {h['pipeline_speedup']:.1f}x), "
        f"delta update {h['delta_speedup']:.1f}x vs full rebuild, "
        f"decisions_identical={h['decisions_identical']}, "
        f"serial_identical={h['serial_identical']}, "
        f"rebuild_agreement={h['rebuild_agreement']:.3f}"
    )


def _reconcile_headline(h: Mapping[str, object]) -> str:
    return (
        f"largest size {h['largest_size']}: "
        f"{h['recovered_pairs']} cross-partition pairs recovered, "
        f"size delta {h['recovered_size_delta']} bytes "
        f"({h['extra_reduction']:.2%} extra reduction over partition-local), "
        f"decisions_deterministic={h['decisions_deterministic']}, "
        f"phase1_size_identical={h['phase1_size_identical']}"
    )


BENCH_SUITES: Dict[str, BenchSuite] = {
    "perf": BenchSuite(
        "profile:run_perf_bench", "f3m_perf", "perf", (100, 500, 1000), _perf_headline
    ),
    "attempts": BenchSuite(
        "profile:run_attempt_bench", "attempt_perf", "perf", (200, 600, 2000),
        _attempts_headline,
    ),
    "scale": BenchSuite(
        "scale:run_scale_bench", "scale", "scale", (2000, 20000, 200000),
        _scale_headline,
        settings=("work_dir",),
        constants={"chunk": 2000},
    ),
    "serve": BenchSuite(
        "serve_bench:run_serve_bench", "serve", "serve", (2000, 20000),
        _serve_headline,
        constants={"delta_fraction": 0.01},
    ),
    "reconcile": BenchSuite(
        "reconcile_bench:run_reconcile_bench", "reconcile", "reconcile", (48, 96),
        _reconcile_headline,
        constants={"partitions": 4},
    ),
}


def run_suite(
    name: str,
    sizes: Optional[Sequence[int]] = None,
    repeats: int = 3,
    output: Optional[str] = None,
    work_dir: Optional[str] = None,
) -> Tuple[str, Dict[str, object]]:
    """Run suite *name* and write its ``BENCH_*.json``.

    ``sizes`` and ``output`` default to the suite's own.  Returns the
    path written and the run's metadata.
    """
    suite = BENCH_SUITES[name]
    settings = {"repeats": repeats, "work_dir": work_dir}
    config: Dict[str, object] = {
        "suite": name,
        "sizes": list(sizes or suite.sizes),
        "workload": suite.workload,
        **suite.constants,
        **{key: settings[key] for key in suite.settings},
    }
    kwargs = {key: value for key, value in config.items() if key != "suite"}
    rows, metadata = suite.function()(**kwargs)
    output = output or suite.output
    write_bench_json(output, suite.bench, rows, metadata, config)
    return output, metadata
