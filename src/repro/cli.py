"""Command-line interface.

Drives the library end to end from a shell::

    python -m repro compile prog.mc -o prog.ll     # compile MiniC source
    python -m repro generate -n 500 -o prog.ll      # synthetic workload
    python -m repro stats prog.ll                   # module statistics
    python -m repro merge prog.ll -s f3m -o out.ll  # run function merging
    python -m repro lint prog.ll --json             # static analysis report
    python -m repro run out.ll --entry driver -a 5  # interpret an entry
    python -m repro compare -n 800                  # HyFM vs F3M shootout
"""

from __future__ import annotations

import argparse
import difflib
import json
import sys
from typing import Dict, List, Optional

from .analysis.size import module_size
from .diagnostics import Severity, has_errors
from .faults import FAULT_STAGES, FaultInjector
from .harness.bench import BENCH_SUITES, run_suite
from .harness.experiments import make_ranker
from .harness.table import format_outcome_table, format_table
from .ir.interp import Interpreter
from .ir.module import Module
from .ir.parser import parse_module
from .ir.printer import print_module
from .ir.verifier import verify_module
from .merge.pass_ import FunctionMergingPass, PassConfig
from .merge.identical import merge_identical_functions
from .obs import trace as obs_trace
from .obs.manifest import (
    build_merge_manifest,
    collect_pass_telemetry,
    diff_manifests,
    load_manifest,
    render_manifest,
    render_manifest_diff,
    save_manifest,
)
from .obs.metrics import Registry
from .staticcheck.checkers import all_checkers
from .staticcheck.lint import lint_module
from .transforms.pipeline import optimize_module
from .workloads.suites import build_workload

__all__ = ["main", "lint_main"]


def _load(path: str) -> Module:
    with open(path, "r", encoding="utf-8") as handle:
        module = parse_module(handle.read(), name=path)
    verify_module(module)
    return module


def _save(module: Module, path: Optional[str]) -> None:
    text = print_module(module)
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _cmd_generate(args: argparse.Namespace) -> int:
    module = build_workload(args.functions, name="generated")
    for func in module.defined_functions():
        func.uniquify_names()
    _save(module, args.output)
    print(
        f"generated {len(module.defined_functions())} functions, "
        f"{module.num_instructions} instructions, "
        f"{module_size(module)} modelled bytes",
        file=sys.stderr,
    )
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    from .frontend import compile_source
    from .transforms.mem2reg import promote_module

    with open(args.source, "r", encoding="utf-8") as handle:
        module = compile_source(handle.read(), module_name=args.source)
    if not args.no_mem2reg:
        promote_module(module)
    if args.optimize:
        optimize_module(module, drop_dead_functions=False)
    verify_module(module)
    _save(module, args.output)
    print(
        f"compiled {len(module.defined_functions())} functions, "
        f"{module.num_instructions} instructions",
        file=sys.stderr,
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    module = _load(args.module)
    defined = module.defined_functions()
    rows = [
        ("functions (defined)", len(defined)),
        ("functions (declared)", len(module) - len(defined)),
        ("instructions", module.num_instructions),
        ("basic blocks", sum(len(f.blocks) for f in defined)),
        ("modelled size (bytes)", module_size(module)),
    ]
    print(format_table(["metric", "value"], rows))
    return 0


def _traced(trace_path: Optional[str], run):
    """Call *run*, streaming its spans to *trace_path* when one is given."""
    if not trace_path:
        return run()
    with obs_trace.Tracer(sink=trace_path).install():
        return run()


def _emit_manifest(args: argparse.Namespace, manifest) -> None:
    manifest_path = args.manifest or "run-manifest.json"
    save_manifest(manifest, manifest_path)
    print(f"wrote manifest {manifest_path}", file=sys.stderr)
    if args.metrics:
        print(render_manifest(manifest), file=sys.stderr)


def _print_outcomes(reports) -> Dict[str, int]:
    """Print the outcome table summed over *reports* and every contained
    failure; returns the summed outcome counts."""
    outcomes: Dict[str, int] = {}
    for report in reports:
        for outcome, count in report.outcome_counts().items():
            outcomes[outcome] = outcomes.get(outcome, 0) + count
    print(format_outcome_table(outcomes), file=sys.stderr)
    for report in reports:
        for att in report.contained_failures():
            print(f"contained failure: @{att.function} ({att.error})", file=sys.stderr)
    return outcomes


def _merge_pass(args, module, config, faults, want_manifest):
    """One whole-module pass; returns its manifest when one is wanted."""
    ranker = make_ranker(args.strategy)
    registry = Registry() if want_manifest else None
    pass_ = FunctionMergingPass(ranker, config, faults=faults, metrics=registry)
    report = _traced(args.trace, lambda: pass_.run(module))
    print(report.summary(), file=sys.stderr)
    _print_outcomes([report])
    if not want_manifest:
        return None
    collect_pass_telemetry(pass_, report, registry)
    return build_merge_manifest(
        report, ranker, config, module, registry, module_name=args.module
    )


def _merge_partitioned(args, module, config, faults, want_manifest):
    """ThinLTO-style merging: partition-local passes, then with
    ``--reconcile`` the cross-partition phase; returns its manifest when
    one is wanted."""
    import dataclasses
    import functools
    import time

    from .merge.partitioned import partitioned_merging
    from .obs.manifest import RunManifest, git_revision, module_digest

    report = _traced(
        args.trace,
        lambda: partitioned_merging(
            module,
            args.partitions,
            functools.partial(make_ranker, args.strategy),
            config,
            reconcile=args.reconcile,
            faults=faults,
        ),
    )
    rc = report.reconcile
    print(
        f"partitioned merging ({args.partitions} partitions): "
        f"{report.merges} partition-local merges, size {report.size_before} -> "
        f"{report.size_after} ({report.size_reduction:.1%} reduction)",
        file=sys.stderr,
    )
    if rc is not None:
        print(
            f"reconcile: {rc.recovered_pairs} cross-partition pairs recovered "
            f"(+{rc.recovered_saving} bytes saved), "
            f"conflicts {rc.conflicts_resolved} resolved / "
            f"{rc.conflicts_skipped} skipped, "
            f"size {rc.size_phase1} -> {rc.size_after} "
            f"(recovered delta {rc.recovered_size_delta})",
            file=sys.stderr,
        )
    outcomes = _print_outcomes(report.reports)
    if not want_manifest:
        return None
    metrics: Dict[str, object] = {}
    if rc is not None:
        metrics["reconcile"] = {
            key: value
            for key, value in dataclasses.asdict(rc).items()
            if key not in ("partitions", "decisions")
        }
    return RunManifest(
        kind="partitioned",
        strategy=args.strategy,
        config={
            **dataclasses.asdict(config),
            "partitions": args.partitions,
            "reconcile": args.reconcile,
        },
        git_rev=git_revision(),
        created_unix=time.time(),
        module_name=args.module,
        module_digest=module_digest(module),
        functions=sum(part.num_functions for part in report.reports),
        merges=report.merges + (rc.recovered_pairs if rc is not None else 0),
        size_before=report.size_before,
        size_after=report.size_after,
        total_time=report.total_time,
        stages=dict(report.stage_times),
        outcomes=outcomes,
        metrics=metrics,
    )


def _cmd_merge(args: argparse.Namespace) -> int:
    module = _load(args.module)
    if args.strategy == "identical":
        report = merge_identical_functions(module)
        print(
            f"identical merging: {report.groups} groups, "
            f"{report.functions_removed} functions removed, "
            f"{report.call_sites_rewritten} call sites rewritten",
            file=sys.stderr,
        )
    else:
        config = PassConfig(
            threshold=args.threshold,
            verify=not args.no_verify,
            static_check=args.static_check,
            validate=args.validate,
            oracle=args.oracle,
            on_error=args.on_error,
        )
        faults = (
            FaultInjector.parse(args.inject_fault) if args.inject_fault else None
        )
        # Observability: --trace streams spans to a JSONL file, --metrics
        # renders the run manifest to stderr; either one (or an explicit
        # --manifest PATH) also writes the manifest JSON.
        want_manifest = bool(args.metrics or args.manifest or args.trace)
        run = _merge_partitioned if args.partitions else _merge_pass
        manifest = run(args, module, config, faults, want_manifest)
        if manifest is not None:
            _emit_manifest(args, manifest)
    if args.optimize:
        optimize_module(module, drop_dead_functions=False)
    verify_module(module)
    _save(module, args.output)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    if args.list_checkers:
        rows = [(c.name, c.scope, c.description) for c in all_checkers()]
        print(format_table(["checker", "scope", "description"], rows))
        return 0
    if args.module is None:
        print("error: module path required (or --list-checkers)", file=sys.stderr)
        return 2
    # Parse without verifying: the linter is the judge here, and it must be
    # able to report on modules the verifier would reject.
    with open(args.module, "r", encoding="utf-8") as handle:
        module = parse_module(handle.read(), name=args.module)
    checkers = args.checkers.split(",") if args.checkers else None
    if checkers is not None:
        # Unknown checker names are a hard usage error, not a silent no-op:
        # a typo'd --checkers list would otherwise "pass" by running nothing.
        known = [c.name for c in all_checkers()]
        for name in checkers:
            if name not in known:
                hint = difflib.get_close_matches(name, known, n=1)
                suggestion = f" (did you mean {hint[0]!r}?)" if hint else ""
                print(
                    f"error: unknown checker {name!r}{suggestion}; "
                    f"known checkers: {', '.join(known)}",
                    file=sys.stderr,
                )
                return 2
    diagnostics = lint_module(module, checkers)
    if args.min_severity is not None:
        floor = Severity.parse(args.min_severity)
        diagnostics = [d for d in diagnostics if d.severity >= floor]
    if args.json:
        payload = {
            "module": args.module,
            "checkers": checkers or [c.name for c in all_checkers()],
            "diagnostics": [d.to_dict() for d in diagnostics],
            "counts": {
                str(severity): sum(1 for d in diagnostics if d.severity is severity)
                for severity in Severity
            },
        }
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        for diag in diagnostics:
            print(str(diag))
        errors = sum(1 for d in diagnostics if d.severity >= Severity.ERROR)
        warnings = sum(1 for d in diagnostics if d.severity == Severity.WARNING)
        print(
            f"{len(diagnostics)} diagnostics ({errors} errors, {warnings} warnings)",
            file=sys.stderr,
        )
    return 1 if has_errors(diagnostics) else 0


def _cmd_run(args: argparse.Namespace) -> int:
    module = _load(args.module)
    func = module.get_function(args.entry)
    if func is None or func.is_declaration:
        print(f"error: no defined function @{args.entry}", file=sys.stderr)
        return 1
    call_args: List[object] = []
    for raw, param in zip(args.args, func.ftype.params):
        call_args.append(float(raw) if param.is_float else int(raw))
    if len(call_args) != len(func.args):
        print(
            f"error: @{args.entry} takes {len(func.args)} arguments",
            file=sys.stderr,
        )
        return 1
    result = Interpreter(fuel=args.fuel).run(func, call_args)
    print(f"result: {result.value}")
    print(f"instructions executed: {result.instructions_executed}", file=sys.stderr)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    rows = []
    for strategy in ("hyfm", "f3m", "f3m-adaptive"):
        module = build_workload(args.functions, name="compare")
        ranker = make_ranker(strategy)
        report = FunctionMergingPass(ranker, PassConfig(verify=False)).run(module)
        rows.append(
            (
                strategy,
                f"{report.size_reduction:.2%}",
                report.merges,
                f"{report.comparisons:,}",
                f"{report.merge_time:.2f}s",
            )
        )
    print(
        format_table(
            ["strategy", "size reduction", "merges", "comparisons", "pass time"],
            rows,
        )
    )
    return 0


def _cmd_bench_perf(args: argparse.Namespace) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()] if args.sizes else None
    output, metadata = run_suite(
        args.suite,
        sizes=sizes,
        repeats=args.repeats,
        output=args.output,
        work_dir=args.scale_dir,
    )
    print(f"wrote {output}")
    print(BENCH_SUITES[args.suite].headline(metadata["headline"]))
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .fuzz import FuzzConfig, replay_campaign, replay_shapes, run_campaign
    from .obs.manifest import load_manifest as _load_manifest

    # --check: replay one minimized reproducer file (the .cmd contents).
    if args.check:
        with open(args.check, "r", encoding="utf-8") as handle:
            module = parse_module(handle.read(), name=args.check)
        verify_module(module)
        if not args.pair:
            print("error: --check requires --pair A,B", file=sys.stderr)
            return 2
        pair = args.pair.split(",")
        shapes = replay_shapes(module, pair, legacy_bugs=args.legacy_bugs)
        hit = args.shape in shapes if args.shape else bool(shapes)
        print(
            f"{args.check}: shapes={sorted(set(shapes))} "
            f"{'REPRODUCED' if hit else 'clean'}"
        )
        return 1 if hit else 0

    # --replay: re-run a recorded campaign's failing candidates.
    if args.replay:
        verdict = replay_campaign(_load_manifest(args.replay))
        print(json.dumps(verdict, indent=2, sort_keys=True))
        return 0 if verdict["reproduced"] else 1

    config = FuzzConfig(
        budget=args.budget,
        seed=args.seed,
        strategy=args.strategy,
        legacy_bugs=args.legacy_bugs,
        oracle_gate=not args.no_oracle_gate,
        static_gate=not args.no_static_gate,
        danger_bias=args.danger_bias,
        inject_fault=args.inject_fault,
        workers=args.workers,
        timeout=args.timeout,
        out_dir=args.out_dir,
    )
    campaign = run_campaign(config, manifest_path=args.manifest)
    triage = campaign.triage
    print(
        f"fuzz: {len(campaign.results)} candidates, "
        f"{triage.total_failures} failures, {triage.unique_bugs} unique bugs "
        f"(dedup {triage.dedup_rate:.0%}), "
        f"{len(campaign.quarantined)} quarantined"
    )
    for signature in campaign.signatures:
        reduction = campaign.reductions.get(signature.bug_id)
        minimized = (
            f", minimized to {reduction['instructions']} instructions"
            if reduction and reduction["reproduced"]
            else ""
        )
        print(
            f"  {signature.bug_id}: {signature.shape} "
            f"[{signature.stage}/{signature.outcome}] "
            f"x{signature.count}{minimized}"
        )
    if args.manifest:
        print(f"wrote manifest {args.manifest}", file=sys.stderr)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Render one run manifest as tables, or diff two."""
    manifest = load_manifest(args.manifest)
    if args.other is None:
        print(render_manifest(manifest))
        return 0
    other = load_manifest(args.other)
    ignore = tuple(p for p in (args.ignore or "").split(",") if p)
    diff = diff_manifests(manifest, other, rel_tol=args.rel_tol, ignore=ignore)
    print(render_manifest_diff(diff))
    return 1 if diff else 0


def _serve_config_from_args(args: argparse.Namespace):
    from .serve import ServeConfig

    compact_ratio = None
    if args.compact_ratio.lower() != "none":
        compact_ratio = float(args.compact_ratio)
    return ServeConfig(
        threshold=args.threshold,
        alignment=args.alignment,
        verify=not args.no_verify,
        compact_ratio=compact_ratio,
        max_functions=args.max_functions,
        result_cache_size=args.result_cache_size,
        store_dir=args.store_dir,
        manifest_dir=args.manifest_dir,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import ServeDaemon, serve_stdio, serve_unix

    faults = FaultInjector.parse(args.inject_fault) if args.inject_fault else None
    daemon = ServeDaemon(_serve_config_from_args(args), faults=faults)
    if args.stdio:
        serve_stdio(daemon)
    else:
        print(f"serving on {args.socket}", file=sys.stderr)
        serve_unix(daemon, args.socket)
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    from .serve import ServeClient, ServeError

    def read_arg_text(path: Optional[str]) -> Optional[str]:
        if path is None:
            return None
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()

    client = ServeClient.connect(args.socket)
    try:
        params: Dict[str, object] = {}
        if args.op == "submit":
            params["module"] = read_arg_text(args.module)
            params["removed"] = args.removed or None
        elif args.op == "query":
            params["name"] = args.name
            params["text"] = read_arg_text(args.module)
            params["limit"] = args.limit
        elif args.op == "merge":
            params["module"] = read_arg_text(args.module)
            params["corpus"] = args.corpus or None
            params["no_result_cache"] = args.no_result_cache or None
        elif args.op == "flush":
            params["directory"] = args.directory
        try:
            result = client.request(args.op, **params)
        except ServeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        json.dump(result, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    finally:
        client.close()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="F3M function merging (CGO 2022 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate a synthetic workload module")
    p_gen.add_argument("-n", "--functions", type=int, default=200)
    p_gen.add_argument("-o", "--output", default="-")
    p_gen.set_defaults(func=_cmd_generate)

    p_compile = sub.add_parser("compile", help="compile MiniC source to IR")
    p_compile.add_argument("source")
    p_compile.add_argument("-o", "--output", default="-")
    p_compile.add_argument("--no-mem2reg", action="store_true")
    p_compile.add_argument("--optimize", action="store_true")
    p_compile.set_defaults(func=_cmd_compile)

    p_stats = sub.add_parser("stats", help="print module statistics")
    p_stats.add_argument("module")
    p_stats.set_defaults(func=_cmd_stats)

    p_merge = sub.add_parser("merge", help="run function merging on a module")
    p_merge.add_argument("module")
    p_merge.add_argument(
        "-s",
        "--strategy",
        choices=["hyfm", "f3m", "f3m-adaptive", "identical"],
        default="f3m",
    )
    p_merge.add_argument("-t", "--threshold", type=float, default=0.0)
    p_merge.add_argument("-o", "--output", default="-")
    p_merge.add_argument("--optimize", action="store_true", help="run clean-up passes after merging")
    p_merge.add_argument("--no-verify", action="store_true")
    p_merge.add_argument(
        "--static-check",
        action="store_true",
        help="gate every commit with the static merge-safety linter",
    )
    p_merge.add_argument(
        "--validate",
        choices=["off", "observe", "gate"],
        default="off",
        help=(
            "run the translation validator on every merge: observe records "
            "the verdict, gate vetoes refuted merges and skips the oracle "
            "on proved ones"
        ),
    )
    p_merge.add_argument(
        "--oracle",
        action="store_true",
        help="gate every commit with the differential-execution oracle",
    )
    p_merge.add_argument(
        "--on-error",
        choices=["skip", "raise"],
        default="skip",
        help="contain unexpected merge failures (skip, default) or re-raise",
    )
    p_merge.add_argument(
        "--inject-fault",
        metavar="STAGE[:N]",
        help=(
            "deterministically fail at a pipeline stage "
            f"({'|'.join(FAULT_STAGES)}), optionally only on the N-th hit"
        ),
    )
    p_merge.add_argument(
        "--partitions",
        type=int,
        default=0,
        help=(
            "merge ThinLTO-style within N hash-assigned partitions instead "
            "of globally (0 = global, the default)"
        ),
    )
    p_merge.add_argument(
        "--reconcile",
        action="store_true",
        help=(
            "with --partitions: after the partition-local passes, re-rank "
            "survivors globally and merge the cross-partition pairs the "
            "partitions had to forgo (optimistic two-phase merging)"
        ),
    )
    p_merge.add_argument(
        "--trace",
        metavar="FILE.jsonl",
        help="stream pipeline spans to a JSONL trace file",
    )
    p_merge.add_argument(
        "--metrics",
        action="store_true",
        help="render the run manifest (metrics, stages, outcomes) to stderr",
    )
    p_merge.add_argument(
        "--manifest",
        metavar="FILE.json",
        help=(
            "write the run manifest JSON here (default run-manifest.json "
            "when --trace or --metrics is given)"
        ),
    )
    p_merge.set_defaults(func=_cmd_merge)

    p_lint = sub.add_parser("lint", help="run the static checkers on a module")
    p_lint.add_argument("module", nargs="?")
    p_lint.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable diagnostics on stdout",
    )
    p_lint.add_argument(
        "--checkers",
        metavar="A,B,...",
        help="comma-separated checker ids to run (default: all)",
    )
    p_lint.add_argument(
        "--min-severity",
        choices=["info", "warning", "error"],
        help="drop diagnostics below this severity",
    )
    p_lint.add_argument(
        "--list-checkers",
        action="store_true",
        help="list the registered checkers and exit",
    )
    p_lint.set_defaults(func=_cmd_lint)

    p_run = sub.add_parser("run", help="interpret a function in a module")
    p_run.add_argument("module")
    p_run.add_argument("--entry", default="driver")
    p_run.add_argument("-a", "--args", nargs="*", default=[])
    p_run.add_argument("--fuel", type=int, default=10_000_000)
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="HyFM vs F3M on a generated workload")
    p_cmp.add_argument("-n", "--functions", type=int, default=500)
    p_cmp.set_defaults(func=_cmd_compare)

    p_perf = sub.add_parser(
        "bench-perf",
        help="run one benchmark suite and write its BENCH_*.json",
    )
    p_perf.add_argument(
        "suite",
        nargs="?",
        default="perf",
        choices=list(BENCH_SUITES),
        help="suite to run (default: perf); see docs/benchmarks.md",
    )
    p_perf.add_argument(
        "--sizes",
        default=None,
        help="comma-separated workload sizes (default: the suite's own)",
    )
    p_perf.add_argument("--repeats", type=int, default=3, help="best-of-N timing runs")
    p_perf.add_argument(
        "--scale-dir",
        default=None,
        help="scale: working directory for stores (kept; default: temp, deleted)",
    )
    p_perf.add_argument(
        "-o", "--output", default=None, help="output file (default: the suite's own)"
    )
    p_perf.set_defaults(func=_cmd_bench_perf)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="run a differential-fuzzing campaign against the merge pipeline",
    )
    p_fuzz.add_argument("--budget", type=int, default=100, help="candidate modules to try")
    p_fuzz.add_argument("--seed", type=int, default=0, help="campaign seed")
    p_fuzz.add_argument(
        "-s",
        "--strategy",
        choices=["hyfm", "f3m", "f3m-adaptive"],
        default="hyfm",
    )
    p_fuzz.add_argument(
        "--legacy-bugs",
        action="store_true",
        help="fuzz the legacy (§III-E buggy) SSA-repair path",
    )
    p_fuzz.add_argument(
        "--no-oracle-gate",
        action="store_true",
        help="disable the differential-oracle commit gate",
    )
    p_fuzz.add_argument(
        "--no-static-gate",
        action="store_true",
        help="disable the static merge-safety commit gate",
    )
    p_fuzz.add_argument("--danger-bias", type=float, default=0.5)
    p_fuzz.add_argument("--workers", type=int, default=2, help="0 = in-process")
    p_fuzz.add_argument(
        "--timeout", type=float, default=30.0, help="per-candidate deadline (s)"
    )
    p_fuzz.add_argument(
        "--inject-fault",
        metavar="STAGE[:N]",
        help="pipeline stages as in merge, plus worker_crash:N / worker_hang:N",
    )
    p_fuzz.add_argument("--manifest", metavar="FILE.json")
    p_fuzz.add_argument(
        "--out-dir", metavar="DIR", help="write per-bug reproducers here"
    )
    p_fuzz.add_argument(
        "--replay",
        metavar="MANIFEST",
        help="re-run a recorded campaign's failing candidates",
    )
    p_fuzz.add_argument(
        "--check",
        metavar="FILE.ir",
        help="replay one reproducer module (exit 1 if the bug reproduces)",
    )
    p_fuzz.add_argument("--pair", metavar="A,B", help="function pair for --check")
    p_fuzz.add_argument("--shape", help="expected bug shape for --check")
    p_fuzz.set_defaults(func=_cmd_fuzz)

    p_serve = sub.add_parser(
        "serve",
        help="run the merge-as-a-service daemon (unix socket or stdio)",
    )
    p_serve.add_argument(
        "--socket",
        default="repro-serve.sock",
        help="unix domain socket path to listen on",
    )
    p_serve.add_argument(
        "--stdio",
        action="store_true",
        help="serve one client over stdin/stdout instead of a socket",
    )
    p_serve.add_argument("-t", "--threshold", type=float, default=0.0)
    p_serve.add_argument(
        "--alignment", choices=["linear", "nw"], default="linear"
    )
    p_serve.add_argument("--no-verify", action="store_true")
    p_serve.add_argument(
        "--compact-ratio",
        default="0.5",
        help=(
            "auto-compact the corpus index when tombstones exceed this "
            "fraction of live entries ('none' disables)"
        ),
    )
    p_serve.add_argument(
        "--max-functions",
        type=int,
        default=None,
        help="LRU-evict corpus functions beyond this count",
    )
    p_serve.add_argument(
        "--result-cache-size",
        type=int,
        default=64,
        help="merged-module result LRU entries",
    )
    p_serve.add_argument(
        "--store-dir",
        default=None,
        help="fingerprint store to warm from at startup / spill to on flush",
    )
    p_serve.add_argument(
        "--manifest-dir",
        default=None,
        help="write one kind=serve run manifest per request here",
    )
    p_serve.add_argument(
        "--inject-fault",
        metavar="STAGE[:N]",
        help="deterministically fail at a serve stage (serve_commit|serve_disconnect)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_client = sub.add_parser(
        "client", help="send one request to a running serve daemon"
    )
    p_client.add_argument(
        "op",
        choices=[
            "ping",
            "submit",
            "query",
            "merge",
            "dump",
            "stats",
            "flush",
            "compact",
            "shutdown",
        ],
    )
    p_client.add_argument(
        "--socket",
        default="repro-serve.sock",
        help="unix domain socket path of the daemon",
    )
    p_client.add_argument(
        "-m",
        "--module",
        default=None,
        help="IR module file ('-' for stdin): submit delta / merge input / query probe",
    )
    p_client.add_argument(
        "--removed",
        action="append",
        default=None,
        metavar="NAME",
        help="submit: corpus function to remove (repeatable)",
    )
    p_client.add_argument("--name", default=None, help="query: resident function name")
    p_client.add_argument("--limit", type=int, default=10, help="query: max matches")
    p_client.add_argument(
        "--corpus", action="store_true", help="merge: merge the resident corpus"
    )
    p_client.add_argument(
        "--no-result-cache",
        action="store_true",
        help="merge: bypass the merged-result cache",
    )
    p_client.add_argument(
        "--directory", default=None, help="flush: fingerprint store directory"
    )
    p_client.set_defaults(func=_cmd_client)

    p_report = sub.add_parser(
        "report",
        help="render a run manifest as tables, or diff two manifests",
    )
    p_report.add_argument("manifest", help="manifest JSON (repro merge --manifest)")
    p_report.add_argument(
        "other",
        nargs="?",
        help="second manifest: print the structural diff instead (exit 1 if any)",
    )
    p_report.add_argument(
        "--rel-tol",
        type=float,
        default=0.0,
        help="relative tolerance for numeric fields when diffing",
    )
    p_report.add_argument(
        "--ignore",
        metavar="PATH,PATH",
        help=(
            "comma-separated manifest paths to drop from the diff "
            "(e.g. created_unix,git_rev,stages,total_time,metrics)"
        ),
    )
    p_report.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


def lint_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``repro-lint`` console script."""
    args = list(sys.argv[1:] if argv is None else argv)
    return main(["lint"] + args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
