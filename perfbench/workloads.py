"""The benchmark's workloads: inputs made from a seed, measured operations,
and a check of every output.

``merge`` times ``repro merge`` from IR text to IR text on a module generated
from its own seed: read the file, parse and verify it, run the merging pass,
verify the result, print it and write it out -- the steps of ``python -m
repro merge IN -s STRATEGY -o OUT``.  Each module is merged twice, back to
back and in alternating order: with F3M's MinHash/LSH ranker (the system
measured) and with HyFM's exhaustive ranker (the paper's baseline).

``serve-churn`` drives a merge daemon through its line-JSON protocol.
Set-up starts the daemon, submits a fixed corpus and merges it once, which
fills the daemon's caches.  Each operation is one churn step, drawn from
the seed: submit a delta that rewrites 1% of the corpus, adds a few
functions, and undoes what the step two before it rewrote and added, then
merge the corpus.  The corpus text changes every
step, so the merge runs the pipeline on warm fingerprint and alignment
caches but never hits the daemon's whole-result cache.  The baseline is a
one-shot merge of the same post-delta corpus, as a user without the daemon
would run it.

Every operation except the daemon's runs in a forked child of the
benchmark process, so nothing one merge caches in memory can serve another.
Right before each timed step the benchmark measures the host's speed
(``calibration.py``); times are reported rescaled to a reference host.
Every merged module of the system measured is checked against its input by
interpretation: the ``driver`` entry point and a seeded sample of functions
must return the same values, or trap the same way, before and after
merging.  The daemon's merged text must also equal the one-shot merge's,
which the daemon guarantees.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from calibration import host_speed, rescaled
from layers import layer_seconds
from repro.ir.clone import clone_function
from repro.ir.function import Function
from repro.ir.interp import FuelExhausted, Interpreter
from repro.ir.module import Module
from repro.ir.parser import parse_module
from repro.ir.printer import print_function, print_module
from repro.ir.types import FloatType, IntType
from repro.ir.verifier import verify_module
from repro.merge.pass_ import FunctionMergingPass, PassConfig
from repro.obs.trace import Tracer
from repro.search.pairing import ExhaustiveRanker, MinHashLSHRanker
from repro.serve import db as serve_db
from repro.serve.config import ServeConfig
from repro.serve.daemon import ServeDaemon
from repro.serve.protocol import decode_message, encode_message
from repro.workloads.mutate import make_variant
from repro.workloads.suites import WorkloadConfig, build_workload

#: Functions per merged module and in the daemon's corpus.  Large enough
#: that one merge makes a hundred pipeline attempts, small enough for a
#: run to take a steady median over a few dozen operations.
FUNCTIONS = 200
#: Share of the corpus each churn step rewrites, and functions it adds.
CHURN_FRACTION = 0.01
CHURN_ADDED = 3
#: Set-ups per run; the median is reported.
SETUP_REPEATS = 5
#: Argument vectors each check tries on every function merging rewrote.
ARGUMENT_VECTORS = 3
FUEL = 200_000


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


@contextmanager
def _spans_around(tracer, namespace, spans: Dict[str, str]):
    """While tracing, open a span around every call the program makes to
    ``namespace.<name>``, for each name -> span in *spans*."""
    saved = {name: getattr(namespace, name, None) for name in spans}
    saved = {name: fn for name, fn in saved.items() if fn is not None}
    if tracer is None or not saved:
        yield
        return

    def wrap(fn, span):
        def spanned(*args, **kwargs):
            with tracer.span(span):
                return fn(*args, **kwargs)

        return spanned

    for name, fn in saved.items():
        setattr(namespace, name, wrap(fn, spans[name]))
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(namespace, name, fn)


def _traced(trace: bool, fn: Callable[[Optional[Tracer]], Dict[str, object]]):
    """Run ``fn(tracer)``; when tracing, under an installed tracer whose
    spans are folded into ``result["layers"]``."""
    if not trace:
        return fn(None)
    tracer = Tracer(maxlen=1 << 22)
    with tracer.install():
        result = fn(tracer)
    result["layers"] = layer_seconds(tracer.finished())
    return result


def isolated(fn: Callable[..., Dict[str, object]], *args) -> Dict[str, object]:
    """Run ``fn(*args)`` in a forked child and return its JSON result.

    The child starts from the benchmark's memory and takes nothing back to
    it, so a cache the program fills during one operation is gone for the
    next.  An exception in the child comes back as ``{"error": ...}``.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 0
        try:
            os.close(read_fd)
            try:
                result = fn(*args)
            except Exception as exc:
                result = {"error": repr(exc)}
            with os.fdopen(write_fd, "w", encoding="utf-8") as handle:
                json.dump(result, handle)
        except BaseException:
            code = 1
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "r", encoding="utf-8") as handle:
        payload = handle.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not payload:
        return {"error": f"operation process ended with status {status}"}
    return json.loads(payload)


def _module_seed(seed: int, index: int) -> int:
    return (seed * 1_000_003 + index * 7919 + 0xF3A) & 0x7FFFFFFF


def instruction_count(text: str) -> int:
    """Instructions in printed IR: the indented lines of function bodies."""
    return sum(1 for line in text.splitlines() if line.startswith("  "))


def import_seconds(root: str) -> float:
    """Wall-clock of a fresh interpreter importing the command-line entry
    point, which every one-shot ``repro`` invocation pays before work."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import repro.cli"], cwd=root, env=env, check=True
    )
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# Output check
# ---------------------------------------------------------------------------


def _arguments(func: Function, rng: random.Random) -> Optional[List[object]]:
    args: List[object] = []
    for param in func.ftype.params:
        if isinstance(param, IntType):
            top = (1 << param.bits) - 1
            pool = [0, 1, 2, 3, 7 & top, top, top >> 1]
            args.append(
                rng.choice(pool)
                if rng.random() < 0.6
                else rng.randrange(0, 1 << min(param.bits, 16))
            )
        elif isinstance(param, FloatType):
            args.append(rng.choice([0.0, 1.0, -1.0, 2.5, 0.5, 100.0]))
        else:
            return None
    return args


def _run(module: Module, name: str, args: Sequence[object]) -> Tuple[str, object]:
    try:
        value = Interpreter(fuel=FUEL).run(module.get_function(name), list(args))
    except FuelExhausted:
        return "fuel", None
    except Exception as exc:  # a trap is an outcome to compare, not a failure
        return "trap", type(exc).__name__
    return "value", value.value


def _same(a: Tuple[str, object], b: Tuple[str, object]) -> bool:
    if a[0] != b[0]:
        return False
    x, y = a[1], b[1]
    return x == y or (x != x and y != y)  # NaN == NaN here


def same_behaviour(before_text: str, after: Module, seed: int) -> bool:
    """The merged module verifies and behaves like its input on the
    ``driver`` entry point and on every function merging rewrote, each
    called with a few seeded argument vectors.

    The merged module is checked as the program built it, not re-parsed
    from its text: a function merged twice can print two definitions of one
    local name, and such text does not parse.
    """
    before = parse_module(before_text, name="before")
    verify_module(after)
    rng = random.Random(seed)
    rewritten = []
    for func in before.defined_functions():
        twin = after.get_function(func.name)
        if twin is not None and not twin.is_declaration:
            if print_function(twin) != print_function(func):
                rewritten.append(func.name)
    compared = 0
    for name in ["driver"] + rewritten:
        for _ in range(ARGUMENT_VECTORS):
            args = _arguments(before.get_function(name), rng)
            if args is None:
                break
            expected = _run(before, name, args)
            if expected[0] == "fuel":
                continue
            if not _same(expected, _run(after, name, args)):
                return False
            compared += 1
    return compared > 0


# ---------------------------------------------------------------------------
# merge: F3M against HyFM, text to text
# ---------------------------------------------------------------------------


def _ranker(strategy: str):
    return ExhaustiveRanker() if strategy == "hyfm" else MinHashLSHRanker()


def _merge(text: str, strategy: str, tracer=None):
    """IR text in, merged module and its text out, as ``repro merge`` does."""
    with _span(tracer, "bench.parse"):
        module = parse_module(text, name="input")
    with _span(tracer, "bench.verify"):
        verify_module(module)
    report = FunctionMergingPass(_ranker(strategy), PassConfig()).run(module)
    with _span(tracer, "bench.verify"):
        verify_module(module)
    with _span(tracer, "bench.print"):
        merged = print_module(module)
    return report, module, merged


def _merge_file(
    in_path: str, out_path: str, strategy: str, check_seed: Optional[int], trace: bool
) -> Dict[str, object]:
    """One file-to-file merge, then the check of its output (untimed)
    unless *check_seed* is None."""

    def op(tracer) -> Dict[str, object]:
        start = time.perf_counter()
        with _span(tracer, "bench.op"):
            with _span(tracer, "bench.read"):
                with open(in_path, "r", encoding="utf-8") as handle:
                    text = handle.read()
            report, module, merged = _merge(text, strategy, tracer)
            with _span(tracer, "bench.write"):
                with open(out_path, "w", encoding="utf-8") as handle:
                    handle.write(merged)
        seconds = time.perf_counter() - start
        return {
            "seconds": seconds,
            "attempts": len(report.attempts),
            "merges": report.merges,
            "comparisons": report.comparisons,
            "size_before": instruction_count(text),
            "size_after": instruction_count(merged),
            "ok": check_seed is None or same_behaviour(text, module, check_seed),
        }

    return _traced(trace, op)


class MergeWorkload:
    """Text-to-text ``repro merge``: F3M measured, HyFM as the baseline."""

    def __init__(self, root: str, seed: int) -> None:
        self.root = root
        self.seed = seed
        self.workdir = os.path.join(root, ".perfbench", f"merge-{os.getpid()}")
        self.index = 0

    def setup(self) -> float:
        os.makedirs(self.workdir, exist_ok=True)
        times = []
        for _ in range(SETUP_REPEATS):
            speed = host_speed()
            times.append(rescaled(import_seconds(self.root), speed))
        return statistics.median(times)

    def prepare(self) -> str:
        """Write the next operation's input module; returns its path."""
        self.index += 1
        config = WorkloadConfig(seed=_module_seed(self.seed, self.index))
        module = build_workload(FUNCTIONS, f"m{self.index}", config)
        path = os.path.join(self.workdir, "in.ll")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(print_module(module))
        return path

    def measure(self, path: str, trace: bool) -> Dict[str, object]:
        out_path = os.path.join(self.workdir, "out.ll")
        check_seed = _module_seed(self.seed, -self.index)
        if trace:
            return isolated(_merge_file, path, out_path, "f3m", check_seed, True)
        # Alternate which strategy runs first, so neither always runs in
        # the other's wake.
        order = ("f3m", "hyfm") if self.index % 2 else ("hyfm", "f3m")
        # Only the system's output is checked; the baseline is timed.
        seeds = {"f3m": check_seed, "hyfm": None}
        runs = {}
        for strategy in order:
            speed = host_speed()
            runs[strategy] = isolated(
                _merge_file, path, out_path, strategy, seeds[strategy], False
            )
            runs[strategy]["speed"] = speed
        system, baseline = runs["f3m"], runs["hyfm"]
        for run in runs.values():
            if "error" in run:
                return run
        system["baseline_seconds"] = rescaled(baseline["seconds"], baseline["speed"])
        return system

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.workdir))
        except OSError:
            pass  # another run's files are still there


# ---------------------------------------------------------------------------
# serve-churn: a warm daemon absorbing small deltas
# ---------------------------------------------------------------------------


def _declare_callees(module: Module) -> None:
    """Declare every function *module*'s bodies call but do not define, so
    its text parses stand-alone."""
    for func in list(module.functions):
        for inst in func.instructions():
            for operand in inst.operands:
                if isinstance(operand, Function) and module.get_function(operand.name) is None:
                    module.declare_function(operand.ftype, operand.name)


def _merge_text(text: str) -> Dict[str, object]:
    """The one-shot baseline: ``repro merge -s f3m`` on *text*, in memory."""
    start = time.perf_counter()
    merged = _merge(text, "f3m")[2]
    return {"seconds": time.perf_counter() - start, "module": merged}


class ServeChurnWorkload:
    """A warm daemon absorbing small corpus deltas, merging after each."""

    def __init__(self, root: str, seed: int) -> None:
        self.root = root
        self.seed = seed
        # One fixed corpus, the generator's default, as a daemon serving one
        # code base would hold; the seed picks the edits made to it.
        self.corpus = build_workload(FUNCTIONS, "corpus")
        self.corpus_text = print_module(self.corpus)
        self.names = sorted(
            f.name for f in self.corpus.defined_functions() if f.name != "driver"
        )
        self.daemon: Optional[ServeDaemon] = None
        self.step = 0
        #: Step -> corpus functions it rewrote and has not yet restored.
        self.rewritten: Dict[int, List[str]] = {}
        self.request_id = 0

    def _request(self, daemon: ServeDaemon, message: Dict[str, object], tracer=None):
        """One request through the protocol's wire format, as the daemon's
        stdio transport serves it: decode the line, handle, encode."""
        self.request_id += 1
        line = encode_message(dict(message, id=self.request_id))
        with _span(tracer, "bench.decode"):
            request = decode_message(line)
        response = daemon.handle(request)
        with _span(tracer, "bench.encode"):
            reply = encode_message(response)
        response = decode_message(reply)
        if not response.get("ok"):
            raise RuntimeError(f"daemon refused {message['op']}: {response.get('error')}")
        return response["result"]

    def setup(self) -> float:
        """Import, daemon start and corpus submit, then one merge that fills
        the daemon's caches; the caches are what later steps run warm on."""
        times = []
        for _ in range(SETUP_REPEATS):
            speed = host_speed()
            imported = import_seconds(self.root)
            start = time.perf_counter()
            daemon = ServeDaemon(ServeConfig())
            self._request(daemon, {"op": "submit", "module": self.corpus_text})
            self._request(daemon, {"op": "merge", "corpus": True})
            seconds = imported + time.perf_counter() - start
            times.append(rescaled(seconds, speed))
            self.daemon = daemon
        return statistics.median(times)

    def prepare(self) -> Dict[str, object]:
        """The next churn step's submit request.  Edits are undone two
        steps later, so the corpus stays within a few functions of the
        fixed one and every step merges a corpus of the same kind."""
        self.step += 1
        rng = random.Random(_module_seed(self.seed, self.step))
        delta = Module("delta")
        restored = self.rewritten.pop(self.step - 2, [])
        for name in restored:
            clone_function(self.corpus.get_function(name), name, delta)
        busy = set(restored).union(*self.rewritten.values())
        count = max(1, int(len(self.names) * CHURN_FRACTION))
        picked = rng.sample([name for name in self.names if name not in busy], count)
        self.rewritten[self.step] = picked
        for name in picked:
            make_variant(self.corpus.get_function(name), name, rng, 2, delta)
        for j in range(CHURN_ADDED):
            base = self.corpus.get_function(rng.choice(self.names))
            make_variant(base, f"churn{self.step}.{j}", rng, 3, delta)
        for func in delta.defined_functions():
            func.uniquify_names()  # mutation can repeat a local name
        _declare_callees(delta)
        submit: Dict[str, object] = {"op": "submit", "module": print_module(delta)}
        if self.step > 2:
            submit["removed"] = [f"churn{self.step - 2}.{j}" for j in range(CHURN_ADDED)]
        return submit

    def _step(self, submit: Dict[str, object], tracer) -> Dict[str, object]:
        # The daemon answers with the merged module's text only; keep the
        # module it printed last, which is the merged one, for the check.
        printed: List[Module] = []
        real_print = serve_db.print_module

        def capture(module: Module) -> str:
            printed.append(module)
            return real_print(module)

        # The daemon parses, verifies and prints inside its requests; the
        # benchmark can only span those calls from the outside.
        inner = {
            "parse_module": "bench.parse",
            "verify_module": "bench.verify",
            "print_module": "bench.print",
        }
        serve_db.print_module = capture
        try:
            with _spans_around(tracer, serve_db, inner):
                start = time.perf_counter()
                with _span(tracer, "bench.op"):
                    self._request(self.daemon, submit, tracer)
                    result = self._request(
                        self.daemon, {"op": "merge", "corpus": True}, tracer
                    )
                seconds = time.perf_counter() - start
        finally:
            serve_db.print_module = real_print
        if result.get("cached"):
            raise RuntimeError("merge was served from the daemon's result cache")
        corpus = self._request(self.daemon, {"op": "dump"})["module"]
        return {
            "seconds": seconds,
            "attempts": sum(result["outcomes"].values()),
            "merges": result["merges"],
            "comparisons": result["comparisons"],
            "size_before": instruction_count(corpus),
            "size_after": instruction_count(result["module"]),
            "ok": same_behaviour(corpus, printed[-1], _module_seed(self.seed, -self.step)),
            "corpus": corpus,
            "merged": result["module"],
        }

    def measure(self, submit: Dict[str, object], trace: bool) -> Dict[str, object]:
        speed = None if trace else host_speed()
        result = _traced(trace, lambda tracer: self._step(submit, tracer))
        result["speed"] = speed
        corpus, merged = result.pop("corpus"), result.pop("merged")
        if not trace:
            speed = host_speed()
            baseline = isolated(_merge_text, corpus)
            if "error" in baseline:
                return baseline
            result["baseline_seconds"] = rescaled(baseline["seconds"], speed)
            result["ok"] = result["ok"] and baseline["module"] == merged
        return result

    def close(self) -> None:
        self.daemon = None


WORKLOADS = {
    "merge": MergeWorkload,
    "serve-churn": ServeChurnWorkload,
}
