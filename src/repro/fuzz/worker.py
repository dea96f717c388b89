"""Crash-isolated evaluation workers.

The campaign must survive anything a candidate does to the process
evaluating it — a segfault-equivalent (``os._exit`` deep inside native
code), an unbounded loop the interpreter's fuel doesn't cover, an OOM
kill.  So evaluation runs in subprocess workers speaking a JSON-line
protocol::

    worker -> parent:  {"ready": true}\\n   (once, after its imports)
    parent -> worker:  {"config": {semantic fields...}, "index": 17}\\n
    worker -> parent:  {result of evaluate_candidate(...)}\\n

Requests are stateless (each line carries the full semantic config), so
a replacement worker needs no handshake beyond its ready line: kill,
respawn, resend.  The parent waits for the ready line before it sends a
request, so a request's deadline never covers interpreter start-up and
imports; end of file before the ready line counts as a crash.

Fault policy, per candidate:

* **crash or hang** (no reply line / deadline passed) → kill the worker,
  respawn, retry the candidate exactly once;
* **second failure** → the candidate is *quarantined*: recorded with
  status ``quarantined`` and skipped, the campaign continues.  A
  quarantined candidate never changes any other candidate's result —
  generation is a pure function of ``(seed, index)``.

Deterministic fault injection for tests rides the same config:
``inject_fault="worker_crash:N"`` makes the worker hard-exit *inside*
candidate ``N``'s evaluation; ``worker_hang:N`` makes it sleep past any
deadline.  Both fire by candidate index, so the quarantine path is
reproducible run to run.

If subprocess spawning itself fails (restricted environments), the pool
degrades gracefully to in-process evaluation — no isolation, same
results.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from queue import Empty, Queue
from typing import Dict, List, Optional

from ..faults import WORKER_FAULT_STAGES
from .config import FuzzConfig
from .generate import candidate_family
from .verify import evaluate_candidate

__all__ = ["WorkerPool", "run_pool", "worker_main"]

_CRASH_EXIT = 23  # distinctive status for injected crashes
_READY = {"ready": True}
# How long a new worker may take to start and import before it counts as
# hung; generous, since it only bounds a worker that will never answer.
_START_TIMEOUT = 120.0


def _parse_worker_fault(spec: Optional[str]):
    """``("worker_crash", 3)`` from ``"worker_crash:3"`` — else ``None``."""
    if not spec:
        return None
    stage, _, num = spec.partition(":")
    if stage not in WORKER_FAULT_STAGES:
        return None
    try:
        return stage, int(num)
    except ValueError:
        return stage, 0


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def worker_main(stdin=None, stdout=None) -> None:
    """Announce readiness, then serve evaluation requests until stdin
    closes (one JSON line each)."""
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    stdout.write(json.dumps(_READY) + "\n")
    stdout.flush()
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        request = json.loads(line)
        config = FuzzConfig.from_dict(request["config"])
        index = int(request["index"])

        fault = _parse_worker_fault(config.inject_fault)
        if fault is not None and fault[1] == index:
            if fault[0] == "worker_crash":
                os._exit(_CRASH_EXIT)
            time.sleep(3600)  # worker_hang: blow any sane deadline

        result = evaluate_candidate(config, index)
        stdout.write(json.dumps(result) + "\n")
        stdout.flush()


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


class _Worker:
    """One subprocess plus the bookkeeping to kill and replace it."""

    def __init__(self, worker_id: int):
        self.worker_id = worker_id
        self.proc: Optional[subprocess.Popen] = None

    def start(self) -> None:
        self.spawn()
        self.wait_ready()

    def spawn(self) -> None:
        src_root = str(Path(__file__).resolve().parents[2])
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.fuzz.worker"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            text=True,
        )

    def wait_ready(self) -> None:
        """Block until the worker has started; a worker that exits or hangs
        first is killed, so its first request fails like a crash."""
        if self.proc is not None and self._readline(_START_TIMEOUT) != _READY:
            self.kill()

    def _readline(self, timeout: float) -> Optional[Dict]:
        """The worker's next reply line, or ``None`` on EOF, a deadline
        passed or a line that is not JSON."""
        proc = self.proc
        assert proc is not None
        reply: List[Optional[str]] = [None]

        def _read():
            try:
                reply[0] = proc.stdout.readline()
            except (ValueError, OSError):
                pass

        reader = threading.Thread(target=_read, daemon=True)
        reader.start()
        reader.join(timeout)
        if reader.is_alive() or not reply[0]:
            return None  # hang (reader stuck) or crash (EOF)
        try:
            return json.loads(reply[0])
        except json.JSONDecodeError:
            return None

    def request(self, config: FuzzConfig, index: int, timeout: float) -> Optional[Dict]:
        """One request/reply round; ``None`` means the worker died or hung."""
        proc = self.proc
        if proc is None or proc.poll() is not None:
            return None
        try:
            proc.stdin.write(
                json.dumps({"config": config.semantic_dict(), "index": index}) + "\n"
            )
            proc.stdin.flush()
        except (BrokenPipeError, OSError):
            return None
        return self._readline(timeout)

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc = None

    def restart(self) -> None:
        self.kill()
        self.start()


class WorkerPool:
    """Fan candidate indices out to crash-isolated workers.

    Results come back as ``{index: result dict}``; quarantined candidates
    get a synthetic ``{"status": "quarantined", ...}`` entry so the
    manifest records them explicitly rather than silently dropping them.
    """

    def __init__(self, config: FuzzConfig):
        self.config = config
        self.results: Dict[int, Dict] = {}
        self.quarantined: List[int] = []
        self._lock = threading.Lock()

    # -- in-process fallback -----------------------------------------------------------
    def _run_inline(self, indices: List[int]) -> None:
        for index in indices:
            self.results[index] = evaluate_candidate(self.config, index)

    # -- subprocess path ---------------------------------------------------------------
    def _drain(self, worker: _Worker, queue: "Queue[int]") -> None:
        while True:
            try:
                index = queue.get_nowait()
            except Empty:
                return
            result = worker.request(self.config, index, self.config.timeout)
            if result is None:
                # First failure: replace the worker, retry once.
                worker.restart()
                result = worker.request(self.config, index, self.config.timeout)
            if result is None:
                worker.restart()
                with self._lock:
                    self.quarantined.append(index)
                    self.results[index] = {
                        "index": index,
                        "family": candidate_family(self.config.seed, index),
                        "status": "quarantined",
                        "merges": 0,
                        "failures": [],
                    }
            else:
                with self._lock:
                    self.results[index] = result

    def run(self, indices: List[int]) -> Dict[int, Dict]:
        """Evaluate every index; returns ``{index: result}`` (complete)."""
        if self.config.workers <= 0:
            self._run_inline(indices)
            return self.results

        workers = []
        try:
            for i in range(min(self.config.workers, max(1, len(indices)))):
                worker = _Worker(i)
                worker.spawn()
                workers.append(worker)
            # The workers start up side by side; none is sent a request
            # before it is ready.
            for worker in workers:
                worker.wait_ready()
        except (OSError, ValueError):
            for worker in workers:
                worker.kill()
            self._run_inline(indices)  # degraded: no isolation, same results
            return self.results

        queue: "Queue[int]" = Queue()
        for index in indices:
            queue.put(index)
        threads = [
            threading.Thread(target=self._drain, args=(w, queue), daemon=True)
            for w in workers
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for worker in workers:
            worker.kill()
        return self.results


def run_pool(config: FuzzConfig, indices: List[int]) -> WorkerPool:
    """Convenience wrapper: build, run, return the finished pool."""
    pool = WorkerPool(config)
    pool.run(indices)
    return pool


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    worker_main()
