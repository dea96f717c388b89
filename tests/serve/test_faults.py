"""Serve-stage fault containment: mid-commit crashes and client vanishing."""

from __future__ import annotations

import io

import pytest

from repro.faults import (
    FAULT_STAGES,
    SERVE_FAULT_STAGES,
    WORKER_FAULT_STAGES,
    FaultInjector,
    InjectedFault,
)
from repro.harness.serve_bench import build_delta_text
from repro.serve import (
    FingerprintDatabase,
    ServeClient,
    ServeConfig,
    ServeDaemon,
    ServeError,
    decode_message,
    encode_message,
    serve_stdio,
)


class TestStageRegistry:
    def test_serve_stages_are_separate_from_pipeline_stages(self):
        assert SERVE_FAULT_STAGES == ("serve_commit", "serve_disconnect")
        assert not set(SERVE_FAULT_STAGES) & set(FAULT_STAGES)
        assert not set(SERVE_FAULT_STAGES) & set(WORKER_FAULT_STAGES)

    def test_injector_accepts_serve_stages(self):
        injector = FaultInjector.parse("serve_commit:2")
        assert injector.stage == "serve_commit"
        assert injector.at == 2
        injector.hit("serve_commit")  # first hit: no fire
        with pytest.raises(InjectedFault):
            injector.hit("serve_commit")


class TestServeCommit:
    def test_mid_commit_fault_rolls_back_to_pre_request_snapshot(self, corpus_text):
        """The fault fires after the corpus module was mutated and part of
        the index update applied; everything must roll back."""
        faults = FaultInjector("serve_commit", at=2)
        db = FingerprintDatabase(faults=faults)
        db.apply_delta(module_text=corpus_text)

        pre_version = db.version
        pre_text = db.dump()
        pre_snapshot = db.snapshot
        pre_answer = db.query(name="fam0.base", limit=5)

        delta_text, changed = build_delta_text(db.module, 0.15, seed=31)
        with pytest.raises(InjectedFault):
            db.apply_delta(module_text=delta_text)

        assert db.rollbacks == 1
        assert db.version == pre_version
        assert db.snapshot is pre_snapshot  # nothing was published
        assert db.dump() == pre_text  # module rolled back byte-identically
        assert db.query(name="fam0.base", limit=5) == pre_answer

        # The daemon keeps serving: the same delta now commits (the
        # injector only fires on hit 2).
        result = db.apply_delta(module_text=delta_text)
        assert result["version"] == pre_version + 1
        assert result["changed"] == sorted(changed)

    def test_daemon_reports_fault_and_keeps_serving(self, corpus_text):
        faults = FaultInjector("serve_commit", at=2)
        daemon = ServeDaemon(ServeConfig(), faults=faults)
        client = ServeClient(daemon=daemon)
        client.submit(module=corpus_text)
        delta_text, _ = build_delta_text(daemon.db.module, 0.1, seed=13)
        with pytest.raises(ServeError) as excinfo:
            client.submit(module=delta_text)
        assert excinfo.value.kind == "InjectedFault"
        # Subsequent requests succeed against the pre-fault state.
        assert client.ping()["version"] == 1
        assert client.submit(module=delta_text)["version"] == 2


class TestServeDisconnect:
    def test_disconnect_drops_response_but_keeps_commit(self, corpus_text):
        """The client vanishes after a submit committed: its response is
        lost, the commit is not, and later requests are served normally."""
        faults = FaultInjector("serve_disconnect", at=2)
        daemon = ServeDaemon(ServeConfig(), faults=faults)
        requests = [
            {"id": 1, "op": "ping"},
            {"id": 2, "op": "submit", "module": corpus_text},  # response lost
            {"id": 3, "op": "ping"},
            {"id": 4, "op": "shutdown"},
        ]
        stdin = io.BytesIO(b"".join(encode_message(r) for r in requests))
        stdout = io.BytesIO()
        serve_stdio(daemon, stdin=stdin, stdout=stdout)
        responses = [
            decode_message(line)
            for line in stdout.getvalue().splitlines()
            if line.strip()
        ]
        assert [r["id"] for r in responses] == [1, 3, 4]
        # The dropped request's commit was already published.
        assert responses[1]["result"]["version"] == 1
        assert responses[1]["result"]["functions"] > 0


class TestServeCommitJournal:
    def test_rollback_restores_renamed_arguments_and_declarations(self):
        """A delta that renames a changed function's arguments and defines
        a function the corpus only declared must leave neither behind when
        its commit rolls back."""
        from repro.ir import print_module

        db = FingerprintDatabase(faults=FaultInjector("serve_commit", at=2))
        db.apply_delta(
            module_text="""
declare i32 @ext(i32)
define i32 @f(i32 %x) {
entry:
  %a = add i32 %x, 1
  %b = call i32 @ext(i32 %a)
  ret i32 %b
}
"""
        )
        before = print_module(db.module)
        with pytest.raises(InjectedFault):
            db.apply_delta(
                module_text="""
define i32 @f(i32 %q) {
entry:
  %a = mul i32 %q, 3
  ret i32 %a
}
define i32 @ext(i32 %z) {
entry:
  ret i32 %z
}
"""
            )
        assert print_module(db.module) == before
        assert db.module.get_function("ext").is_declaration
