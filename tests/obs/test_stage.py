"""The stage timer: one measurement feeds the stage table and the span.

The pipeline-level tests run traced passes and check, exactly (``==``, no
tolerance), that every stage span's duration is what the stage timer added
to the stage table, including for a stage a fault cut short.
"""

import pytest

from repro.faults import FaultInjector, InjectedFault
from repro.merge.report import ATTEMPT_STAGES, PASS_STAGES
from repro.obs import trace
from repro.obs.stage import StageContext, stage
from repro.obs.trace import Tracer
from tests.obs.traced_runs import faulted_pass, gated_pass, optimistic_run

#: Span names the stage timer opens inside an attempt.
ATTEMPT_SPANS = set(ATTEMPT_STAGES) | {"codegen.verify"}


@pytest.fixture(autouse=True)
def _no_active_tracer():
    trace.uninstall()
    yield
    trace.uninstall()


def _attempt_of(spans):
    """Span id -> the ``attempt`` span it runs under (None outside one)."""
    by_id = {sp.span_id: sp for sp in spans}

    def owner(sp):
        while sp is not None and sp.name != "attempt":
            sp = by_id.get(sp.parent_id)
        return sp

    return {sp.span_id: owner(by_id.get(sp.parent_id)) for sp in spans}


def _span_tables(spans):
    """Per finished ``attempt`` span (finish order), its stage spans'
    durations summed by name in finish order; plus the same table for the
    pass-level stage spans (set-up and remerge inserts), which run outside
    any attempt."""
    attempt_of = _attempt_of(spans)
    tables = {sp.span_id: {} for sp in spans if sp.name == "attempt"}
    outside = {}
    for sp in spans:
        att = attempt_of[sp.span_id]
        if att is not None and sp.name in ATTEMPT_SPANS:
            table = tables[att.span_id]
        elif att is None and sp.name in PASS_STAGES:
            table = outside
        else:
            continue
        table[sp.name] = table.get(sp.name, 0.0) + sp.duration
    attempts = [sp for sp in spans if sp.name == "attempt"]
    return [(sp, tables[sp.span_id]) for sp in attempts], outside


class TestStagePrimitive:
    def test_records_without_a_tracer(self):
        ctx = StageContext()
        with stage(ctx, "align"):
            pass
        with stage(ctx, "align"):
            pass
        assert ctx.stage == "align"
        assert set(ctx.stage_times) == {"align"}
        assert ctx.stage_times["align"] >= 0.0

    def test_span_closes_with_the_recorded_measurement(self):
        ctx = StageContext()
        tracer = Tracer()
        with tracer.install():
            with stage(ctx, "bound", kind="unit"):
                pass
        (sp,) = tracer.finished()
        assert sp.name == "bound" and sp.attrs == {"kind": "unit"}
        assert sp.duration == ctx.stage_times["bound"]

    def test_body_exception_still_recorded(self):
        ctx = StageContext()
        tracer = Tracer()
        with tracer.install(), pytest.raises(KeyError):
            with stage(ctx, "commit"):
                raise KeyError("x")
        (sp,) = tracer.finished()
        assert sp.error and sp.error_type == "KeyError"
        assert sp.duration == ctx.stage_times["commit"]
        assert ctx.stage == "commit"

    def test_fault_on_entry_closes_span_and_records(self):
        ctx = StageContext()
        tracer = Tracer()
        ran = []
        with tracer.install(), pytest.raises(InjectedFault):
            with stage(ctx, "align", FaultInjector("align")):
                ran.append(True)
        assert not ran
        (sp,) = tracer.finished()
        assert sp.error and sp.error_type == "InjectedFault"
        assert sp.duration == ctx.stage_times["align"]
        assert tracer.current() is None

    def test_sub_stage_uses_its_part_for_ctx_and_fault(self):
        ctx = StageContext()
        with pytest.raises(InjectedFault) as info:
            with stage(ctx, "codegen"):
                with stage(ctx, "codegen.verify", FaultInjector("verify")):
                    pass
        assert info.value.fault_stage == "verify"
        assert ctx.stage == "verify"
        assert set(ctx.stage_times) == {"codegen", "codegen.verify"}


class TestSpansEqualStageTables:
    def test_gated_pass_every_attempt_exact(self):
        report, spans = gated_pass()
        attempts, pass_level = _span_tables(spans)
        assert len(attempts) == len(report.attempts)
        for (att_span, from_spans), record in zip(attempts, report.attempts):
            assert att_span.attrs["fn"] == record.function
            assert from_spans == record.stage_times, record.function
        assert pass_level == report.stage_times
        assert set(pass_level) == set(PASS_STAGES)
        # One insert span per merged function filed for remerging.
        inserts = [sp for sp in spans if sp.name == "insert"]
        assert len(inserts) == report.merges > 0
        # Every gate ran somewhere, so every stage was checked.
        seen = set().union(*(r.stage_times for r in report.attempts))
        assert seen == ATTEMPT_SPANS

    def test_faulted_stage_keeps_partial_time(self):
        report, spans = faulted_pass()
        attempts, _ = _span_tables(spans)
        failed = [
            (sp, table, rec)
            for (sp, table), rec in zip(attempts, report.attempts)
            if rec.error == "verify:InjectedFault"
        ]
        assert len(failed) == 1
        att_span, from_spans, record = failed[0]
        assert from_spans == record.stage_times
        assert record.stage_times["codegen"] > 0.0
        assert "profitability" not in record.stage_times
        attempt_of = _attempt_of(spans)
        errored = {
            sp.name for sp in spans if sp.error and attempt_of[sp.span_id] is att_span
        }
        assert errored == {"codegen", "codegen.verify"}

    def test_reconcile_phases_exact(self):
        report, spans = optimistic_run()
        phases = {}
        for sp in spans:
            if sp.name in ("partition", "reconcile"):
                phases[sp.name] = phases.get(sp.name, 0.0) + sp.duration
        assert phases == report.stage_times
        assert report.total_time == sum(phases.values())
