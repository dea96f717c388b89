"""Tests for the span tracer: nesting, exception safety, bounds, the sink,
and the disabled fast path (which must allocate nothing)."""

import json
import tracemalloc

import pytest

from repro.obs import trace
from repro.obs.trace import NOOP_SPAN, Span, Tracer, load_trace, span_totals


@pytest.fixture(autouse=True)
def _no_active_tracer():
    """Every test starts and ends with tracing disabled."""
    trace.uninstall()
    yield
    trace.uninstall()


class TestSpanBasics:
    def test_records_name_attrs_duration(self):
        tracer = Tracer()
        with tracer.span("work", kind="unit") as sp:
            pass
        assert sp.name == "work"
        assert sp.attrs == {"kind": "unit"}
        assert sp.duration >= 0.0
        assert tracer.finished() == [sp]

    def test_set_adds_and_overwrites_attrs(self):
        tracer = Tracer()
        with tracer.span("work", a=1) as sp:
            sp.set(b=2)
            sp.set(a=3)
        assert sp.attrs == {"a": 3, "b": 2}

    def test_events_carry_offsets_and_attrs(self):
        tracer = Tracer()
        with tracer.span("work") as sp:
            sp.event("mark", hit=True)
        (name, offset, attrs) = sp.events[0]
        assert name == "mark"
        assert offset >= 0.0
        assert attrs == {"hit": True}

    def test_tracer_event_attaches_to_innermost(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner") as inner:
                tracer.event("mark")
        assert [e[0] for e in inner.events] == ["mark"]

    def test_event_without_open_span_is_dropped(self):
        tracer = Tracer()
        tracer.event("orphan")  # must not raise
        assert tracer.finished() == []


class TestNesting:
    def test_parent_ids_and_depths(self):
        tracer = Tracer()
        with tracer.span("a") as a:
            with tracer.span("b") as b:
                with tracer.span("c") as c:
                    pass
            with tracer.span("d") as d:
                pass
        assert a.parent_id is None and a.depth == 0
        assert b.parent_id == a.span_id and b.depth == 1
        assert c.parent_id == b.span_id and c.depth == 2
        assert d.parent_id == a.span_id and d.depth == 1
        # Finished order is innermost-first.
        assert [s.name for s in tracer.finished()] == ["c", "b", "d", "a"]

    def test_siblings_after_exception_get_correct_parent(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with pytest.raises(ValueError):
                with tracer.span("bad"):
                    raise ValueError("boom")
            with tracer.span("next") as nxt:
                pass
        assert nxt.parent_id == root.span_id


class TestExceptionSafety:
    def test_error_flagged_and_exception_propagates(self):
        tracer = Tracer()
        with pytest.raises(KeyError):
            with tracer.span("bad") as sp:
                raise KeyError("x")
        assert sp.error is True
        assert sp.error_type == "KeyError"
        assert sp.duration >= 0.0
        assert tracer.current() is None  # stack fully unwound

    def test_exception_closes_enclosing_stack_cleanly(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        totals = span_totals(tracer.finished())
        assert totals["inner"]["errors"] == 1
        assert totals["outer"]["errors"] == 1
        assert tracer.current() is None


class TestRingBound:
    def test_ring_drops_oldest_and_counts(self):
        tracer = Tracer(maxlen=4)
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        finished = tracer.finished()
        assert len(finished) == 4
        assert [s.name for s in finished] == ["s6", "s7", "s8", "s9"]
        assert tracer.spans_started == 10
        assert tracer.spans_dropped == 6


class TestSink:
    def test_jsonl_sink_round_trips(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sink=str(path))
        with tracer.span("outer", fn="f"):
            with tracer.span("inner") as sp:
                sp.event("cache", hit=False)
        tracer.close()
        payloads = load_trace(str(path))
        assert [p["name"] for p in payloads] == ["inner", "outer"]
        inner = payloads[0]
        assert inner["events"] == [
            {"name": "cache", "offset": inner["events"][0]["offset"],
             "attrs": {"hit": False}}
        ]
        # Every line is standalone JSON.
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_install_context_closes_sink(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sink=str(path))
        with tracer.install():
            with trace.span("work"):
                pass
        assert tracer._sink_handle is None  # closed on exit
        assert [p["name"] for p in load_trace(str(path))] == ["work"]


class TestModuleDispatch:
    def test_install_swaps_and_restores(self):
        tracer = Tracer()
        assert not trace.enabled()
        with tracer.install():
            assert trace.active() is tracer
            with trace.span("work"):
                trace.event("mark", n=1)
        assert not trace.enabled()
        sp = tracer.finished()[0]
        assert sp.name == "work"
        assert sp.events[0][0] == "mark"

    def test_nested_install_restores_previous(self):
        outer, inner = Tracer(), Tracer()
        with outer.install():
            with inner.install():
                with trace.span("x"):
                    pass
            assert trace.active() is outer
        assert trace.active() is None
        assert [s.name for s in inner.finished()] == ["x"]
        assert outer.finished() == []


class TestDisabledFastPath:
    def test_returns_shared_noop_span(self):
        assert trace.span("anything") is NOOP_SPAN
        with trace.span("anything", a=1) as sp:
            sp.set(b=2)
            sp.event("mark")
        trace.event("orphan")  # no-op, no raise

    def test_disabled_path_retains_no_allocations(self):
        # The whole point of the one-branch guard: spinning the disabled
        # instrumentation must not retain memory.  Warm up first so any
        # one-time interning is off the books.
        for _ in range(100):
            with trace.span("warm"):
                pass
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for _ in range(10_000):
                with trace.span("hot", key="value"):
                    trace.event("mark", hit=True)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Allow a small slack for interpreter-internal bookkeeping; 10k
        # retained spans/dicts would be hundreds of kilobytes.
        assert after - before < 2048, f"disabled path retained {after - before} bytes"


class TestSpanTotals:
    def test_aggregates_objects_and_payloads(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with pytest.raises(ValueError):
            with tracer.span("a"):
                raise ValueError()
        spans = tracer.finished()
        totals = span_totals(spans)
        assert totals["a"]["count"] == 2
        assert totals["a"]["errors"] == 1
        assert totals["a"]["total_s"] == pytest.approx(
            sum(s.duration for s in spans)
        )
        # Same answer from serialized payloads.
        from_payloads = span_totals([s.to_dict() for s in spans])
        assert from_payloads["a"]["count"] == totals["a"]["count"]
        assert from_payloads["a"]["errors"] == totals["a"]["errors"]
        assert from_payloads["a"]["total_s"] == pytest.approx(
            totals["a"]["total_s"]
        )

    def test_to_dict_omits_empty_fields(self):
        tracer = Tracer()
        with tracer.span("plain"):
            pass
        payload = tracer.finished()[0].to_dict()
        assert "attrs" not in payload
        assert "error" not in payload
        assert "events" not in payload
        assert isinstance(payload["id"], int)


class TestCodegenSubSpans:
    def test_sub_stages_nest_in_codegen(self):
        from repro.merge import FunctionMergingPass, PassConfig
        from repro.search.pairing import ExhaustiveRanker
        from repro.workloads import build_workload

        module = build_workload(40, "codegen-spans")
        tracer = Tracer()
        with tracer.install():
            FunctionMergingPass(ExhaustiveRanker(), PassConfig()).run(module)
        spans = tracer.finished()
        by_id = {sp.span_id: sp for sp in spans}
        codegen = [sp for sp in spans if sp.name == "codegen"]
        assert codegen
        children = {sp.span_id: [] for sp in codegen}
        for sp in spans:
            if sp.name.startswith("codegen."):
                parent = by_id[sp.parent_id]
                assert parent.name == "codegen", sp.name
                children[parent.span_id].append(sp)
        for parent in codegen:
            names = [sp.name for sp in children[parent.span_id]]
            assert names == ["codegen.merge", "codegen.repair", "codegen.verify"]
            assert sum(sp.duration for sp in children[parent.span_id]) <= parent.duration
