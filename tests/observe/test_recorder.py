"""Tests for the Recorder event bus and its lifecycle."""

import pytest

from repro.observe import (
    NULL_RECORDER,
    NullRecorder,
    ObserveConfig,
    Recorder,
    RingBufferSink,
    build_recorder,
    read_jsonl,
)
from repro.observe.recorder import TelemetrySnapshot

pytestmark = pytest.mark.observe


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestAggregation:
    def test_count_accumulates(self):
        rec = Recorder()
        rec.count("bulk.windows")
        rec.count("bulk.windows", 4)
        assert rec.counters == {"bulk.windows": 5}

    def test_gauge_is_last_value_wins(self):
        rec = Recorder()
        rec.gauge("tree.threshold", 0.5)
        rec.gauge("tree.threshold", 1.25)
        assert rec.gauges == {"tree.threshold": 1.25}

    def test_counters_property_is_a_copy(self):
        rec = Recorder()
        rec.count("a")
        rec.counters["a"] = 99
        assert rec.counters == {"a": 1}


class TestEventsAndSpans:
    def test_event_fans_out_to_sinks(self):
        ring = RingBufferSink(8)
        rec = Recorder([ring])
        rec.event("rebuild", old_threshold=0.0, new_threshold=1.0)
        [record] = ring.events()
        assert record["event"] == "rebuild"
        assert record["new_threshold"] == 1.0

    def test_event_name_is_positional_only(self):
        # Events may carry their own ``name`` field; the event's type
        # is the positional argument.
        ring = RingBufferSink(8)
        rec = Recorder([ring])
        rec.event("phase", name="phase1")
        [record] = ring.events()
        assert record == {"event": "phase", "name": "phase1"}

    def test_span_times_the_block(self):
        clock = FakeClock()
        ring = RingBufferSink(8)
        rec = Recorder([ring], clock=clock)
        with rec.span("checkpoint.write", path="x"):
            clock.now += 2.5
        [record] = ring.events()
        assert record["event"] == "checkpoint.write"
        assert record["seconds"] == pytest.approx(2.5)
        assert record["path"] == "x"

    def test_span_emits_on_exception(self):
        ring = RingBufferSink(8)
        rec = Recorder([ring])
        with pytest.raises(RuntimeError):
            with rec.span("doomed"):
                raise RuntimeError("boom")
        assert [e["event"] for e in ring.events()] == ["doomed"]


class TestShardMerge:
    def test_merge_counts_is_additive(self):
        worker_a, worker_b, parent = Recorder(), Recorder(), Recorder()
        worker_a.count("bulk.windows", 3)
        worker_a.count("io.splits", 1)
        worker_b.count("bulk.windows", 2)
        parent.count("io.data_scans")
        parent.merge_counts(worker_a.state_dict())
        parent.merge_counts(worker_b.state_dict())
        assert parent.counters == {
            "bulk.windows": 5,
            "io.splits": 1,
            "io.data_scans": 1,
        }

    def test_state_dict_ships_only_counters(self):
        rec = Recorder([RingBufferSink(8)])
        rec.count("a")
        rec.gauge("g", 1.0)
        rec.event("e")
        assert rec.state_dict() == {"counters": {"a": 1}}

    def test_merge_tolerates_empty_payload(self):
        rec = Recorder()
        rec.merge_counts({})
        assert rec.counters == {}


class TestLifecycle:
    def test_snapshot_freezes_state(self):
        ring = RingBufferSink(8)
        rec = Recorder([ring])
        rec.count("a")
        rec.gauge("g", 2.0)
        rec.event("e", n=1)
        snap = rec.snapshot()
        rec.count("a")
        assert snap.counters == {"a": 1}
        assert snap.gauges == {"g": 2.0}
        assert [e["event"] for e in snap.events] == ["e"]

    def test_reset_run_zeroes_aggregates_and_ring(self):
        ring = RingBufferSink(8)
        rec = Recorder([ring])
        rec.count("a")
        rec.event("e")
        rec.reset_run()
        assert rec.counters == {}
        assert ring.events() == []

    def test_reset_run_keeps_journal_appending(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        config = ObserveConfig(trace_path=str(path))
        rec = build_recorder(config)
        rec.event("run.start")
        rec.reset_run()
        rec.event("run.start")
        rec.close()
        assert len(read_jsonl(path)) == 2

    def test_flush_writes_metrics_textfile(self, tmp_path):
        path = tmp_path / "metrics.prom"
        rec = Recorder(metrics_path=str(path))
        rec.count("bulk.windows", 7)
        rec.flush()
        assert "birch_bulk_windows 7" in path.read_text()

    def test_export_metrics_to_explicit_path(self, tmp_path):
        path = tmp_path / "explicit.prom"
        rec = Recorder()
        rec.count("a", 1)
        rec.export_metrics(str(path))
        assert "birch_a 1" in path.read_text()

    def test_no_metrics_path_means_no_file(self, tmp_path):
        rec = Recorder()
        rec.count("a")
        rec.flush()
        assert list(tmp_path.iterdir()) == []


class TestNullRecorder:
    def test_disabled_and_inert(self):
        rec = NullRecorder()
        assert rec.enabled is False
        rec.count("a")
        rec.gauge("g", 1.0)
        rec.event("e")
        with rec.span("s"):
            pass
        assert rec.counters == {}
        assert rec.snapshot() == TelemetrySnapshot()

    def test_singleton_is_shared(self):
        assert build_recorder(None) is NULL_RECORDER
        assert build_recorder(ObserveConfig(enabled=False)) is NULL_RECORDER


class TestBuildRecorder:
    def test_default_config_gets_ring_only(self):
        rec = build_recorder(ObserveConfig())
        assert rec.enabled
        assert rec._ring is not None
        rec.event("e")
        assert len(rec.snapshot().events) == 1

    def test_trace_path_adds_journal(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        rec = build_recorder(ObserveConfig(trace_path=str(path)))
        rec.event("e")
        rec.close()
        assert [r["event"] for r in read_jsonl(path)] == ["e"]

    def test_ring_capacity_bounds_snapshot(self):
        rec = build_recorder(ObserveConfig(ring_capacity=2))
        for i in range(5):
            rec.event("e", i=i)
        assert [e["i"] for e in rec.snapshot().events] == [3, 4]


class TestObserveConfig:
    def test_rejects_nonpositive_ring_capacity(self):
        with pytest.raises(ValueError, match="ring_capacity"):
            ObserveConfig(ring_capacity=0)


class TestTelemetrySnapshot:
    def test_counter_and_events_named(self):
        snap = TelemetrySnapshot(
            counters={"a": 2},
            events=[{"event": "x"}, {"event": "y"}, {"event": "x"}],
        )
        assert snap.counter("a") == 2
        assert snap.counter("missing") == 0
        assert len(snap.events_named("x")) == 2

    def test_summary_lines_digest(self):
        snap = TelemetrySnapshot(
            counters={
                "bulk.windows": 10,
                "bulk.absorbed_rows": 75,
                "bulk.fallback_rows": 25,
                "bulk.repairs": 6,
                "bulk.appends": 4,
                "io.page_reads": 4,
                "io.rebuilds": 2,
                "guardrails.rejected_points": 3,
                "watchdog.trips": 1,
            }
        )
        text = "\n".join(snap.summary_lines())
        assert "10 window(s)" in text
        assert "25.00%" in text
        assert "6 repair(s)" in text and "4 append(s)" in text
        assert "rebuilds: 2" in text
        assert "3 point(s) rejected" in text
        assert "watchdog: tripped" in text
