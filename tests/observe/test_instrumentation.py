"""End-to-end telemetry tests: instrumentation must observe, not perturb."""

import numpy as np
import pytest

from repro.core.birch import Birch
from repro.core.config import BirchConfig
from repro.core.refinement import PHASE4_LAYERS
from repro.guardrails.supervisor import run_supervised
from repro.observe import ObserveConfig, Recorder, read_jsonl
from repro.pagestore.iostats import IOStats

pytestmark = pytest.mark.observe


@pytest.fixture
def points(rng) -> np.ndarray:
    centres = np.array([[0.0, 0.0], [6.0, 6.0], [12.0, 0.0]])
    return np.concatenate(
        [rng.normal(c, 0.4, size=(250, 2)) for c in centres]
    )


def _config(**overrides) -> BirchConfig:
    base = dict(n_clusters=3, total_points_hint=750, random_seed=7)
    base.update(overrides)
    return BirchConfig(**base)


def _fingerprint(result) -> tuple:
    """Everything clustering-relevant about a result, byte-exact."""
    return (
        result.centroids.tobytes(),
        None if result.labels is None else result.labels.tobytes(),
        result.entry_labels.tobytes(),
        result.final_threshold,
        result.rebuilds,
        tuple(sorted(result.io.items())),
        tuple((cf.n, cf.centroid.tobytes()) for cf in result.clusters),
    )


class TestByteIdenticalOutput:
    @pytest.mark.parametrize("backend", ["stable"])  # keeps the case ids
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_telemetry_never_changes_output(self, points, backend, jobs):
        off = Birch(_config(n_jobs=jobs)).fit(points)
        on = Birch(_config(n_jobs=jobs, observe=ObserveConfig())).fit(points)
        assert _fingerprint(on) == _fingerprint(off)
        assert off.telemetry is None
        assert on.telemetry is not None

    def test_supervised_on_off_identical(self, points):
        off = run_supervised(points, _config())
        on = run_supervised(points, _config(observe=ObserveConfig()))
        assert _fingerprint(on.result) == _fingerprint(off.result)
        assert off.report.telemetry is None
        assert on.report.telemetry is not None


class TestResultTelemetry:
    def test_counters_cover_the_hot_paths(self, points):
        result = Birch(_config(observe=ObserveConfig())).fit(points)
        snap = result.telemetry
        assert snap.counter("bulk.windows") > 0
        # Every row either absorbed by a window or fell back to scalar.
        assert (
            snap.counter("bulk.absorbed_rows")
            + snap.counter("bulk.fallback_rows")
            == points.shape[0]
        )
        assert snap.counter("io.data_scans") == result.io["data_scans"]
        assert snap.counter("io.splits") == result.io["splits"]
        assert snap.gauges["tree.threshold"] == result.final_threshold

    def test_run_events_bracket_the_phases(self, points):
        result = Birch(_config(observe=ObserveConfig())).fit(points)
        names = [e["event"] for e in result.telemetry.events]
        assert names[0] == "run.start"
        assert names[-1] == "run.end"
        assert names.count("phase") == 4
        phase_names = [
            e["name"] for e in result.telemetry.events_named("phase")
        ]
        assert phase_names == ["phase1", "phase2", "phase3", "phase4"]

    def test_phase4_event_splits_assign_recompute_cf(self, points):
        result = Birch(_config(observe=ObserveConfig())).fit(points)
        (phase4,) = [
            e for e in result.telemetry.events_named("phase")
            if e["name"] == "phase4"
        ]
        layers = [phase4[k] for k in PHASE4_LAYERS]
        assert all(s >= 0.0 for s in layers)
        assert sum(layers) <= phase4["seconds"]
        assert result.refinement.layer_seconds == {
            k: phase4[k] for k in PHASE4_LAYERS
        }

    def test_improve_keeps_telemetry(self, points):
        estimator = Birch(_config(observe=ObserveConfig()))
        fitted = estimator.fit(points)
        improved = estimator.improve(points, 1)
        assert improved.telemetry is not None
        # A fresh snapshot: the extra scan and its phase4 event are in it.
        assert improved.telemetry.counter("io.data_scans") == \
            improved.io["data_scans"] > fitted.io["data_scans"]
        phases = improved.telemetry.events_named("phase")
        assert [e["name"] for e in phases][-2:] == ["phase4", "phase4"]
        assert phases[-1]["seconds"] == improved.timings.phase4

    def test_every_driver_emits_phase_events(self, points):
        estimator = Birch(_config(observe=ObserveConfig()))
        estimator.partial_fit(points)
        streamed = estimator.finalize()
        supervised = run_supervised(points, _config(observe=ObserveConfig()))
        for result, names in (
            (streamed, ["phase1", "phase2", "phase3"]),
            (supervised.result, ["phase1", "phase2", "phase3", "phase4"]),
        ):
            events = result.telemetry.events_named("phase")
            assert [e["name"] for e in events] == names
            assert [e["seconds"] for e in events] == [
                getattr(result.timings, name) for name in names
            ]
            assert events[0]["ingest_seconds"] == result.timings.phase1_ingest

    def test_sharded_fit_merges_worker_counters(self, points):
        serial = Birch(_config(observe=ObserveConfig())).fit(points)
        sharded = Birch(_config(n_jobs=2, observe=ObserveConfig())).fit(points)
        # Workers count their shard's windows; the parent merges them,
        # so the sharded run still accounts for every row.
        assert (
            sharded.telemetry.counter("bulk.absorbed_rows")
            + sharded.telemetry.counter("bulk.fallback_rows")
            == points.shape[0]
        )
        assert serial.telemetry.counter("io.data_scans") == \
            sharded.telemetry.counter("io.data_scans")

    def test_rebuild_events_track_threshold_growth(self, points):
        config = _config(
            memory_bytes=8 * 1024, observe=ObserveConfig(ring_capacity=4096)
        )
        result = Birch(config).fit(points)
        assert result.rebuilds > 0
        rebuilds = result.telemetry.events_named("rebuild")
        assert len(rebuilds) == result.telemetry.counter("io.rebuilds")
        for event in rebuilds:
            assert event["new_threshold"] > event["old_threshold"]
            assert event["nodes_before"] >= event["nodes_after"]
        triggers = result.telemetry.events_named("rebuild.trigger")
        assert triggers and all(
            e["reason"] in ("budget", "coarsen") for e in triggers
        )


class TestSinksWiring:
    def test_trace_journal_written(self, points, tmp_path):
        path = tmp_path / "trace.jsonl"
        config = _config(observe=ObserveConfig(trace_path=str(path)))
        Birch(config).fit(points)
        records = read_jsonl(path)
        names = [r["event"] for r in records]
        assert "run.start" in names and "run.end" in names
        assert all("ts" in r for r in records)

    def test_metrics_textfile_written_on_flush(self, points, tmp_path):
        path = tmp_path / "metrics.prom"
        config = _config(observe=ObserveConfig(metrics_path=str(path)))
        Birch(config).fit(points)
        content = path.read_text()
        assert "# TYPE birch_bulk_windows counter" in content
        assert "birch_tree_threshold" in content


class TestCheckpointRoundTrip:
    def test_observe_config_survives_resume(self, points, tmp_path):
        ckpt = tmp_path / "ckpt.bin"
        config = _config(observe=ObserveConfig(ring_capacity=99))
        birch = Birch(config)
        birch.partial_fit(points)
        birch.checkpoint(ckpt)
        resumed = Birch.resume(ckpt)
        assert isinstance(resumed.config.observe, ObserveConfig)
        assert resumed.config.observe.ring_capacity == 99
        result = resumed.finalize()
        assert result.telemetry is not None

    def test_checkpoint_write_is_counted(self, points, tmp_path):
        ckpt = tmp_path / "ckpt.bin"
        config = _config(observe=ObserveConfig())
        birch = Birch(config)
        birch.partial_fit(points)
        birch.checkpoint(ckpt)
        assert birch._recorder.counters["checkpoint.writes"] == 1
        spans = [
            e
            for e in birch._recorder.snapshot().events
            if e["event"] == "checkpoint.write"
        ]
        assert spans and spans[0]["seconds"] >= 0


class TestSupervisorTelemetry:
    def test_report_carries_phase_events_and_summary(self, points):
        run = run_supervised(points, _config(observe=ObserveConfig()))
        events = run.report.telemetry.events_named("supervisor.phase")
        assert [e["phase"] for e in events] == [
            "phase1",
            "phase2",
            "phase3",
            "phase4",
        ]
        assert all(e["status"] == "ok" for e in events)
        assert "telemetry:" in run.report.summary()


class TestIOStatsObserver:
    def test_record_calls_forward_to_observer(self):
        stats = IOStats()
        rec = Recorder()
        stats.observer = rec
        stats.record_read(2048, pages=2)
        stats.record_rebuild()
        assert rec.counters["io.page_reads"] == 2
        assert rec.counters["io.bytes_read"] == 2048
        assert rec.counters["io.rebuilds"] == 1

    def test_merge_counts_does_not_forward(self):
        # Worker counters reach the parent recorder via the telemetry
        # merge; forwarding them here too would double-count.
        stats = IOStats()
        rec = Recorder()
        stats.observer = rec
        worker = IOStats()
        worker.record_read(1024)
        stats.merge_counts(worker.state_dict())
        assert "io.page_reads" not in rec.counters

    def test_observer_not_in_state_dict(self):
        stats = IOStats()
        stats.observer = Recorder()
        assert "observer" not in stats.state_dict()
