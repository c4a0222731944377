"""The process-local telemetry event bus.

A :class:`Recorder` is the single object every instrumented component —
the CF-tree's bulk path, the rebuilder, the pagestore ledger, the
guardrails and the phase drivers — talks to.  It keeps three kinds of
state:

* **counters** — monotone sums (``io.page_reads``,
  ``bulk.fallback_rows``, ...), mergeable across ``n_jobs`` workers by
  plain addition, exactly the discipline of
  :meth:`repro.pagestore.iostats.IOStats.merge_counts`;
* **gauges** — last-value-wins observations (``tree.nodes``,
  ``tree.threshold``);
* **events** — timestamped structured records fanned out to the
  configured sinks (ring buffer, JSONL journal) as they happen.

Overhead discipline
-------------------
Telemetry must not tax the clustering it watches:

* when disabled, every call site holds :data:`NULL_RECORDER`, whose
  methods return immediately (``enabled`` is ``False``, checked first
  in every method) — hot loops additionally guard whole blocks with
  ``if rec.enabled:`` so the disabled cost is one attribute load;
* instrumentation is *per window / per rebuild / per phase*, never per
  point: the bulk ingest path counts once per speculative window (16-
  4096 rows) or scalar run, so the enabled overhead on the DS1 N=100k
  ingest stays under 3% (measured by
  ``benchmarks/bench_observe_overhead.py``);
* a recorder only ever *reads* pipeline state.  Nothing downstream of
  a ``count``/``gauge``/``event`` call feeds back into clustering
  decisions, which is what makes telemetry-on and telemetry-off runs
  byte-identical.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

from repro.observe.config import ObserveConfig
from repro.observe.sinks import (
    JsonlSink,
    RingBufferSink,
    Sink,
    write_metrics_textfile,
)

__all__ = [
    "NULL_RECORDER",
    "NullRecorder",
    "Recorder",
    "TelemetrySnapshot",
    "build_recorder",
]


@dataclass
class TelemetrySnapshot:
    """Frozen copy of a recorder's state, attached to results/reports.

    Attributes
    ----------
    counters / gauges:
        The recorder's aggregates at snapshot time.
    events:
        The ring buffer's contents (most recent events, oldest first);
        empty when no ring sink is configured.
    """

    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    events: list[dict[str, object]] = field(default_factory=list)

    def counter(self, name: str, default: float = 0) -> float:
        """One counter's value (0 when never incremented)."""
        return self.counters.get(name, default)

    def events_named(self, name: str) -> list[dict[str, object]]:
        """The buffered events carrying this event name."""
        return [e for e in self.events if e.get("event") == name]

    def summary_lines(self) -> list[str]:
        """Compact human-readable digest for CLI output and RunReport."""
        c = self.counters
        lines = [
            f"telemetry: {len(self.events)} event(s) buffered, "
            f"{len(self.counters)} counter(s)",
        ]
        if "bulk.windows" in c:
            windows = c["bulk.windows"]
            absorbed = c.get("bulk.absorbed_rows", 0)
            fallbacks = c.get("bulk.fallback_rows", 0)
            total = absorbed + fallbacks
            rate = fallbacks / total if total else 0.0
            lines.append(
                f"  bulk: {int(windows)} window(s), "
                f"{int(absorbed)} row(s) absorbed, "
                f"{int(c.get('bulk.flips', 0))} nonleaf flip(s), "
                f"{int(c.get('bulk.repairs', 0))} repair(s), "
                f"{int(c.get('bulk.appends', 0))} append(s), "
                f"{int(c.get('bulk.scalar_runs', 0))} scalar run(s), "
                f"fallback rate {rate:.2%}"
            )
        if "io.page_reads" in c or "io.page_writes" in c:
            lines.append(
                f"  io: {int(c.get('io.page_reads', 0))} page read(s), "
                f"{int(c.get('io.page_writes', 0))} page write(s), "
                f"{int(c.get('io.retries', 0))} retried fault(s)"
            )
        if c.get("io.rebuilds"):
            lines.append(f"  rebuilds: {int(c['io.rebuilds'])}")
        if c.get("guardrails.rejected_points"):
            lines.append(
                f"  guardrails: {int(c['guardrails.rejected_points'])} "
                f"point(s) rejected, "
                f"{int(c.get('quarantine.stored_points', 0))} quarantined"
            )
        if c.get("watchdog.trips"):
            lines.append(
                f"  watchdog: tripped, "
                f"{int(c.get('watchdog.coarsen_rebuilds', 0))} forced "
                f"coarsen rebuild(s)"
            )
        return lines


class Recorder:
    """Mutable telemetry aggregator plus event fan-out.

    Parameters
    ----------
    sinks:
        Event destinations; a :class:`RingBufferSink` found here is also
        used for :meth:`snapshot`.
    metrics_path:
        Default destination for :meth:`export_metrics` (Prometheus
        textfile), written on every :meth:`flush`.
    clock:
        Monotonic clock injection point for span timing (tests).
    """

    enabled: bool = True

    def __init__(
        self,
        sinks: Sequence[Sink] = (),
        *,
        metrics_path: Optional[str] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._sinks: list[Sink] = list(sinks)
        self._ring: Optional[RingBufferSink] = next(
            (s for s in self._sinks if isinstance(s, RingBufferSink)), None
        )
        self.metrics_path = metrics_path
        self._clock = clock

    # -- aggregation ---------------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to a named monotone counter."""
        if not self.enabled:
            return
        self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Record the latest observation of a named gauge."""
        if not self.enabled:
            return
        self._gauges[name] = float(value)

    @property
    def counters(self) -> dict[str, float]:
        """Copy of the counter aggregates."""
        return dict(self._counters)

    @property
    def gauges(self) -> dict[str, float]:
        """Copy of the gauge values."""
        return dict(self._gauges)

    # -- events --------------------------------------------------------------

    def event(self, name: str, /, **fields: object) -> None:
        """Emit one structured event to every sink.

        ``name`` is positional-only so events may carry their own
        ``name`` field (e.g. ``event("phase", name="phase1")``).
        """
        if not self.enabled:
            return
        record = {"event": name, **fields}
        for sink in self._sinks:
            sink.emit(record)

    @contextmanager
    def span(self, name: str, /, **fields: object) -> Iterator[None]:
        """Time a block; emits ``name`` with a ``seconds`` field on exit."""
        if not self.enabled:
            yield
            return
        start = self._clock()
        try:
            yield
        finally:
            self.event(name, seconds=self._clock() - start, **fields)

    # -- shard merge (IOStats.merge_counts discipline) -----------------------

    def state_dict(self) -> dict[str, dict[str, float]]:
        """Mergeable state: the counters (gauges/events stay local).

        Only the additive aggregates cross process boundaries — a shard
        worker's gauges describe *its* tree (meaningless after the
        merge) and its events belong to its own journal, so neither is
        shipped.
        """
        return {"counters": dict(self._counters)}

    def merge_counts(self, state: dict[str, dict[str, float]]) -> None:
        """Add a worker recorder's counters onto this one.

        The same additivity discipline as
        :meth:`repro.pagestore.iostats.IOStats.merge_counts`: workers
        count independently, the parent sums in payload order
        (``Pool.map`` preserves it), so the merged totals are
        deterministic for a fixed ``(seed, n_jobs)``.
        """
        if not self.enabled:
            return
        for name, value in state.get("counters", {}).items():
            self._counters[name] = self._counters.get(name, 0) + value

    # -- lifecycle -----------------------------------------------------------

    def snapshot(self) -> TelemetrySnapshot:
        """Freeze the current state for a result or report."""
        return TelemetrySnapshot(
            counters=dict(self._counters),
            gauges=dict(self._gauges),
            events=self._ring.events() if self._ring is not None else [],
        )

    def reset_run(self) -> None:
        """Zero aggregates and the ring at a run boundary.

        File sinks stay open: the JSONL journal is append-only across
        runs, delimited by ``run.start`` events.
        """
        self._counters.clear()
        self._gauges.clear()
        if self._ring is not None:
            self._ring.clear()

    def export_metrics(self, path: Optional[str] = None) -> None:
        """Write the Prometheus textfile (to ``path`` or the default)."""
        target = path if path is not None else self.metrics_path
        if target is None or not self.enabled:
            return
        write_metrics_textfile(target, self._counters, self._gauges)

    def flush(self) -> None:
        """Flush every sink and refresh the metrics textfile."""
        for sink in self._sinks:
            sink.flush()
        self.export_metrics()

    def close(self) -> None:
        """Flush, then close every sink."""
        self.flush()
        for sink in self._sinks:
            sink.close()


class NullRecorder(Recorder):
    """The disabled recorder: every operation is a guarded no-op.

    A singleton (:data:`NULL_RECORDER`) stands in wherever telemetry is
    off, so call sites never branch on ``None`` — they either check
    ``rec.enabled`` around a block or just call through, and the
    ``enabled``-first early returns in :class:`Recorder` make each call
    a few nanoseconds.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(())

    def snapshot(self) -> TelemetrySnapshot:  # pragma: no cover - trivial
        return TelemetrySnapshot()


#: Shared disabled recorder; safe to hand to any number of components.
NULL_RECORDER = NullRecorder()


def build_recorder(config: Optional[ObserveConfig]) -> Recorder:
    """Construct the recorder an :class:`ObserveConfig` describes.

    ``None`` or ``enabled=False`` yields :data:`NULL_RECORDER`; callers
    therefore never pay for sink setup they did not ask for.
    """
    if config is None or not config.enabled:
        return NULL_RECORDER
    sinks: list[Sink] = [RingBufferSink(config.ring_capacity)]
    if config.trace_path is not None:
        sinks.append(JsonlSink(config.trace_path))
    return Recorder(sinks, metrics_path=config.metrics_path)
