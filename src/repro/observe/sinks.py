"""Event sinks: where a :class:`~repro.observe.recorder.Recorder` writes.

Three shapes cover the operational needs:

* :class:`RingBufferSink` — bounded in-memory tail of the event stream,
  surfaced as ``BirchResult.telemetry.events`` and in the supervisor's
  ``RunReport``;
* :class:`JsonlSink` — append-only run journal, one JSON object per
  line, flushed per event so a crash loses at most the trailing partial
  line (:func:`read_jsonl` tolerates exactly that);
* the Prometheus textfile exporter — :func:`write_metrics_textfile`
  renders the recorder's counters and gauges in node-exporter
  textfile-collector format and replaces the target atomically, so a
  scraper never reads a half-written file.

Sinks only ever *receive* data; nothing here reads clustering state, so
no sink can perturb the byte-identical-output guarantee.
"""

from __future__ import annotations

import json
import re
import time
from collections import deque
from pathlib import Path
from typing import IO, Iterable, Mapping, Optional

__all__ = [
    "JsonlSink",
    "RingBufferSink",
    "Sink",
    "events_named",
    "read_jsonl",
    "render_metrics_textfile",
    "write_metrics_textfile",
]

_METRIC_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


class Sink:
    """Interface of an event destination."""

    def emit(self, record: Mapping[str, object]) -> None:
        """Receive one event record (a flat JSON-serialisable mapping)."""
        raise NotImplementedError

    def flush(self) -> None:
        """Push buffered data to durable storage (no-op by default)."""

    def close(self) -> None:
        """Release resources; further emits are undefined."""


class RingBufferSink(Sink):
    """Keep the most recent ``capacity`` events in memory."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._events: deque[dict[str, object]] = deque(maxlen=capacity)

    def emit(self, record: Mapping[str, object]) -> None:
        self._events.append(dict(record))

    def events(self) -> list[dict[str, object]]:
        """The buffered events, oldest first."""
        return list(self._events)

    def clear(self) -> None:
        """Drop every buffered event (run boundary)."""
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)


class JsonlSink(Sink):
    """Append-only JSONL run journal.

    The file is opened lazily on the first event and appended to, never
    truncated — one journal can span several runs (each delimited by
    the recorder's ``run.start`` events) and survives checkpoint/resume
    cycles: a resumed estimator appends to the same journal, stamping a
    wall-clock ``ts`` on every line so runs can be correlated with the
    checkpoints they wrote.  Each line is flushed as written, so a
    crash costs at most the trailing partial line.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._handle: Optional[IO[str]] = None

    def emit(self, record: Mapping[str, object]) -> None:
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        line = json.dumps({"ts": time.time(), **record})
        self._handle.write(line + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def read_jsonl(path: str | Path) -> list[dict[str, object]]:
    """Load a :class:`JsonlSink` journal, skipping a torn final line.

    A crash mid-write leaves at most one partial trailing line; that
    line (and only that line) is silently dropped.  A corrupt line in
    the *middle* of the journal is real damage and raises ``ValueError``.
    A missing file reads as an empty journal (the sink opens lazily, so
    a run that emitted nothing never creates one).
    """
    records: list[dict[str, object]] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().split("\n")
    except FileNotFoundError:
        return records
    # A well-formed journal ends with "\n", so the final split item is "".
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                break  # torn tail from a crash mid-write
            raise ValueError(
                f"corrupt journal line {i + 1} in {path}: {line[:80]!r}"
            )
    return records


def _metric_name(name: str) -> str:
    """``io.page_reads`` -> ``birch_io_page_reads`` (Prometheus-safe)."""
    return "birch_" + _METRIC_NAME_RE.sub("_", name.replace(".", "_"))


def render_metrics_textfile(
    counters: Mapping[str, int | float],
    gauges: Mapping[str, float],
) -> str:
    """Render counters and gauges in Prometheus textfile format.

    Names are emitted sorted so the output is deterministic for a given
    recorder state (diffs between runs show metric changes, not
    reordering noise).
    """
    lines: list[str] = []
    for name in sorted(counters):
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {counters[name]}")
    for name in sorted(gauges):
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {gauges[name]}")
    return "\n".join(lines) + "\n" if lines else ""


def write_metrics_textfile(
    path: str | Path,
    counters: Mapping[str, int | float],
    gauges: Mapping[str, float],
) -> None:
    """Atomically write the metrics textfile (write-temp + replace).

    The node-exporter textfile collector reads whole files; the
    container's atomic writer (temp file, fsync, rename) guarantees it
    never sees a torn write.
    """
    # Imported here: the repro.core package imports repro.observe.
    from repro.core.container import write_atomic

    write_atomic(path, render_metrics_textfile(counters, gauges).encode("utf-8"))


def events_named(
    records: Iterable[Mapping[str, object]], name: str
) -> list[dict[str, object]]:
    """Filter an event list down to one event name (test/report helper)."""
    return [dict(r) for r in records if r.get("event") == name]
