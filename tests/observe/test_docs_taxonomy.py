"""Every telemetry name a run emits is documented.

``docs/observability.md`` lists the event, counter and gauge names in
two tables.  The workloads below are instrumented end to end — a fit at
``n_jobs`` 1 and at ``n_jobs`` 2 on the serial fallback (with the pool
clamped to one process), a memory-bounded evolving stream that
rebuilds, checkpoints and retires epochs, and a frozen model that is
compiled, saved, loaded and queried — and any name they emit that the
tables do not list fails the test.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

import repro.core.birch as birch_module
from repro.core.birch import Birch
from repro.core.config import BirchConfig
from repro.observe import ObserveConfig, Recorder, read_jsonl
from repro.observe.sinks import RingBufferSink
from repro.parallel.pool import FORCE_SERIAL_ENV
from repro.serve.frozen import FrozenModel, compile_model

pytestmark = pytest.mark.observe

DOC = Path(__file__).resolve().parents[2] / "docs" / "observability.md"


def documented_names(section: str) -> list[re.Pattern]:
    """Patterns for the names in the first column of a section's table.

    A placeholder such as ``guardrails.rejected.<reason>`` matches any
    single name segment in its place.
    """
    text = DOC.read_text()
    body = text.split(f"## {section}", 1)[1].split("\n## ", 1)[0]
    patterns = []
    for line in body.splitlines():
        if not line.startswith("| `"):
            continue
        first = line.split("|")[1]
        for name in re.findall(r"`([^`]+)`", first):
            regex = re.sub(r"<[^>]+>", "[^.]+", re.escape(name))
            patterns.append(re.compile(regex + r"\Z"))
    assert patterns, f"no table found under {section!r}"
    return patterns


def undocumented(names: set[str], patterns: list[re.Pattern]) -> list[str]:
    return sorted(n for n in names if not any(p.match(n) for p in patterns))


def blobs(seed: int, n: int = 1_200) -> np.ndarray:
    rng = np.random.default_rng(seed)
    centres = rng.uniform(-20.0, 20.0, size=(8, 2))
    return centres[rng.integers(0, 8, size=n)] + rng.normal(size=(n, 2))


class Emitted:
    """The counter, gauge and event names of several runs."""

    def __init__(self) -> None:
        self.counters: set[str] = set()
        self.events: set[str] = set()

    def add(self, telemetry, events) -> None:
        self.counters |= set(telemetry.counters) | set(telemetry.gauges)
        self.events |= {e["event"] for e in events}


@pytest.fixture(scope="module")
def emitted(tmp_path_factory) -> Emitted:
    tmp = tmp_path_factory.mktemp("taxonomy")
    seen = Emitted()
    points = blobs(1)
    points[5, 0] = np.nan  # one rejected row

    def fit_config(name: str, **extra) -> BirchConfig:
        settings = dict(
            n_clusters=8,
            memory_bytes=8 * 1024,
            page_size=256,
            initial_threshold=0.0,
            outlier_handling=True,
            bad_point_policy="skip",
            checkpoint_every_points=400,
            checkpoint_path=str(tmp / f"{name}.ckpt"),
            observe=ObserveConfig(trace_path=str(tmp / f"{name}.jsonl")),
        )
        settings.update(extra)
        return BirchConfig(**settings)

    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(FORCE_SERIAL_ENV, "1")
        mp.setattr(birch_module.os, "cpu_count", lambda: 1)
        for jobs in (1, 2):
            with Birch(fit_config(f"fit{jobs}")) as est:
                result = est.fit(points, n_jobs=jobs)
            seen.add(result.telemetry, read_jsonl(tmp / f"fit{jobs}.jsonl"))

    stream = Birch(
        fit_config(
            "stream",
            outlier_handling=False,
            decay_half_life=4.0,
            epoch_buckets=3,
            drift_policy="auto_decay",
        )
    )
    for lo in range(0, points.shape[0], 200):
        stream.partial_fit(blobs(lo, 200) + lo / 40.0)
    result = stream.finalize()
    assert result.rebuilds > 0
    seen.add(result.telemetry, read_jsonl(tmp / "stream.jsonl"))

    recorder = Recorder([RingBufferSink(4096)])
    model = compile_model(tmp / "stream.ckpt", recorder=recorder)
    model.save(tmp / "model.frz")
    served = FrozenModel.load(tmp / "model.frz", recorder=recorder)
    served.predict(points[10:])
    served.transform(points[10:50])
    served.score(points[10:50])
    snapshot = recorder.snapshot()
    seen.add(snapshot, snapshot.events)
    return seen


def test_every_counter_and_gauge_is_documented(emitted):
    assert {"bulk.windows", "io.rebuilds", "pool.clamped", "serve.queries"} <= (
        emitted.counters
    )
    missing = undocumented(
        emitted.counters, documented_names("Counter and gauge taxonomy")
    )
    assert not missing, f"undocumented counters/gauges: {missing}"


def test_every_event_is_documented(emitted):
    assert {"rebuild", "checkpoint.write", "pool.clamped", "serve.load"} <= (
        emitted.events
    )
    missing = undocumented(emitted.events, documented_names("Event taxonomy"))
    assert not missing, f"undocumented events: {missing}"

