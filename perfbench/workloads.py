"""One benchmark workload in one process: set-up, timed repetitions, checks.

``run.py`` starts this script once per process it needs, with the
workload's name, the seed and a role:

``prep``
    Untimed preparation: imports everything (so later processes find
    compiled bytecode) and, for ``serve_ds1``, writes the Phase-1
    checkpoint the serving set-up compiles.
``probe``
    A fresh process that pays the set-up and exits; it reports
    ``setup_s`` only.
``main``
    Set-up, then timed repetitions for ``--seconds`` seconds, then the
    correctness checks.  With ``--trace 1`` it alternates untraced and
    traced repetitions and reports the per-layer metrics instead.

Times are reported in reference seconds (see ``hostspeed.py``); the
wall-clock figures are printed alongside.  Every host calibration is an
operation of its own, which fails when program work was still running
during it.  Files are written to the working directory, which
``run.py`` sets to a scratch directory of the run; their names are
relative, so no path of the run or the checkout reaches a file the
program writes.  The last line of standard
output is one JSON object for ``run.py``.  Run it through ``run.py``,
which sets the thread and path environment.
"""

from __future__ import annotations

import time

from hostspeed import HostSpeed, child_pids

# Calibrate before anything is imported, so the set-up can be scaled too.
HOST = HostSpeed()
# The problems of every calibration sample, one list per sample.
CALIBRATIONS = [HOST.sample()]
_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import repro  # noqa: E402,F401
import repro.serve.frozen  # noqa: E402,F401

# Everything a fresh process pays for the program's own modules ends here.
_IMPORT_SECONDS = time.perf_counter() - _PROCESS_START

from repro import Birch  # noqa: E402
from repro.datagen.presets import ds1, ds1o  # noqa: E402
from repro.evaluation.labels import adjusted_rand_index  # noqa: E402
from repro.observe import ObserveConfig  # noqa: E402
from repro.observe.recorder import build_recorder  # noqa: E402
from repro.serve.frozen import FrozenModel  # noqa: E402
from repro.workloads.base import base_birch_config  # noqa: E402
from tracer import Tracer, span_seconds  # noqa: E402

MIB = 1024 * 1024
WARMUP_ROWS = 2_000
# The stream warms up on fewer rows: at T0 = 0 its first rows are the
# slowest (about 2.5 ms each), so 2,000 rows would cost about 5 s.
STREAM_WARMUP_ROWS = 200
STREAM_BATCH = 1_000
SERVE_BATCH = 1_000
# The serving queries are a fresh DS1 sample: the same grid, other points.
QUERY_SEED_OFFSET = 1_000_003
# Quality floors; measured ARI is 0.980-0.984 on every workload (seeds 1-5).
ARI_FLOOR = {"fit_ds1": 0.95, "fit_ds1_jobs2": 0.95, "stream_ds1o": 0.90, "serve_ds1": 0.95}
# Minimum repetitions, whatever --seconds says.
MIN_REPS = 2
MIN_TRACED_REPS = 2
# Per-layer self times must cover the traced wall time to within this.
COVERAGE_TOLERANCE = 0.05
# Seconds between host-speed calibrations during the timed repetitions.
CALIBRATION_INTERVAL_S = 1.0


# -- measurement helpers ------------------------------------------------------


def calibrate() -> None:
    CALIBRATIONS.append(HOST.sample())


def peak_rss_mb() -> float:
    """Sum of the peak resident set (VmHWM) of this process and its children."""
    total_kb = 0
    for pid in ["self", *map(str, child_pids())]:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except FileNotFoundError:  # a child that exited meanwhile
            pass
    return total_kb / 1024.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(f"{label}: {p}" for p in problems)

    def run(self, label: str, fn):
        """Run ``fn``; an exception counts as one failed operation."""
        try:
            return fn()
        except Exception as exc:  # the benchmark must report, not die
            self.record(label, [f"{type(exc).__name__}: {exc}"])
            traceback.print_exc(file=sys.stderr)
            return None


class Rep:
    """One repetition's outcome.

    ``segments`` are the ``(begin, end)`` clock readings of its timed
    parts; the host is calibrated between them, never inside one.

    ``labels`` may be a callable, evaluated on first access: the stream's
    labels come from ``predict``, which must run outside a traced region.
    """

    def __init__(self, segments: list[tuple[float, float]], centroids: np.ndarray, labels,
                 problems: list[str], telemetry=None, batch_s=None) -> None:
        self.segments = segments
        self.wall = sum(end - begin for begin, end in segments)
        self.centroids = centroids
        self._labels = labels
        self.problems = problems
        self.telemetry = telemetry
        self.batch_s = batch_s or []

    @property
    def labels(self) -> np.ndarray:
        if callable(self._labels):
            self._labels = self._labels()
        return self._labels


# -- workloads ------------------------------------------------------------------


class Workload:
    """What every workload shares.  ``build`` returns the handle ``rep`` takes."""

    # Serving recompiles its model inside every repetition of the traced run,
    # so that compile, save and load are traced too.
    rep_includes_setup = False

    def prepare(self) -> None:
        """Untimed preparation in a process of its own."""

    def close(self, handle) -> None:
        """Release what ``build`` started."""

    def extra_checks(self, first: "Rep") -> list[tuple[str, list[str]]]:
        """Workload-specific checks on the first repetition."""
        return []


def fit_config(n_jobs: int, traced: bool):
    """The DS1 fit: T0 = 1.5 and 16 MiB, so the tree never rebuilds."""
    return base_birch_config(
        initial_threshold=1.5,
        memory_bytes=16 * MIB,
        n_jobs=n_jobs,
        observe=ObserveConfig(ring_capacity=4096) if traced else None,
    )


class FitWorkload(Workload):
    """``Birch.fit`` on DS1 (ordered grid) on one reused estimator."""

    def __init__(self, name: str, seed: int, scale: float, n_jobs: int) -> None:
        self.name = name
        self.n_jobs = n_jobs
        data = ds1(scale=scale, seed=seed)
        self.points = data.points
        self.truth = data.labels
        self.n = self.points.shape[0]

    def build(self, traced: bool = False) -> Birch:
        estimator = Birch(fit_config(self.n_jobs, traced))
        stride = max(1, self.n // WARMUP_ROWS)
        estimator.fit(self.points[::stride][:WARMUP_ROWS])  # spawns the pool
        return estimator

    def rep(self, estimator: Birch, pause=lambda: None) -> Rep:
        start = time.perf_counter()
        result = estimator.fit(self.points)
        segments = [(start, time.perf_counter())]
        problems = []
        if not result.conservation_ok:
            problems.append(f"conservation ledger broken: {result.accounting()}")
        return Rep(segments, result.centroids, result.labels, problems, result.telemetry)

    def close(self, estimator: Birch) -> None:
        estimator.close()


class StreamWorkload(Workload):
    """``partial_fit`` over DS1O in 1,000-row batches, then ``finalize``.

    Every repetition starts a fresh estimator, so the handle is only
    whether to turn telemetry on.
    """

    def __init__(self, name: str, seed: int, scale: float) -> None:
        self.name = name
        data = ds1o(scale=0.1 * scale, seed=seed)
        self.points = data.points
        self.truth = data.labels
        self.n = self.points.shape[0]

    def config(self, traced: bool):
        # A relative path: the config, with this path, goes into every
        # checkpoint, so it must not depend on where the run takes place.
        return base_birch_config(
            checkpoint_every_points=2_000,
            checkpoint_path="traced.ckpt" if traced else "plain.ckpt",
            observe=ObserveConfig(ring_capacity=4096) if traced else None,
        )

    def build(self, traced: bool = False) -> bool:
        stride = max(1, self.n // STREAM_WARMUP_ROWS)
        estimator = Birch(self.config(traced))
        estimator.partial_fit(self.points[::stride][:STREAM_WARMUP_ROWS])
        estimator.finalize()
        return traced

    def rep(self, traced: bool, pause=lambda: None) -> Rep:
        """One stream; each batch and the ``finalize`` is its own segment."""
        estimator = Birch(self.config(traced))
        clock = time.perf_counter
        segments = []
        for lo in range(0, self.n, STREAM_BATCH):
            start = clock()
            estimator.partial_fit(self.points[lo : lo + STREAM_BATCH])
            segments.append((start, clock()))
            pause()
        start = clock()
        result = estimator.finalize()
        segments.append((start, clock()))
        problems = []
        if not result.conservation_ok:
            problems.append(f"conservation ledger broken: {result.accounting()}")
        return Rep(segments, result.centroids, lambda: estimator.predict(self.points),
                   problems, result.telemetry)


class ServeWorkload(Workload):
    """Compile, save and load a frozen model, then predict 1,000-row batches.

    The handle is the loaded model and its telemetry recorder (``None``
    when untraced).
    """

    rep_includes_setup = True

    def __init__(self, name: str, seed: int, scale: float) -> None:
        self.name = name
        self.seed = seed
        self.scale = scale
        self.checkpoint = Path("serve-phase1.ckpt")
        queries = ds1(scale=scale, seed=seed + QUERY_SEED_OFFSET)
        self.points = queries.points
        self.truth = queries.labels
        self.n = self.points.shape[0]
        self.batches = [
            self.points[lo : lo + SERVE_BATCH]
            for lo in range(0, self.n, SERVE_BATCH)
        ]
        self._artifacts = 0

    def prepare(self) -> None:
        """Write the Phase-1 checkpoint of DS1 (untimed, own process)."""
        data = ds1(scale=self.scale, seed=self.seed)
        estimator = Birch(fit_config(n_jobs=1, traced=False))
        estimator.partial_fit(data.points)
        estimator.checkpoint(self.checkpoint)

    def build(self, traced: bool = False):
        recorder = build_recorder(ObserveConfig(ring_capacity=4096)) if traced else None
        model = repro.serve.frozen.compile_model(self.checkpoint, recorder=recorder)
        self._artifacts += 1
        path = Path(f"model-{self._artifacts}.frz")
        model.save(path)
        model = FrozenModel.load(path, recorder=recorder)
        model.predict(self.batches[0])
        return model, recorder

    def rep(self, handle, pause=lambda: None) -> Rep:
        model, recorder = handle
        labels = np.empty(self.n, dtype=np.int64)
        batch_s = []
        clock = time.perf_counter
        start = clock()
        lo = 0
        for batch in self.batches:
            t = clock()
            out = model.predict(batch)
            batch_s.append(clock() - t)
            labels[lo : lo + out.shape[0]] = out
            lo += out.shape[0]
        segments = [(start, clock())]
        telemetry = recorder.snapshot() if recorder is not None else None
        return Rep(segments, np.asarray(model.centroids), labels, [], telemetry, batch_s)

    def extra_checks(self, first: Rep) -> list[tuple[str, list[str]]]:
        """Served labels against ``Birch.resume(checkpoint).finalize()`` + ``predict``."""
        estimator = Birch.resume(self.checkpoint)
        estimator.finalize()
        same = np.array_equal(estimator.predict(self.points), first.labels)
        return [("reference", [] if same else [
            "served labels differ from resume + finalize + predict"])]


def make_workload(name: str, seed: int, scale: float):
    if name == "fit_ds1":
        return FitWorkload(name, seed, scale, n_jobs=1)
    if name == "fit_ds1_jobs2":
        return FitWorkload(name, seed, scale, n_jobs=2)
    if name == "stream_ds1o":
        return StreamWorkload(name, seed, scale)
    if name == "serve_ds1":
        return ServeWorkload(name, seed, scale)
    raise ValueError(f"unknown workload {name!r}")


def timed_setup(workload):
    """Build the estimator or model with its warm-up.

    Returns the handle and the set-up time (imports included) in wall
    seconds and in reference seconds.
    """
    start = time.perf_counter()
    handle = workload.build()
    end = time.perf_counter()
    calibrate()
    wall = _IMPORT_SECONDS + end - start
    return handle, wall, wall * HOST.scale(_PROCESS_START, end)


def record_calibrations(ledger: Ledger) -> None:
    """One operation per host calibration so far."""
    for problems in CALIBRATIONS:
        ledger.record("host calibration", problems)
    CALIBRATIONS.clear()


def ari_problems(workload, labels: np.ndarray) -> tuple[float, list[str]]:
    ari = adjusted_rand_index(labels, workload.truth)
    floor = ARI_FLOOR[workload.name]
    return ari, ([] if ari >= floor else [f"ARI {ari:.4f} below floor {floor}"])


# -- roles ----------------------------------------------------------------------


def run_main(workload, seconds: float) -> dict:
    ledger = Ledger()
    handle, setup_wall, setup_s = timed_setup(workload)
    first: Rep | None = None
    timings: list[list[tuple[float, float]]] = []  # each repetition's segments

    def pause() -> None:
        if time.perf_counter() - HOST.last_end >= CALIBRATION_INTERVAL_S:
            calibrate()

    started = time.perf_counter()
    while len(timings) < MIN_REPS or time.perf_counter() - started < seconds:
        gc.collect()
        rep = ledger.run("repetition", lambda: workload.rep(handle, pause))
        pause()
        if rep is None:
            if ledger.failed > MIN_REPS:
                break
            continue
        problems = list(rep.problems)
        if first is None:
            first = rep
        else:
            if not np.array_equal(rep.centroids, first.centroids):
                problems.append("centroids differ from the first repetition")
            if not np.array_equal(rep.labels, first.labels):
                problems.append("labels differ from the first repetition")
        ledger.record("repetition", problems)
        timings.append(rep.segments)
    if timings and HOST.last_end < timings[-1][-1][1]:
        calibrate()
    rss = peak_rss_mb()
    workload.close(handle)
    record_calibrations(ledger)
    if first is None:
        return {"ok": False, "attempted": ledger.attempted, "failed": ledger.failed,
                "failures": ledger.failures, "setup_s": setup_s}
    ari, problems = ari_problems(workload, first.labels)
    ledger.record("ari", problems)
    for label, problems in ledger.run("extra checks", lambda: workload.extra_checks(first)) or []:
        ledger.record(label, problems)
    return {
        "ok": True,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.failures,
        "setup_s": setup_s,
        "setup_wall_s": setup_wall,
        "pts_per_s": statistics.median(
            workload.n / sum((end - begin) * HOST.scale(begin, end) for begin, end in segments)
            for segments in timings),
        "wall_pts_per_s": statistics.median(
            workload.n / sum(end - begin for begin, end in segments) for segments in timings),
        "loop_s": HOST.median_loop_seconds(),
        "ari": ari,
        "peak_rss_mb": rss,
        "reps": len(timings),
    }


def timed_rep(workload, handle, tracer: Tracer | None = None) -> tuple[Rep, float]:
    """One repetition of the traced run and its wall time, under ``tracer`` if given."""
    gc.collect()
    with tracer if tracer is not None else contextlib.nullcontext():
        start = time.perf_counter()
        if workload.rep_includes_setup:
            handle = workload.build(traced=tracer is not None)
        rep = workload.rep(handle)
        wall = time.perf_counter() - start
    return rep, wall


def layer_metrics(rep: Rep, tracer: Tracer, wall: float) -> dict:
    """Per-layer numbers of one traced repetition."""
    c = rep.telemetry.counters if rep.telemetry is not None else {}
    events = rep.telemetry.events if rep.telemetry is not None else []
    windows = c.get("bulk.windows", 0)
    batch_ms = [s * 1e3 for s in rep.batch_s]
    return {
        "guardrails.screen_s": tracer.self_seconds("guardrails.screen"),
        "guardrails.rows": tracer.rows("guardrails.screen"),
        "tree.bulk_insert_s": tracer.self_seconds("tree.bulk_insert"),
        "tree.bulk_insert_calls": tracer.calls("tree.bulk_insert"),
        "tree.insert_cf_s": tracer.self_seconds("tree.insert_cf"),
        "tree.insert_cf_calls": tracer.calls("tree.insert_cf"),
        "bulk.windows": windows,
        "bulk.full_windows": c.get("bulk.full_windows", 0),
        "bulk.absorbed_rows": c.get("bulk.absorbed_rows", 0),
        "bulk.fallback_rows": c.get("bulk.fallback_rows", 0),
        "io.splits": c.get("io.splits", 0),
        "io.merges": c.get("io.merges", 0),
        "tree.rows_per_window": (
            (c.get("bulk.absorbed_rows", 0) + c.get("bulk.fallback_rows", 0)) / windows
            if windows else 0.0
        ),
        "tree.full_window_ratio": c.get("bulk.full_windows", 0) / windows if windows else 0.0,
        "rebuild.s": tracer.self_seconds("rebuild"),
        "rebuild.calls": tracer.calls("rebuild"),
        "io.rebuilds": c.get("io.rebuilds", 0),
        "phase3.s": tracer.self_seconds("phase3"),
        "phase4.s": tracer.self_seconds("phase4"),
        "kernel.s": tracer.self_seconds("kernel"),
        "kernel.calls": tracer.calls("kernel"),
        "kernel.rows": tracer.rows("kernel"),
        "frozen.predict_s": tracer.self_seconds("frozen.predict"),
        "serve.batch_p50_ms": percentile(batch_ms, 50) if batch_ms else 0.0,
        "serve.batch_p99_ms": percentile(batch_ms, 99) if batch_ms else 0.0,
        "serve.batch_samples": len(batch_ms),
        "serve.batches": c.get("serve.batches", 0),
        "serve.queries": c.get("serve.queries", 0),
        "compile.s": tracer.self_seconds("compile"),
        "artifact.save_s": tracer.self_seconds("artifact.save"),
        "artifact.load_s": tracer.self_seconds("artifact.load"),
        "checkpoint.write_s": tracer.self_seconds("checkpoint.write"),
        "checkpoint.writes": tracer.calls("checkpoint.write"),
        "checkpoint.bytes": tracer.checkpoint_bytes,
        "checkpoint.load_s": tracer.self_seconds("checkpoint.load"),
        "pool.map_build_s": tracer.self_seconds("pool.map.build"),
        "pool.map_build_calls": tracer.calls("pool.map.build"),
        "pool.map_merge_s": tracer.self_seconds("pool.map.merge"),
        "pool.map_merge_calls": tracer.calls("pool.map.merge"),
        "span.shard_build_s": span_seconds(events, "shard.build"),
        "span.merge_round_s": span_seconds(events, "merge.round"),
        "span.pool_dispatch_s": span_seconds(events, "pool.dispatch"),
        "trace.wall_s": wall,
        "trace.self_sum_s": tracer.total_self_seconds(),
        "trace.self_share": tracer.total_self_seconds() / wall,
    }


# Per-layer values that must repeat exactly between traced repetitions.
EXACT_KEYS = (
    "guardrails.rows", "tree.bulk_insert_calls", "tree.insert_cf_calls",
    "bulk.windows", "bulk.full_windows", "bulk.absorbed_rows",
    "bulk.fallback_rows", "io.splits", "io.merges", "rebuild.calls",
    "io.rebuilds", "kernel.calls", "kernel.rows", "serve.batches",
    "serve.queries", "checkpoint.writes", "checkpoint.bytes",
    "pool.map_build_calls", "pool.map_merge_calls",
)


def run_traced(workload, seconds: float) -> dict:
    ledger = Ledger()
    handle, _, setup_s = timed_setup(workload)
    traced_handle = None if workload.rep_includes_setup else workload.build(traced=True)
    untraced: list[tuple[Rep, float]] = []
    traced: list[tuple[Rep, Tracer, float]] = []
    started = time.perf_counter()
    while (len(traced) < MIN_TRACED_REPS or not untraced
           or time.perf_counter() - started < seconds):
        plain = ledger.run("untraced repetition", lambda: timed_rep(workload, handle))
        if plain is not None:
            ledger.record("untraced repetition", plain[0].problems)
            untraced.append(plain)
        tracer = Tracer()
        result = ledger.run("traced repetition",
                            lambda: timed_rep(workload, traced_handle, tracer))
        if result is not None:
            ledger.record("traced repetition", result[0].problems)
            traced.append((result[0], tracer, result[1]))
        if ledger.failed > MIN_TRACED_REPS:
            break
    workload.close(handle)
    if traced_handle is not None:
        workload.close(traced_handle)
    record_calibrations(ledger)
    if not traced or not untraced:
        return {"ok": False, "attempted": ledger.attempted, "failed": ledger.failed,
                "failures": ledger.failures, "setup_s": setup_s}

    per_rep = [layer_metrics(rep, tracer, wall) for rep, tracer, wall in traced]
    first = per_rep[0]
    repeat = [k for k in EXACT_KEYS for m in per_rep[1:] if m[k] != first[k]]
    ledger.record("counters repeat", [f"{k} differs between traced runs" for k in repeat])
    same = all(np.array_equal(rep.centroids, untraced[0][0].centroids) for rep, _, _ in traced)
    ledger.record("traced centroids", [] if same else [
        "traced centroids differ from untraced centroids"])
    shares = [m["trace.self_share"] for m in per_rep]
    off = [s for s in shares if abs(1.0 - s) > COVERAGE_TOLERANCE]
    ledger.record("self-time sum", [
        f"layer self times cover {s:.1%} of traced wall time" for s in off])

    metrics = {k: (first[k] if k in EXACT_KEYS else statistics.median(m[k] for m in per_rep))
               for k in first}
    # Batch latency from the untraced passes: many more samples, no wrappers.
    batch_ms = [s * 1e3 for rep, _ in untraced for s in rep.batch_s]
    if batch_ms:
        metrics["serve.batch_p50_ms"] = percentile(batch_ms, 50)
        metrics["serve.batch_p99_ms"] = percentile(batch_ms, 99)
        metrics["serve.batch_samples"] = len(batch_ms)
    plain_wall = statistics.median(wall for _, wall in untraced)
    metrics["trace.overhead"] = statistics.median(w for _, _, w in traced) / plain_wall - 1.0
    metrics["trace.reps"] = len(traced)
    return {
        "ok": True,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.failures,
        "setup_s": setup_s,
        "layers": metrics,
        "call_counts": traced[0][1].call_counts(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("prep", "probe", "main"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, required=True)
    args = parser.parse_args(argv)

    workload = make_workload(args.workload, args.seed, args.scale)
    if args.role == "prep":
        workload.prepare()
        out: dict = {"ok": True}
    elif args.role == "probe":
        handle, setup_wall, setup_s = timed_setup(workload)
        workload.close(handle)
        problems = [p for sample in CALIBRATIONS for p in sample]
        out = ({"ok": False, "error": "; ".join(problems)} if problems
               else {"ok": True, "setup_s": setup_s, "setup_wall_s": setup_wall})
    elif args.trace:
        out = run_traced(workload, args.seconds)
    else:
        out = run_main(workload, args.seconds)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
