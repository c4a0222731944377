"""The BIRCH estimator: Phases 1-4 glued together (Figure 1 of the paper).

* **Phase 1** scans the data once, building a memory-bounded CF-tree;
  memory exhaustion triggers a threshold increase and rebuild, with
  optional outlier spilling and delay-split behaviour.
* **Phase 2** (optional) condenses the tree until the number of leaf
  entries fits the Phase 3 algorithm's input budget.
* **Phase 3** clusters the leaf entries globally (agglomerative HC over
  CFs, or CF-k-means).
* **Phase 4** (optional) refines with additional passes over the
  original data, labels every point, and can discard outliers.

The estimator supports both the batch ``fit`` path used by the paper's
experiments and an incremental ``partial_fit`` path that exposes
BIRCH's single-scan/streaming nature directly.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterator, Optional

import numpy as np

from repro.core.config import BirchConfig
from repro.core.evolve import DriftMonitor, EpochBucket, EpochBuckets
from repro.core.features import StableCF, point_rows, row_cf
from repro.core.global_clustering import (
    CFKMeans,
    CFMedoids,
    GlobalClustering,
    agglomerative_cf,
)
from repro.core.outliers import OutlierHandler
from repro.core.rebuild import rebuild_tree
from repro.core.refinement import PHASE4_LAYERS, RefinementResult, refine
from repro.core.threshold import ThresholdPolicy
from repro.core.tree import CFTree
from repro.errors import NotFittedError, PhaseError
from repro.serve.kernel import nearest_centroids
from repro.guardrails.quarantine import QuarantineStore
from repro.observe import TelemetrySnapshot, build_recorder
from repro.guardrails.validation import PointValidator, ScreenResult
from repro.guardrails.watchdog import MemoryWatchdog, WatchdogReport
from repro.pagestore.disk import DiskStore
from repro.pagestore.faults import FaultInjector, FaultyDiskStore
from repro.pagestore.iostats import IOStats
from repro.pagestore.memory import MemoryBudget
from repro.pagestore.page import PageLayout
from repro.parallel.chaos import ChaosInjector
from repro.parallel.pool import SharedPool
from repro.parallel.shm import SharedBlock, inline_slice

__all__ = ["Birch", "BirchResult", "PhaseTimings"]

_MAX_CONDENSE_ROUNDS = 64

#: Rows screened and fed per deadline check when Phase 1 runs under a
#: time budget (:meth:`Birch._scan`).
_SCAN_CHUNK = 1024

_NO_DATA_MESSAGE = "no data inserted yet; call fit or partial_fit first"
_NOT_FITTED_MESSAGE = "not fitted yet; call fit or finalize first"

# Under decay, leaf entries whose weight has faded below one point's
# worth of evidence are stale arc residue: they no longer testify to the
# stream's current geography, but their geometry still distorts the
# diameter-driven Phase 3 merge order.  They are skipped as global
# clustering input (the mass stays in the tree, so the conservation
# ledger is untouched and fresh nearby points can re-validate them).
_DECAY_EVIDENCE_FLOOR = 1.0


@dataclass
class PhaseTimings:
    """Wall-clock seconds spent in each phase.

    ``phase1_ingest`` and ``phase1_rebuilds`` split ``phase1`` into the
    raw insertion scan and the threshold-increase rebuilds it triggered
    (they are components of ``phase1``, not additional phases, so
    ``total`` does not count them again).
    """

    phase1: float = 0.0
    phase2: float = 0.0
    phase3: float = 0.0
    phase4: float = 0.0
    phase1_ingest: float = 0.0
    phase1_rebuilds: float = 0.0

    @property
    def total(self) -> float:
        """Sum over all four phases."""
        return self.phase1 + self.phase2 + self.phase3 + self.phase4

    @property
    def phases_1_3(self) -> float:
        """Time through Phase 3 (the paper reports this separately)."""
        return self.phase1 + self.phase2 + self.phase3

    def to_dict(self) -> dict[str, float]:
        """Every timing field as a plain JSON-serialisable dict."""
        return {
            "phase1": self.phase1,
            "phase2": self.phase2,
            "phase3": self.phase3,
            "phase4": self.phase4,
            "phase1_ingest": self.phase1_ingest,
            "phase1_rebuilds": self.phase1_rebuilds,
        }

    @classmethod
    def from_dict(cls, data: dict[str, float]) -> "PhaseTimings":
        """Rebuild from :meth:`to_dict` output.

        Pre-PR-4 payloads lack ``phase1_ingest``/``phase1_rebuilds``;
        those default to 0.0 so old bench JSON still loads.
        """
        return cls(
            phase1=float(data.get("phase1", 0.0)),
            phase2=float(data.get("phase2", 0.0)),
            phase3=float(data.get("phase3", 0.0)),
            phase4=float(data.get("phase4", 0.0)),
            phase1_ingest=float(data.get("phase1_ingest", 0.0)),
            phase1_rebuilds=float(data.get("phase1_rebuilds", 0.0)),
        )


@dataclass
class BirchResult:
    """Everything the pipeline produces for one dataset.

    Attributes
    ----------
    centroids:
        Final cluster centroids, shape ``(k, d)``.
    clusters:
        Exact CFs of the final clusters.
    labels:
        Per-point labels from Phase 4 (``None`` when Phase 4 is off);
        ``-1`` marks discarded outliers.
    subclusters:
        The Phase 1/2 leaf entries fed into the global clustering.
    entry_labels:
        Phase 3 assignment of each subcluster to a cluster.
    outliers:
        Leaf entries left on the outlier disk at the end of Phase 1.
    timings, io, tree_stats:
        Performance accounting for the experiment harness.
    final_threshold, rebuilds:
        Where the Phase 1 threshold ended up and how many rebuilds it
        took to get there.
    refinement:
        The raw Phase 4 result (``None`` when Phase 4 is off).
    dropped_outlier_entries, dropped_outlier_points:
        Data discarded because the outlier disk faulted permanently
        under the ``"drop"`` degradation policy (0 on healthy runs).
    outlier_disk_degraded:
        True when a permanent fault took the outlier disk out of
        service during Phase 1 (regardless of policy).
    points_fed:
        Raw points presented at the ingest boundary (weighted), before
        validation.  With ``bad_point_policy`` of ``"skip"`` or
        ``"quarantine"``, ``labels`` covers only the *accepted* rows.
    quarantined_points, quarantined_by_reason:
        Points held in the quarantine store, total and per reason
        (``nan``/``inf``/``dimension``/``non_numeric``).
    invalid_dropped_points:
        Validation rejections *not* held in quarantine: skip-policy
        drops plus quarantine overflow.
    invalid_by_reason:
        Every validation rejection per reason (quarantined or dropped).
    watchdog:
        Memory-watchdog counters (``None`` before any data was seen).
    memory_degraded:
        True when the watchdog tripped into its degraded mode.
    telemetry:
        Frozen :class:`~repro.observe.TelemetrySnapshot` (counters,
        gauges, recent events) when ``config.observe`` enabled the
        recorder; ``None`` otherwise.  Pure observation — two runs
        differing only in this field's presence have byte-identical
        clustering output.
    parallel_incidents:
        Every rung of the parallel failure ladder taken during the
        sharded Phase 1 build, as plain dicts (``kind`` is one of
        ``worker.death``/``worker.hang``/``pool.respawn``/
        ``task.retry``/``task.escalated``/``task.error``; see
        :class:`repro.parallel.supervise.Incident`).  Empty on
        failure-free and single-process runs.  Recovery is invisible
        everywhere else: a fit that survived worker deaths is
        byte-identical to the failure-free run for the same
        ``(random_seed, n_jobs)``.
    forgotten_points:
        Raw points retired from the tree by sliding-window forgetting
        (``forget_before`` plus automatic window overflow).  A ledger
        column: the conservation identity counts forgotten mass
        explicitly, so it still balances exactly.
    decayed_mass:
        Mass the decay clock has evaporated: the raw point count minus
        the tree's weighted mass (0.0 when decay is off).  Reported
        separately from the integer ledger — decay changes *weights*,
        not where points are accounted.
    drift:
        Drift-monitor summary (alarm count, last alarm epoch/reasons,
        last centroid velocity) when ``config.drift_policy`` is set;
        ``None`` otherwise.
    """

    centroids: np.ndarray
    clusters: list[StableCF]
    labels: Optional[np.ndarray]
    subclusters: list[StableCF]
    entry_labels: np.ndarray
    outliers: list[StableCF]
    timings: PhaseTimings
    io: dict[str, int]
    tree_stats: dict[str, float]
    final_threshold: float
    rebuilds: int
    refinement: Optional[RefinementResult] = field(default=None, repr=False)
    dropped_outlier_entries: int = 0
    dropped_outlier_points: int = 0
    outlier_disk_degraded: bool = False
    points_fed: int = 0
    quarantined_points: int = 0
    quarantined_by_reason: dict[str, int] = field(default_factory=dict)
    invalid_dropped_points: int = 0
    invalid_by_reason: dict[str, int] = field(default_factory=dict)
    watchdog: Optional[WatchdogReport] = field(default=None, repr=False)
    memory_degraded: bool = False
    telemetry: Optional[TelemetrySnapshot] = field(default=None, repr=False)
    parallel_incidents: list[dict] = field(default_factory=list, repr=False)
    forgotten_points: int = 0
    decayed_mass: float = 0.0
    drift: Optional[dict] = field(default=None, repr=False)

    @property
    def n_clusters(self) -> int:
        """Number of clusters produced."""
        return len(self.clusters)

    def accounting(self) -> dict[str, int]:
        """Where every ingested point ended up (the conservation ledger).

        The identity ``clustered + outliers + quarantined + dropped +
        forgotten == fed`` holds exactly on every run — across fault
        injection, forgetting and checkpoint/resume —
        and is asserted by the guardrails and evolve test-suites.
        Decayed mass never appears here: decay scales *weights*, not
        point custody, and is reported separately as ``decayed_mass``.
        """
        return {
            "fed": self.points_fed,
            "clustered": int(self.tree_stats.get("points", 0)),
            "outliers": int(sum(cf.n for cf in self.outliers)),
            "quarantined": self.quarantined_points,
            "dropped": self.invalid_dropped_points
            + self.dropped_outlier_points,
            "forgotten": self.forgotten_points,
        }

    @property
    def conservation_ok(self) -> bool:
        """True when the :meth:`accounting` ledger balances exactly."""
        ledger = self.accounting()
        return (
            ledger["clustered"]
            + ledger["outliers"]
            + ledger["quarantined"]
            + ledger["dropped"]
            + ledger["forgotten"]
            == ledger["fed"]
        )


class Birch:
    """Four-phase BIRCH clustering over d-dimensional points.

    Parameters
    ----------
    config:
        A :class:`~repro.core.config.BirchConfig`; see its docstring for
        every knob.  ``n_clusters`` is the only required field.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import Birch, BirchConfig
    >>> rng = np.random.default_rng(0)
    >>> points = np.concatenate([
    ...     rng.normal(0.0, 0.3, (200, 2)),
    ...     rng.normal(5.0, 0.3, (200, 2)),
    ... ])
    >>> result = Birch(BirchConfig(n_clusters=2)).fit(points)
    >>> result.n_clusters
    2
    """

    def __init__(
        self,
        config: BirchConfig,
        *,
        outlier_injector: Optional[FaultInjector] = None,
        quarantine_injector: Optional[FaultInjector] = None,
        chaos_injector: Optional[ChaosInjector] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.config = config
        self.stats = IOStats()
        self._recorder = build_recorder(config.observe)
        if self._recorder.enabled:
            self.stats.observer = self._recorder
        self._outlier_injector = outlier_injector
        self._quarantine_injector = quarantine_injector
        self._chaos_injector = chaos_injector
        self._sleep = sleep
        self._dimensions: Optional[int] = None
        self._tree: Optional[CFTree] = None
        self._budget: Optional[MemoryBudget] = None
        self._outlier_handler: Optional[OutlierHandler] = None
        # True outliers drained from the disk by the last end-of-scan
        # resolution, held until more data reopens the scan.
        self._resolved_outliers: Optional[list[StableCF]] = None
        self._policy: Optional[ThresholdPolicy] = None
        self._points_seen = 0
        self._delay_mode = False
        self._result: Optional[BirchResult] = None
        self._rebuild_history: list[tuple[int, float]] = []
        self._next_checkpoint_at = config.checkpoint_every_points or 0
        self._mid_epoch_batch = False
        self._validator = PointValidator()
        self._quarantine: Optional[QuarantineStore] = None
        self._watchdog: Optional[MemoryWatchdog] = None
        self._rows_fed = 0
        self._points_fed = 0
        self._ingest_seconds = 0.0
        self._rebuild_seconds = 0.0
        # (start, rebuild seconds at start) of the batch _feed is in.
        self._feed_clock: Optional[tuple[float, float]] = None
        self._rebuild_timer_depth = 0
        self._pool: Optional[SharedPool] = None
        self._parallel_incidents: list[dict] = []
        self._task_deadline_override: Optional[float] = None
        # Evolving-stream state: the logical epoch counter (one tick per
        # partial_fit batch), the sliding window of epoch-tagged CF
        # deltas, the drift monitor, and the forgetting ledger column.
        self._epoch = 0
        self._epoch_buckets: Optional[EpochBuckets] = None
        self._drift_monitor: Optional[DriftMonitor] = None
        self._points_forgotten = 0
        self._subtract_clamps = 0

    # -- worker-pool lifecycle ---------------------------------------------------

    def close(self) -> None:
        """Release the persistent worker pool (idempotent, never raises).

        Safe to call any number of times, at any point — before any
        fit, mid-failure (a fit that raised), or after pool creation
        itself failed (the pool degrades to its serial fallback, which
        holds no processes).  As belt and braces the pool module also
        registers every live pool with an ``atexit`` hook and every
        worker is daemonic, so interpreter exit can never leave live
        worker processes; long-lived applications should still close
        (or use the estimator as a context manager) to return the
        processes promptly.  Fitted state is untouched; the next
        sharded fit simply re-creates workers.
        """
        pool = self._pool
        if pool is not None:
            try:
                pool.close()
            except Exception:  # pragma: no cover - teardown must not mask
                pass

    def __enter__(self) -> "Birch":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _ensure_pool(self, requested: int, n_tasks: int) -> SharedPool:
        """The persistent pool, sized for this dispatch.

        The effective process count is clamped to the machine
        (``os.cpu_count()``) and to the number of tasks that actually
        exist — processes beyond either bound cannot help.  Shard
        *count* is never clamped (it is part of the deterministic
        ``(seed, n_jobs)`` contract); only the processes executing the
        shards are.  A ``pool.clamped`` telemetry event records any
        reduction.  The pool persists across ``fit``/``partial_fit``
        calls and is resized (old workers released) only when the clamp
        changes.
        """
        procs = max(1, min(requested, os.cpu_count() or 1, n_tasks))
        if procs < requested and self._recorder.enabled:
            self._recorder.event(
                "pool.clamped",
                requested=requested,
                effective=procs,
                cpu_count=os.cpu_count() or 1,
                tasks=n_tasks,
            )
            self._recorder.count("pool.clamped")
        if self._pool is not None and self._pool.processes != procs:
            self._pool.close()
            self._pool = None
        if self._pool is None:
            self._pool = SharedPool(
                procs,
                parallel=self.config.effective_parallel,
                chaos=self._chaos_injector,
                sleep=self._sleep,
            )
        return self._pool

    @property
    def parallel_incidents(self) -> list[dict]:
        """Failure-ladder incidents of the current fit (see
        :class:`BirchResult.parallel_incidents`); populated even when
        the fit raised."""
        return list(self._parallel_incidents)

    # -- introspection -------------------------------------------------------

    @property
    def tree(self) -> CFTree:
        """The live CF-tree (raises before any data has been seen)."""
        if self._tree is None:
            raise NotFittedError(_NO_DATA_MESSAGE)
        return self._tree

    @property
    def points_seen(self) -> int:
        """Raw points consumed by Phase 1 so far."""
        return self._points_seen

    @property
    def result(self) -> BirchResult:
        """The last ``fit``/``finalize`` result."""
        if self._result is None:
            raise NotFittedError(_NOT_FITTED_MESSAGE)
        return self._result

    @property
    def rebuilds(self) -> int:
        """Tree rebuilds performed so far."""
        return self.stats.tree_rebuilds

    @property
    def epoch(self) -> int:
        """Logical epoch counter (one tick per ``partial_fit`` batch)."""
        return self._epoch

    @property
    def points_forgotten(self) -> int:
        """Raw points retired by sliding-window forgetting so far."""
        return self._points_forgotten

    @property
    def rebuild_history(self) -> list[tuple[int, float]]:
        """``(points_seen, new_threshold)`` at each Phase 1 rebuild.

        The paper's Section 6.1 analysis predicts roughly
        ``log2(N / N_0)`` rebuilds, i.e. the points-seen values should
        roughly double between consecutive rebuilds once the threshold
        heuristic is warmed up.
        """
        return list(self._rebuild_history)

    # -- Phase 1: incremental loading -------------------------------------------

    def partial_fit(
        self, points: np.ndarray, weights: Optional[np.ndarray] = None
    ) -> "Birch":
        """Feed a batch of points through Phase 1 (incremental).

        May be called repeatedly; the CF-tree, threshold and outlier
        disk persist across calls, which is exactly the paper's
        "incrementally clusters incoming ... data points" claim.

        Parameters
        ----------
        points:
            Batch of shape ``(n, d)``.
        weights:
            Optional positive integer multiplicities, shape ``(n,)``.
            A point with weight ``w`` is treated as ``w`` coincident
            points — the mechanism behind the paper's image study
            "weighting" of pixel values, exact by CF additivity.

        Raises
        ------
        InvalidPointError
            Under the default ``bad_point_policy="raise"`` when any row
            contains NaN/Inf, has the wrong dimensionality, or cannot
            be cast to float.  The ``"skip"`` and ``"quarantine"``
            policies account for bad rows instead of raising.

        Notes
        -----
        Each call is one *logical epoch*.  When ``decay_half_life`` is
        set the decay clock advances by one after the batch; when
        ``epoch_buckets`` is set the inserted mass is tagged into the
        current epoch's bucket (and the oldest bucket is retired once
        the window overflows); when ``drift_policy`` is set the drift
        monitor observes the epoch and may trigger its response.
        """
        self._ensure_evolve_state()
        clean, weight_arr = self._screen_batch(points, weights)
        evicted = self._tag_epoch_mass(clean, weight_arr)
        # The epoch bucket above already claims the whole batch, and the
        # decay clock has not advanced yet, so a checkpoint taken while
        # rows are still landing would be internally inconsistent
        # (retiring that bucket after a resume would subtract mass the
        # tree never received).  Defer periodic checkpoints to the end
        # of the batch, where bucket, tree and clock agree.
        self._mid_epoch_batch = self._evolve_active()
        try:
            self._feed(clean, weight_arr)
        finally:
            self._mid_epoch_batch = False
        if evicted:
            # Sliding-window overflow: the oldest epoch fell out of the
            # window while tagging this batch — retire it now.
            self._retire_buckets(evicted, trigger="window")
        self._advance_epoch()
        self._maybe_checkpoint()
        return self

    def _feed(
        self,
        points: np.ndarray,
        weight_arr: Optional[np.ndarray],
        n_jobs: int = 1,
    ) -> None:
        """Phase 1 insertion of an already-screened float64 batch.

        An unweighted batch with ``n_jobs > 1`` is built in shards
        (:meth:`_sharded_phase1`); everything else goes through
        :meth:`_ingest`.  This is the one place ingest time is measured:
        the batch's wall time minus the rebuilds it triggered.
        """
        if points.shape[0] == 0:
            return  # the whole batch was rejected (with accounting)
        sharded = n_jobs > 1 and weight_arr is None
        if not sharded:
            if self._tree is None:
                self._initialise(points.shape[1])
            self._reopen_scan()
        self._feed_clock = (time.perf_counter(), self._rebuild_seconds)
        try:
            if sharded:
                self._sharded_phase1(points, n_jobs)
            else:
                self._ingest(points, weight_arr)
        finally:
            self._ingest_seconds = self._ingest_time()
            self._feed_clock = None

    def _ingest_time(self) -> float:
        """Ingest seconds so far, the batch :meth:`_feed` is in included
        (a checkpoint written mid-batch carries its part)."""
        if self._feed_clock is None:
            return self._ingest_seconds
        start, rebuilds_before = self._feed_clock
        elapsed = time.perf_counter() - start
        return self._ingest_seconds + max(
            0.0, elapsed - (self._rebuild_seconds - rebuilds_before)
        )

    def _ingest(
        self, points: np.ndarray, weight_arr: Optional[np.ndarray]
    ) -> None:
        """Phase 1 scan of a batch through :meth:`CFTree.bulk_insert`.

        Each point goes in as the CF row of its weight (one point, or
        the image study's ``w`` coincident points; see
        :func:`~repro.core.features.point_rows`), on decayed trees too.
        The tree chooses per window between speculative windows and
        scalar runs; both build the tree of a per-row
        :meth:`_insert_one` loop.  Equivalence with that loop's budget
        checks rests on one invariant: only an insertion that allocates
        or frees a node can flip the memory budget's over/under state,
        and ``stop_on_alloc=True`` returns control here right after such
        an insertion, so a scalar run may span many calls.  If a
        rebuild leaves the tree over budget, the next call returns
        after the first row that needs a new entry, and this loop
        rebuilds again.  Checkpoint cadence is preserved by capping each
        call at the row whose weight reaches the next checkpoint
        boundary.  Delayed and degraded streams leave the fast path:
        the guarded per-row :meth:`_insert_one` owns their rows, whose
        extra per-insert checks are the point.
        """
        assert self._tree is not None and self._budget is not None
        ns, vecs, sqs = point_rows(points, weight_arr)
        n = ns.shape[0]
        # fed[i]: raw points in rows 0..i-1, the ledger's unit.
        fed = (
            np.arange(n + 1)
            if weight_arr is None
            else np.concatenate(([0], np.cumsum(weight_arr)))
        )
        every = self.config.checkpoint_every_points
        i = 0
        while i < n:
            if self._delay_mode or (
                self._watchdog is not None and self._watchdog.degraded
            ):
                for t in range(i, n):
                    self._insert_one(row_cf(ns[t], vecs[t], sqs[t]))
                return
            cap = n - i
            if every is not None:
                due = fed[i] + max(1, self._next_checkpoint_at - self._points_seen)
                cap = min(cap, int(np.searchsorted(fed, due)) - i)
            took = self._tree.bulk_insert(
                vecs[i : i + cap], ns[i : i + cap], sqs[i : i + cap],
                stop_on_alloc=True,
            )
            self._points_seen += int(fed[i + took] - fed[i])
            i += took
            if self._budget.over_budget:
                if self.config.delay_split and self._outlier_handler is not None:
                    self._delay_mode = True
                else:
                    self._rebuild()
            self._maybe_checkpoint()

    def _sharded_phase1(self, points: np.ndarray, n_jobs: int) -> None:
        """Sharded parallel Phase 1 (``fit(..., n_jobs=N)``).

        The batch is split into ``n_jobs`` contiguous shards, published
        once in shared memory, and built into per-shard CF-trees by the
        persistent worker pool.  The shard trees are then merged by CF
        additivity in pairwise tournament rounds (``ceil(log2 N)``
        rounds instead of a serial ``N``-step fold), each round's pairs
        dispatched on the same pool.  The winning tree's structure
        arrays are adopted bit-for-bit as the parent tree, and each
        shard's spilled potential outliers are re-resolved against it
        (absorb if it fits, else spill to the parent disk, else
        insert).  Deterministic for fixed ``(seed, n_jobs)``:
        ``np.array_split`` bounds are deterministic, shard builds are
        single-process, the pairing order is fixed, and the pool's
        ``map`` preserves task order — the worker *process* count never
        influences any result, only wall-clock.
        """
        try:
            self._sharded_phase1_inner(points, n_jobs)
        finally:
            # Bank the failure-ladder incidents whether the build
            # completed or raised — a typed failure must still report
            # what the supervisor saw (BirchResult.parallel_incidents /
            # Birch.parallel_incidents).
            if self._pool is not None:
                self._parallel_incidents.extend(
                    incident.to_dict()
                    for incident in self._pool.reset_incidents()
                )

    def _shard_configs(self, n_jobs: int) -> tuple[BirchConfig, BirchConfig]:
        """Worker configs for shard builds and merge rounds.

        Shard builders split the parent's memory/disk budgets ``n_jobs``
        ways; merge workers get the *full* memory budget, because an
        intermediate merged tree must fit wherever the final tree will
        live.  Both strip checkpointing, validation and file-backed
        observers — those belong to the parent alone.
        """
        build_config = replace(
            self.config,
            n_jobs=1,
            checkpoint_every_points=None,
            checkpoint_path=None,
            validate_points=False,
            phase4_passes=0,
            # Workers keep their own in-memory recorders (counters merge
            # below) but must not race the parent for its trace/metrics
            # files.
            observe=(
                None
                if self.config.observe is None
                else replace(
                    self.config.observe, trace_path=None, metrics_path=None
                )
            ),
            memory_bytes=max(
                self.config.memory_bytes // n_jobs, 4 * self.config.page_size
            ),
            disk_bytes=max(
                self.config.effective_disk_bytes // n_jobs, self.config.page_size
            ),
            total_points_hint=(
                None
                if self.config.total_points_hint is None
                else max(1, self.config.total_points_hint // n_jobs)
            ),
        )
        merge_config = replace(
            build_config,
            memory_bytes=self.config.memory_bytes,
            disk_bytes=self.config.effective_disk_bytes,
            total_points_hint=self.config.total_points_hint,
        )
        return build_config, merge_config

    def _sharded_phase1_inner(self, points: np.ndarray, n_jobs: int) -> None:
        from repro.parallel.worker import (
            OP_BUILD,
            OP_MERGE,
            build_shard,
            merge_pair,
        )

        dimensions = points.shape[1]
        build_config, merge_config = self._shard_configs(n_jobs)
        # Contiguous np.array_split bounds; empty shards (n < n_jobs)
        # are dropped — they contribute nothing and a worker cannot
        # build a tree from zero rows.
        bounds = []
        lo = 0
        for shard_len in (len(s) for s in np.array_split(points, n_jobs)):
            if shard_len:
                bounds.append((lo, lo + shard_len))
            lo += shard_len
        if not bounds:
            self._initialise(dimensions)
            return
        rec = self._recorder
        pool = self._ensure_pool(n_jobs, len(bounds))

        # Publish the batch once; workers view [lo, hi) slices without
        # any rows crossing the pipe.  Serial fallback (and shm-less
        # platforms) read inline views of the same array instead — the
        # float values are bit-identical either way.
        block: Optional[SharedBlock] = None
        if not pool.serial:
            try:
                block = SharedBlock(points)
            except OSError:
                block = None
        try:
            tasks = [
                {
                    "config": build_config,
                    "shard": (
                        block.slice_spec(lo, hi)
                        if block is not None
                        else inline_slice(points, lo, hi)
                    ),
                }
                for lo, hi in bounds
            ]
            with rec.span(
                "shard.build", shards=len(tasks), rows=points.shape[0]
            ):
                states = pool.map(
                    build_shard,
                    tasks,
                    recorder=rec,
                    op=OP_BUILD,
                    task_deadline=self._task_deadline_override,
                )
        finally:
            if block is not None:
                block.close()

        # Bank every shard's outliers and additive counters now, in
        # shard order: merge-round states carry only their own fold's
        # counters, so nothing is double-counted and the totals do not
        # depend on the pairing tree.
        pending_outliers: list[StableCF] = []
        for state in states:
            pending_outliers.extend(state["outliers"])  # type: ignore[arg-type]
            self.stats.merge_counts(state["io"])  # type: ignore[arg-type]
            if rec.enabled:
                rec.merge_counts(state.get("telemetry", {}))  # type: ignore[arg-type]

        # Pairwise tournament reduction: adjacent pairs each round, odd
        # tree passes through.  ceil(log2(shards)) rounds, every round's
        # pairs independent and dispatched together on the pool.
        round_no = 0
        while len(states) > 1:
            pairs = [
                {
                    "config": merge_config,
                    "dimensions": dimensions,
                    "left": states[i],
                    "right": states[i + 1],
                }
                for i in range(0, len(states) - 1, 2)
            ]
            with rec.span("merge.round", round=round_no, pairs=len(pairs)):
                merged = pool.map(
                    merge_pair,
                    pairs,
                    recorder=rec,
                    op=OP_MERGE,
                    task_deadline=self._task_deadline_override,
                )
            for state in merged:
                self.stats.merge_counts(state["io"])  # type: ignore[arg-type]
                if rec.enabled:
                    rec.merge_counts(state.get("telemetry", {}))  # type: ignore[arg-type]
            if len(states) % 2:
                merged.append(states[-1])
            states = merged
            round_no += 1

        # Adopt the winner bit-for-bit: same structure arrays the merge
        # workers exchanged, now under the parent's budget and ledger.
        final = states[0]
        self._initialise(dimensions)
        assert self._tree is not None and self._budget is not None
        layout = self._tree.layout
        self._budget.reset()  # the placeholder root page is discarded
        self._tree = CFTree.from_structure(
            final["structure"],  # type: ignore[arg-type]
            layout=layout,
            threshold=max(
                self.config.initial_threshold, float(final["threshold"])  # type: ignore[arg-type]
            ),
            metric=self.config.metric,
            threshold_kind=self.config.threshold_kind,
            points=int(final["points"]),  # type: ignore[arg-type]
            budget=self._budget,
            stats=self.stats,
            merging_refinement=self.config.merging_refinement,
            recorder=self._recorder,
        )
        self._points_seen = int(final["points"])  # type: ignore[arg-type]
        while self._budget.over_budget:
            self._rebuild()
        self._maybe_checkpoint()

        # Re-resolve every shard's potential outliers against the final
        # merged tree, in shard order (absorb if it fits an existing
        # entry, else spill to the parent disk, else insert properly) —
        # each path adds the CF's point count exactly once, keeping the
        # conservation ledger exact.
        for cf in pending_outliers:
            assert self._tree is not None
            if self._tree.try_absorb_cf(cf):
                self._points_seen += cf.n
                self._maybe_checkpoint()
            elif self._outlier_handler is not None and self._outlier_handler.spill(
                cf
            ):
                self._points_seen += cf.n
                self._maybe_checkpoint()
            else:
                self._insert_one(cf)

    def _insert_one(self, cf: StableCF) -> None:
        """Insert one CF through the guarded per-row path.

        Its callers try :meth:`CFTree.try_absorb_cf` first (the
        delay-split branch below and :meth:`_insert_degraded` do it
        themselves, the sharded fit's outlier re-resolution before the
        call), so, as in :meth:`CFTree.bulk_insert`, the budget is
        re-checked only after a row that did not absorb.
        """
        assert self._tree is not None and self._budget is not None
        if self._watchdog is not None and self._watchdog.degraded:
            self._insert_degraded(cf)
            return
        if self._delay_mode and self._outlier_handler is not None:
            # Delay-split option: while memory is exhausted, absorb what
            # fits and spill the rest instead of rebuilding per point.
            if self._tree.try_absorb_cf(cf):
                self._points_seen += cf.n
                self._maybe_checkpoint()
                return
            if self._outlier_handler.spill(cf):
                self._points_seen += cf.n
                self._maybe_checkpoint()
                return
            # Disk is full too: fall through to a proper rebuild.
            self._rebuild()
            self._delay_mode = False
        self._tree.insert_cf(cf)
        self._points_seen += cf.n
        if self._budget.over_budget:
            if self.config.delay_split and self._outlier_handler is not None:
                self._delay_mode = True
            else:
                self._rebuild()
        self._maybe_checkpoint()

    def _insert_degraded(self, cf: StableCF) -> None:
        """Degraded-mode insertion: no per-insert rebuilds.

        Once the memory watchdog has tripped, threshold growth has
        stopped paying for rebuilds, so the hot path changes: absorb
        into the existing tree where possible, spill to the outlier
        disk under the ``"spill"`` mode, and force an aggressive
        coarsen rebuild only when the tree has grown materially since
        the last one (geometric, not per-point — see
        :class:`~repro.guardrails.watchdog.MemoryWatchdog`).
        """
        assert self._tree is not None and self._budget is not None
        assert self._watchdog is not None
        if self._tree.try_absorb_cf(cf):
            self._points_seen += cf.n
            self._maybe_checkpoint()
            return
        if (
            self._watchdog.mode == "spill"
            and self._outlier_handler is not None
            and self._outlier_handler.spill(cf)
        ):
            self._points_seen += cf.n
            self._maybe_checkpoint()
            return
        self._tree.insert_cf(cf)
        self._points_seen += cf.n
        if self._watchdog.should_recoarsen(
            self._budget.pages_in_use, self._budget.capacity_pages
        ):
            self._coarsen_rebuild()
        self._maybe_checkpoint()

    def _coarsen_rebuild(self) -> None:
        """Forced degraded-mode rebuild with an aggressive threshold."""
        with self._rebuild_timer():
            self._coarsen_rebuild_inner()

    def _coarsen_rebuild_inner(self) -> None:
        assert self._tree is not None and self._policy is not None
        assert self._watchdog is not None and self._budget is not None
        suggested = self._policy.next_threshold(self._tree, self._points_seen)
        forced = self._tree.threshold * self._watchdog.coarsen_factor
        new_threshold = max(suggested, forced)
        if not np.isfinite(new_threshold):
            # Repeated doubling can overflow; a finite ceiling already
            # merges everything mergeable, which is the intent here.
            new_threshold = np.finfo(np.float64).max / 4
        self._rebuild_history.append((self._points_seen, new_threshold))
        if self._recorder.enabled:
            self._recorder.event(
                "rebuild.trigger",
                reason="coarsen",
                points_seen=self._points_seen,
                new_threshold=new_threshold,
            )
            self._recorder.count("watchdog.coarsen_rebuilds")
        sink = None
        predicate = None
        if self._outlier_handler is not None:
            handler = self._outlier_handler
            sink = handler.spill
            if self._watchdog.mode == "spill":
                # Aggressive rule: anything below the mean goes to disk.
                predicate = lambda ns, mean: (ns < mean) & (mean > 1.0)
            else:
                predicate = handler.potential_outliers
        self._tree = self._rebuild_tree_preserving_decay(
            new_threshold, sink, predicate
        )
        if self._outlier_handler is not None and self._outlier_handler.disk.is_full:
            self._outlier_handler.reabsorb(self._tree)
        self._watchdog.note_coarsen_rebuild(self._budget.pages_in_use)

    def _evolve_active(self) -> bool:
        """True when any evolving-stream feature is configured."""
        cfg = self.config
        return (
            cfg.decay_half_life is not None
            or cfg.epoch_buckets is not None
            or cfg.drift_policy is not None
        )

    def _maybe_checkpoint(self) -> None:
        """Periodic crash-safety checkpoint (``checkpoint_every_points``).

        Deferred to the epoch boundary while an evolving-stream batch
        is mid-flight (see :meth:`partial_fit`): a mid-batch archive
        would pair a fully-tagged epoch bucket with a partially-fed
        tree and a stale decay clock.
        """
        every = self.config.checkpoint_every_points
        if every is None or self._points_seen < self._next_checkpoint_at:
            return
        if self._mid_epoch_batch:
            return
        assert self.config.checkpoint_path is not None
        self.checkpoint(self.config.checkpoint_path)
        self._next_checkpoint_at = (self._points_seen // every + 1) * every

    @contextmanager
    def _rebuild_timer(self):
        """Accumulate wall time into ``_rebuild_seconds`` (outermost only,
        so a rebuild that escalates into a coarsen rebuild is not
        double-counted)."""
        start = time.perf_counter()
        self._rebuild_timer_depth += 1
        try:
            yield
        finally:
            self._rebuild_timer_depth -= 1
            if self._rebuild_timer_depth == 0:
                self._rebuild_seconds += time.perf_counter() - start

    def _rebuild(self) -> None:
        with self._rebuild_timer():
            self._rebuild_inner()

    def _rebuild_inner(self) -> None:
        assert self._tree is not None and self._policy is not None
        new_threshold = self._policy.next_threshold(self._tree, self._points_seen)
        self._rebuild_history.append((self._points_seen, new_threshold))
        if self._recorder.enabled:
            self._recorder.event(
                "rebuild.trigger",
                reason="budget",
                points_seen=self._points_seen,
                new_threshold=new_threshold,
            )
        sink = None
        predicate = None
        if self._outlier_handler is not None:
            handler = self._outlier_handler
            sink = handler.spill
            predicate = handler.potential_outliers
        self._tree = self._rebuild_tree_preserving_decay(
            new_threshold, sink, predicate
        )
        if self._outlier_handler is not None and self._outlier_handler.disk.is_full:
            self._outlier_handler.reabsorb(self._tree)
        if self._watchdog is not None and self._budget is not None:
            already_degraded = self._watchdog.degraded
            self._watchdog.observe_rebuild(
                self._budget.pages_in_use, self._budget.capacity_pages
            )
            if self._watchdog.degraded and not already_degraded:
                if self._recorder.enabled:
                    self._recorder.event(
                        "watchdog.trip",
                        mode=self._watchdog.mode,
                        points_seen=self._points_seen,
                        ineffective_rebuilds=self._watchdog._ineffective_total,
                    )
                    self._recorder.count("watchdog.trips")
                # The escalation limit just tripped: one immediate
                # aggressive rebuild, then the degraded insert path.
                self._coarsen_rebuild()

    def _rebuild_tree_preserving_decay(
        self,
        new_threshold: float,
        sink: Optional[Callable[[StableCF], bool]],
        predicate: Optional[Callable[[np.ndarray, float], np.ndarray]],
    ) -> CFTree:
        """Rebuild the tree, carrying the decay state across.

        Without decay this is a plain :func:`rebuild_tree`.  With decay
        the rebuilt tree re-accumulates a *weighted* point count that
        must be restored to the raw ledger count, and the
        half-life/clock pair is reinstalled.
        """
        assert self._tree is not None
        old = self._tree
        if old.decay_half_life is None:
            return rebuild_tree(
                old, new_threshold, outlier_sink=sink, outlier_predicate=predicate
            )
        raw_points = old._points
        half_life, clock = old.decay_half_life, old.decay_clock
        # Decay disables the outlier path (fractional mass never goes
        # to the byte-exact outlier disk), so no sink/predicate here.
        new = rebuild_tree(old, new_threshold)
        new._points = raw_points
        new.set_decay(half_life, clock)
        return new

    def _initialise(self, dimensions: int) -> None:
        layout = PageLayout(page_size=self.config.page_size, dimensions=dimensions)
        self._dimensions = dimensions
        self._budget = MemoryBudget(self.config.memory_bytes, layout)
        self._watchdog = MemoryWatchdog(
            escalation_limit=self.config.rebuild_escalation_limit,
            mode=self.config.degraded_mode,
        )
        self._policy = ThresholdPolicy(
            expansion_factor=self.config.expansion_factor,
            total_points_hint=self.config.total_points_hint,
            mode=self.config.threshold_mode,
        )
        self._tree = CFTree(
            layout=layout,
            threshold=self.config.initial_threshold,
            metric=self.config.metric,
            threshold_kind=self.config.threshold_kind,
            budget=self._budget,
            stats=self.stats,
            merging_refinement=self.config.merging_refinement,
            recorder=self._recorder,
        )
        if self.config.decay_half_life is not None:
            self._tree.set_decay(self.config.decay_half_life, self._epoch)
        # Decay and the outlier disk are mutually exclusive: the disk
        # stores byte-exact CF records whose integer counts cannot carry
        # the fractional mass a decayed entry holds, so decayed runs
        # keep every point in-tree (``result.outliers`` stays empty).
        if self.config.outlier_handling and self.config.decay_half_life is None:
            disk: DiskStore[StableCF]
            if self._outlier_injector is not None:
                disk = FaultyDiskStore(
                    capacity_bytes=self.config.effective_disk_bytes,
                    record_bytes=layout.outlier_record_bytes(),
                    page_size=self.config.page_size,
                    stats=self.stats,
                    injector=self._outlier_injector,
                )
            else:
                disk = DiskStore(
                    capacity_bytes=self.config.effective_disk_bytes,
                    record_bytes=layout.outlier_record_bytes(),
                    page_size=self.config.page_size,
                    stats=self.stats,
                )
            self._outlier_handler = OutlierHandler(
                disk,
                fraction=self.config.outlier_fraction,
                fault_policy=self.config.outlier_fault_policy,
                retry_attempts=self.config.io_retry_attempts,
                retry_base_delay=self.config.io_retry_base_delay,
                sleep=self._sleep,
                recorder=self._recorder,
            )

    # -- evolving streams: epochs, forgetting, drift ----------------------------

    def _ensure_evolve_state(self) -> None:
        cfg = self.config
        if cfg.epoch_buckets is not None and self._epoch_buckets is None:
            self._epoch_buckets = EpochBuckets(
                cfg.epoch_buckets, cfg.epoch_bucket_entries
            )
        if cfg.drift_policy is not None and self._drift_monitor is None:
            self._drift_monitor = DriftMonitor(
                window=cfg.drift_window,
                velocity_factor=cfg.drift_velocity_factor,
                rebuild_factor=cfg.drift_rebuild_factor,
            )

    def _tag_epoch_mass(
        self, points: np.ndarray, weight_arr: Optional[np.ndarray]
    ) -> list[EpochBucket]:
        """Record this batch's mass into the current epoch's bucket.

        Returns any bucket evicted by window overflow; the caller
        retires it after the batch lands in the tree.
        """
        buckets = self._epoch_buckets
        if buckets is None or points.shape[0] == 0:
            return []
        evicted: list[EpochBucket] = []
        for i in range(points.shape[0]):
            w = 1.0 if weight_arr is None else float(weight_arr[i])
            old = buckets.record(self._epoch, w, points[i], 0.0)
            if old is not None:
                evicted.append(old)
        return evicted

    def _advance_epoch(self) -> None:
        """Close the logical epoch a ``partial_fit`` batch opened."""
        if self._tree is None:
            return
        epoch = self._epoch
        self._epoch = epoch + 1
        if self._tree.decay_half_life is not None:
            self._tree.advance_decay_clock(1)
        self._observe_drift(epoch)

    def _observe_drift(self, epoch: int) -> None:
        monitor = self._drift_monitor
        if monitor is None or self._tree is None:
            return
        total = self._tree.summary_cf()
        if total.n <= 0:
            return
        alarm = monitor.observe_epoch(
            epoch, total.centroid, self.stats.tree_rebuilds
        )
        if alarm is None:
            return
        rec = self._recorder
        if rec.enabled:
            rec.event(
                "drift.alarm",
                epoch=alarm["epoch"],
                reasons=",".join(alarm["reasons"]),
                velocity=alarm["velocity"],
                rebuilds=alarm["rebuilds"],
            )
            rec.count("drift.alarms")
        policy = self.config.drift_policy
        if policy == "auto_decay":
            assert self._tree.decay_half_life is not None
            # Double-time the clock for this epoch: stale mass fades
            # twice as fast while the alarm condition persists.
            self._tree.advance_decay_clock(1)
        elif policy == "recondense":
            with self._rebuild_timer():
                if rec.enabled:
                    rec.event(
                        "rebuild.trigger",
                        reason="drift",
                        points_seen=self._points_seen,
                        new_threshold=self._tree.threshold,
                    )
                sink = None
                predicate = None
                if self._outlier_handler is not None:
                    sink = self._outlier_handler.spill
                    predicate = self._outlier_handler.potential_outliers
                self._tree = self._rebuild_tree_preserving_decay(
                    self._tree.threshold, sink, predicate
                )
        if policy != "alarm" and rec.enabled:
            rec.event("drift.response", policy=policy, epoch=epoch)
            rec.count("drift.responses")

    def forget_before(self, epoch: int) -> dict:
        """Retire every epoch bucket strictly older than ``epoch``.

        The retired buckets' CF deltas are subtracted back out of the
        tree (guarded, honest-accounting: only mass actually removed is
        counted), the conservation ledger's ``forgotten`` column grows
        by the raw points retired, and the tree is re-condensed at the
        current threshold when the subtraction left it ragged.

        Returns a stats dict (``buckets_retired``, ``requested_points``,
        ``forgotten_points``, ``removed_entries``, ``pruned_nodes``,
        ``clamped``, ``recondensed``).

        Raises
        ------
        NotFittedError
            Before any data has been seen.
        ValueError
            When ``config.epoch_buckets`` is unset (nothing was tagged,
            so there is nothing to forget).
        """
        if self._tree is None:
            raise NotFittedError(_NO_DATA_MESSAGE)
        if self._epoch_buckets is None:
            raise ValueError(
                "forget_before requires sliding-window tagging; set "
                "config.epoch_buckets"
            )
        self._reopen_scan()
        retired = self._epoch_buckets.retire_before(epoch)
        return self._retire_buckets(retired, trigger="forget_before")

    def _retire_buckets(
        self, buckets: list[EpochBucket], *, trigger: str
    ) -> dict:
        """Subtract retired buckets' deltas out of the tree.

        Decay weighting: bucket mass is recorded raw, so under decay
        each delta is scaled by the decay factor its epoch has accrued
        before subtraction, and the weighted mass actually removed is
        converted back to raw points for the ledger (clamped to the
        tree's raw count — the ledger never goes negative).
        """
        assert self._tree is not None
        tree = self._tree
        stats = {
            "buckets_retired": len(buckets),
            "requested_points": 0,
            "forgotten_points": 0,
            "removed_entries": 0,
            "pruned_nodes": 0,
            "clamped": 0,
            "recondensed": False,
        }
        if not buckets:
            return stats
        rec = self._recorder

        def clamp(magnitude: float) -> None:
            self._subtract_clamps += 1
            if rec.enabled:
                rec.count("cf.subtract_clamped")

        decaying = tree.decay_half_life is not None
        for bucket in buckets:
            stats["requested_points"] += int(round(bucket.points))
            g = 1.0
            if decaying:
                assert tree.decay_half_life is not None
                pending = tree.decay_clock - bucket.epoch
                # Fold single-epoch factors, mirroring how the tree
                # itself accrued them (one factor per clock advance) —
                # a one-shot 0.5**(pending/H) is not bit-equal to the
                # product and would leave spurious residue to clamp.
                step = 0.5 ** (1.0 / tree.decay_half_life)
                for _ in range(max(0, pending)):
                    g *= step
            for n, mean, ssd in bucket.iter_deltas():
                delta = StableCF(n * g, mean.copy(), ssd * g)
                if delta.n <= 1e-12:
                    continue
                sub = tree.subtract_cf(
                    delta, account_points=not decaying, on_clamp=clamp
                )
                stats["removed_entries"] += int(sub["removed_entries"])
                stats["pruned_nodes"] += int(sub["pruned_nodes"])
                stats["clamped"] += int(sub["clamped"])
                if decaying:
                    raw_sub = int(round(sub["subtracted_n"] / g)) if g > 0 else 0
                    raw_sub = min(max(0, raw_sub), tree._points)
                    tree._points -= raw_sub
                    stats["forgotten_points"] += raw_sub
                else:
                    stats["forgotten_points"] += int(round(sub["subtracted_n"]))
        self._points_forgotten += stats["forgotten_points"]
        if rec.enabled:
            rec.event(
                "forget.retire",
                trigger=trigger,
                buckets=stats["buckets_retired"],
                requested_points=stats["requested_points"],
                forgotten_points=stats["forgotten_points"],
                removed_entries=stats["removed_entries"],
                pruned_nodes=stats["pruned_nodes"],
            )
            rec.count("forget.retired_points", stats["forgotten_points"])
        if stats["pruned_nodes"] > 0 and tree._points > 0:
            # Subtraction collapsed whole nodes; re-condense at the
            # current threshold so the tree shape matches its mass.
            with self._rebuild_timer():
                if rec.enabled:
                    rec.event(
                        "rebuild.trigger",
                        reason="forget",
                        points_seen=self._points_seen,
                        new_threshold=tree.threshold,
                    )
                sink = None
                predicate = None
                if self._outlier_handler is not None:
                    sink = self._outlier_handler.spill
                    predicate = self._outlier_handler.potential_outliers
                self._tree = self._rebuild_tree_preserving_decay(
                    tree.threshold, sink, predicate
                )
            stats["recondensed"] = True
        return stats

    def _validate(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError(
                f"points must be a non-empty (n, d) array, got shape {points.shape}"
            )
        if self._dimensions is not None and points.shape[1] != self._dimensions:
            raise ValueError(
                f"dimension mismatch: estimator saw d={self._dimensions}, "
                f"batch has d={points.shape[1]}"
            )
        return points

    # -- ingest guardrails -------------------------------------------------------

    def _check_weights(
        self, weights: object, n_rows: int
    ) -> Optional[np.ndarray]:
        """Validate a raw weights argument against the raw row count."""
        if weights is None:
            return None
        weight_arr = np.asarray(weights)
        if weight_arr.shape != (n_rows,):
            raise ValueError(
                f"weights shape {weight_arr.shape} does not match "
                f"{n_rows} points"
            )
        if (weight_arr <= 0).any():
            raise ValueError("weights must be positive integers")
        return weight_arr.astype(np.int64)

    def _ensure_quarantine(self) -> QuarantineStore:
        """Lazily create the bounded quarantine store (needs d for sizing)."""
        if self._quarantine is None:
            d = self._validator.dimensions or 1
            # One record: the row's floats plus index/reason/weight slots.
            record_bytes = 8 * (d + 4)
            self._quarantine = QuarantineStore(
                capacity_bytes=self.config.effective_quarantine_bytes,
                record_bytes=record_bytes,
                page_size=self.config.page_size,
                stats=self.stats,
                injector=self._quarantine_injector,
                retry_attempts=self.config.io_retry_attempts,
                retry_base_delay=self.config.io_retry_base_delay,
                recorder=self._recorder,
            )
        return self._quarantine

    def _screen_batch(
        self, points: object, weights: object
    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """Validate one raw batch and apply the bad-point policy.

        Returns the accepted rows as a float64 array (byte-identical to
        the input rows — clean data is never rewritten) plus the
        correspondingly filtered weights.  Rejected rows are raised,
        skipped or quarantined per ``config.bad_point_policy``, always
        with exact per-reason accounting in point units.
        """
        if not self.config.validate_points:
            clean = self._validate(points)
            weight_arr = self._check_weights(weights, clean.shape[0])
            self._rows_fed += clean.shape[0]
            self._points_fed += (
                int(weight_arr.sum()) if weight_arr is not None else clean.shape[0]
            )
            return clean, weight_arr
        try:
            n_rows = len(points)  # type: ignore[arg-type]
        except TypeError:
            raise ValueError(
                "points must be a non-empty (n, d) array or a sequence of rows"
            )
        weight_arr = self._check_weights(weights, n_rows)
        if self._dimensions is not None:
            self._validator.dimensions = self._dimensions
        result = self._validator.screen(
            points, start_row=self._rows_fed, weights=weight_arr
        )
        self._rows_fed += n_rows
        self._points_fed += (
            int(weight_arr.sum()) if weight_arr is not None else n_rows
        )
        if result.rejected:
            if self._recorder.enabled:
                for record in result.rejected:
                    self._recorder.count("guardrails.rejected_points", record.weight)
                    self._recorder.count(
                        f"guardrails.rejected.{record.reason}", record.weight
                    )
            self._apply_bad_point_policy(result)
        return result.points, result.weights

    def _screen_rescan(self, points: object) -> np.ndarray:
        """Screen a re-scan of already-fed rows (``improve``).

        The validator rules and ``bad_point_policy`` are those of
        ``fit``, but a re-scan feeds nothing new, so it leaves the ledger
        alone: ``"raise"`` raises :class:`InvalidPointError` naming the
        row, while ``"skip"`` and ``"quarantine"`` leave the bad rows out
        of the scan without counting or storing them a second time.
        """
        if not self.config.validate_points:
            return self._validate(points)
        validator = PointValidator(self._dimensions)
        result = validator.screen(points)
        if self.config.bad_point_policy == "raise":
            validator.raise_first(result)
        return result.points

    def _apply_bad_point_policy(self, result: ScreenResult) -> None:
        policy = self.config.bad_point_policy
        if policy == "raise":
            self._validator.raise_first(result)
        elif policy == "quarantine":
            store = self._ensure_quarantine()
            for record in result.rejected:
                store.add(record)
        # "skip": the validator's counters already account for the rows.

    # -- crash safety --------------------------------------------------------------

    def checkpoint(
        self,
        path: str | Path,
        *,
        injector: Optional[FaultInjector] = None,
    ) -> None:
        """Atomically snapshot the full Phase 1 state to ``path``.

        The checkpoint captures the exact CF-tree (structure and leaf
        chain included), current threshold, rebuild history, threshold
        policy state, outlier disk contents, I/O ledger and the config
        itself, sealed with a sha256 checksum and written via
        write-to-temp + fsync + rename.  A stream killed after this
        call resumes bit-for-bit with :meth:`resume`.

        Raises
        ------
        NotFittedError
            Before any data has been inserted (there is nothing to
            snapshot yet).
        """
        if self._tree is None:
            raise NotFittedError(_NO_DATA_MESSAGE)
        from repro.core.checkpoint import write_checkpoint

        if self._recorder.enabled:
            with self._recorder.span(
                "checkpoint.write",
                path=str(path),
                points_seen=self._points_seen,
            ):
                write_checkpoint(path, self, injector=injector, sleep=self._sleep)
            self._recorder.count("checkpoint.writes")
            return
        write_checkpoint(path, self, injector=injector, sleep=self._sleep)

    @classmethod
    def resume(
        cls,
        path: str | Path,
        *,
        outlier_injector: Optional[FaultInjector] = None,
        quarantine_injector: Optional[FaultInjector] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> "Birch":
        """Restore an estimator from a :meth:`checkpoint` file.

        The returned estimator continues the interrupted stream exactly:
        feeding it the points that followed the checkpoint and calling
        :meth:`finalize` (or more ``partial_fit`` + ``fit`` phases)
        yields results identical to a run that was never interrupted.

        Parameters
        ----------
        path:
            Checkpoint file.
        outlier_injector:
            Optional fault injector installed on the restored outlier
            disk (for fault-tolerance tests: the resumed process may
            face the same faulty device).
        quarantine_injector:
            Likewise for the restored quarantine store.
        sleep:
            Backoff sleep injection point for tests.
        """
        from repro.core.checkpoint import load_checkpoint

        return load_checkpoint(
            path,
            outlier_injector=outlier_injector,
            quarantine_injector=quarantine_injector,
            sleep=sleep,
        )

    # -- the full pipeline ---------------------------------------------------------

    def fit(
        self, points: np.ndarray, *, n_jobs: Optional[int] = None
    ) -> BirchResult:
        """Run all configured phases on ``points`` and return the result.

        Parameters
        ----------
        points:
            The dataset, shape ``(n, d)``.
        n_jobs:
            Override ``config.n_jobs`` for this call: ``N > 1`` builds
            the Phase 1 tree from ``N`` contiguous shards in worker
            processes and merges them by CF additivity (see
            :class:`~repro.core.config.BirchConfig`).

        Raises
        ------
        InvalidPointError
            Under the default ``bad_point_policy="raise"`` when any row
            fails validation; with ``"skip"``/``"quarantine"`` the bad
            rows are accounted for and the clean rows are clustered.
        NotFittedError
            If validation rejected *every* row (nothing to cluster).
        """
        jobs = self.config.n_jobs if n_jobs is None else int(n_jobs)
        if jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {jobs}")
        if jobs > 1 and self.config.decay_half_life is not None:
            raise ValueError(
                "decay_half_life requires a sequential stream (n_jobs == 1); "
                "the decay clock has no meaning across shards"
            )
        self._reset()
        timings = PhaseTimings()
        if self._recorder.enabled:
            self._recorder.event("run.start", mode="fit", n_jobs=jobs)
        with self._phase(timings, "phase1"):
            clean, outliers, _ = self._scan(points, n_jobs=jobs)
        with self._phase(timings, "phase2"):
            self._phase2_condense()
        with self._phase(timings, "phase3"):
            global_result = self._phase3_cluster()
        refinement = self._phase4_refine(timings, clean, global_result.centroids)
        return self._package_result(
            timings, global_result, outliers, refinement, mode="fit"
        )

    @contextmanager
    def _phase(self, timings: PhaseTimings, name: str) -> Iterator[dict]:
        """Time one phase: the one place phase seconds are measured.

        Adds the block's wall time to ``timings.<name>`` (adds, so a
        ``finalize`` can carry the stream's earlier Phase 1 time and an
        ``improve`` the earlier Phase 4 time) and, when the block
        completes, emits a ``phase`` event whose extra fields the block
        may put in the yielded dict.  Phase 1 also records its
        ingest/rebuild split.  The time is recorded even when the block
        raises, so a supervised run can say how long a failed phase ran.
        """
        fields: dict[str, object] = {}
        start = time.perf_counter()
        try:
            yield fields
        finally:
            seconds = getattr(timings, name) + (time.perf_counter() - start)
            setattr(timings, name, seconds)
            if name == "phase1":
                timings.phase1_ingest = self._ingest_seconds
                timings.phase1_rebuilds = self._rebuild_seconds
        if self._recorder.enabled:
            if name == "phase1":
                fields.update(
                    ingest_seconds=timings.phase1_ingest,
                    rebuild_seconds=timings.phase1_rebuilds,
                    points_seen=self._points_seen,
                )
            self._recorder.event("phase", name=name, seconds=seconds, **fields)

    def _scan(
        self,
        points: object,
        *,
        n_jobs: int = 1,
        deadline: Optional[float] = None,
    ) -> tuple[np.ndarray, list[StableCF], int]:
        """Phase 1 over a whole dataset: screen, feed, record, resolve.

        Returns the accepted rows (Phase 4 scans them again), the true
        outliers left at the end of the scan, and the raw rows the
        ``deadline`` (a ``time.monotonic()`` instant) kept from being
        fed.  Without a deadline the batch is screened and fed at once,
        in shards when ``n_jobs > 1``.  With one, it is screened and fed
        ``_SCAN_CHUNK`` rows at a time on this process, and the clock is
        checked between chunks; the first chunk is always fed, so even
        an expired deadline yields a (tiny) result.  Unfed rows never
        enter the conservation ledger.
        """
        if deadline is None:
            clean, weight_arr = self._screen_batch(points, None)
            self._feed(clean, weight_arr, n_jobs)
            parts = [clean]
            rows_not_fed = 0
        else:
            n_rows = len(points)  # type: ignore[arg-type]
            parts = []
            scanned = 0
            while scanned < n_rows:
                if scanned and time.monotonic() > deadline:
                    break
                chunk = points[scanned : scanned + _SCAN_CHUNK]  # type: ignore[index]
                clean, weight_arr = self._screen_batch(chunk, None)
                self._feed(clean, weight_arr)
                parts.append(clean)
                scanned += len(chunk)
            rows_not_fed = n_rows - scanned
        parts = [part for part in parts if part.shape[0]]
        if not parts:
            raise NotFittedError(
                "validation rejected every scanned row; nothing to cluster "
                f"(rejections by reason: {self._validator.stats.points_by_reason})"
            )
        clean = parts[0] if len(parts) == 1 else np.concatenate(parts)
        self.stats.record_scan(clean.shape[0])
        return clean, self._finish_phase1(), rows_not_fed

    def _phase4_refine(
        self,
        timings: PhaseTimings,
        points: np.ndarray,
        centroids: np.ndarray,
        *,
        passes: Optional[int] = None,
        max_passes: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> Optional[RefinementResult]:
        """Phase 4 under the phase timer, seeded from ``centroids``.

        ``passes=None`` runs the configured refinement:
        ``config.phase4_passes`` capped by ``max_passes``, returning
        ``None`` (Phase 4 off) when that is 0.  ``improve`` passes its
        own count, and there 0 is a pure labelling scan.
        """
        if passes is None:
            passes = self.config.phase4_passes
            if max_passes is not None:
                passes = min(passes, max_passes)
            if passes <= 0:
                passes = None
        with self._phase(timings, "phase4") as fields:
            refinement = None
            if passes is not None:
                refinement = refine(
                    points,
                    centroids,
                    passes=passes,
                    discard_outliers=self.config.phase4_discard_outliers,
                    outlier_factor=self.config.phase4_outlier_factor,
                    stats=self.stats,
                    deadline=deadline,
                )
            fields.update(
                refinement.layer_seconds
                if refinement is not None
                else dict.fromkeys(PHASE4_LAYERS, 0.0)
            )
        return refinement

    def _package_result(
        self,
        timings: PhaseTimings,
        global_result: GlobalClustering,
        outliers: list[StableCF],
        refinement: Optional[RefinementResult],
        *,
        mode: str,
    ) -> BirchResult:
        """Close the run ``mode`` and store its :class:`BirchResult`.

        The final clusters are Phase 4's when it ran, else Phase 3's.
        """
        assert self._tree is not None
        if self._recorder.enabled:
            self._recorder.event(
                "run.end", mode=mode, total_seconds=timings.total
            )
        tree_stats = self._tree.tree_stats()
        final = global_result if refinement is None else refinement
        self._result = BirchResult(
            telemetry=self._freeze_telemetry(tree_stats.node_count),
            centroids=final.centroids,
            clusters=list(final.clusters),
            labels=None if refinement is None else refinement.labels,
            refinement=refinement,
            subclusters=self._tree.leaf_entries(),
            entry_labels=global_result.labels,
            outliers=outliers,
            timings=timings,
            io=self.stats.summary(),
            tree_stats={
                "height": tree_stats.height,
                "node_count": tree_stats.node_count,
                "leaf_count": tree_stats.leaf_count,
                "leaf_entry_count": tree_stats.leaf_entry_count,
                "points": tree_stats.points,
                "avg_entries_per_leaf": tree_stats.average_entries_per_leaf,
            },
            final_threshold=self._tree.threshold,
            rebuilds=self.stats.tree_rebuilds,
            **self._robustness_accounting(),
        )
        return self._result

    def _freeze_telemetry(self, node_count: int) -> Optional[TelemetrySnapshot]:
        """Final tree gauges, then a frozen snapshot; sinks are flushed."""
        if not self._recorder.enabled:
            return None
        assert self._tree is not None
        self._recorder.gauge("tree.threshold", self._tree.threshold)
        self._recorder.gauge("tree.nodes", node_count)
        snapshot = self._recorder.snapshot()
        self._recorder.flush()
        return snapshot

    def finalize(self) -> BirchResult:
        """Phases 2-3 after incremental loading (no Phase 4 data scan).

        For streaming use: after any number of ``partial_fit`` calls,
        produce clusters from the tree alone.  Phase 4 needs the raw
        data, so it is skipped here.  The result's ``phase1`` time is
        the stream's ingest and rebuild time plus the end of the scan.
        """
        if self._tree is None:
            raise NotFittedError(_NO_DATA_MESSAGE)
        timings = PhaseTimings(
            phase1=self._ingest_seconds + self._rebuild_seconds
        )
        with self._phase(timings, "phase1"):
            outliers = self._finish_phase1()
        with self._phase(timings, "phase2"):
            self._phase2_condense()
        with self._phase(timings, "phase3"):
            global_result = self._phase3_cluster()
        return self._package_result(
            timings, global_result, outliers, None, mode="finalize"
        )

    def improve(self, points: np.ndarray, passes: int = 1) -> BirchResult:
        """Spend more time to improve the last result (extra Phase 4).

        The paper's introduction frames BIRCH as letting a user who "is
        willing to wait" trade additional scans for quality; this method
        is that trade: run ``passes`` more refinement passes over
        ``points`` starting from the current centroids, and replace the
        stored result.  Each call adds data scans and never increases
        the assignment cost.  ``points`` are screened like ``fit``'s
        input (see :meth:`_screen_rescan`).

        Raises
        ------
        NotFittedError
            If called before ``fit``/``finalize``.
        InvalidPointError
            If a row is bad and ``bad_point_policy`` is ``"raise"``.
        """
        if self._result is None:
            raise NotFittedError(_NOT_FITTED_MESSAGE)
        points = self._screen_rescan(points)
        old = self._result
        timings = replace(old.timings)
        refinement = self._phase4_refine(
            timings, points, old.centroids, passes=passes
        )
        assert refinement is not None
        self._result = replace(
            old,
            centroids=refinement.centroids,
            clusters=list(refinement.clusters),
            labels=refinement.labels,
            refinement=refinement,
            timings=timings,
            io=self.stats.summary(),
            telemetry=self._freeze_telemetry(int(old.tree_stats["node_count"])),
        )
        return self._result

    def predict(self, points: np.ndarray) -> np.ndarray:
        """Assign each point to the nearest fitted centroid.

        Runs on the shared serving kernel
        (:func:`repro.serve.kernel.nearest_centroids`): the
        ``||x||^2 - 2 x.c + ||c||^2`` decomposition — one BLAS matmul
        per cache-blocked chunk instead of a ``(B, K, d)`` difference
        tensor — so a compiled :class:`~repro.serve.FrozenModel` of this
        estimator returns byte-identical labels.  Among exactly
        equidistant centroids the **lowest cluster index wins**,
        deterministically.
        """
        if self._result is None:
            raise NotFittedError(_NOT_FITTED_MESSAGE)
        points = np.asarray(points, dtype=np.float64)
        return nearest_centroids(points, self._result.centroids)

    # -- phase helpers ------------------------------------------------------------

    def _robustness_accounting(self) -> dict[str, object]:
        """Fault, validation and watchdog fields for :class:`BirchResult`.

        Together with the tree/outlier counts these close the
        conservation identity ``clustered + outliers + quarantined +
        dropped + forgotten == points fed``: every point the caller
        handed us is in exactly one bucket.
        """
        fields: dict[str, object] = {"points_fed": self._points_fed}
        handler = self._outlier_handler
        if handler is not None:
            fields.update(
                dropped_outlier_entries=handler.stats.dropped_entries,
                dropped_outlier_points=handler.stats.dropped_points,
                outlier_disk_degraded=handler.degraded,
            )
        rejected_by_reason = dict(self._validator.stats.points_by_reason)
        rejected_total = sum(rejected_by_reason.values())
        if self._quarantine is not None:
            stored_by_reason = self._quarantine.stored_points_by_reason
            fields.update(
                quarantined_points=self._quarantine.stored_points,
                quarantined_by_reason={
                    r: n for r, n in stored_by_reason.items() if n
                },
                invalid_dropped_points=(
                    rejected_total - self._quarantine.stored_points
                ),
            )
        else:
            fields.update(invalid_dropped_points=rejected_total)
        fields.update(
            invalid_by_reason={r: n for r, n in rejected_by_reason.items() if n}
        )
        if self._watchdog is not None:
            fields.update(
                watchdog=self._watchdog.report(),
                memory_degraded=self._watchdog.degraded,
            )
        fields.update(parallel_incidents=list(self._parallel_incidents))
        fields.update(forgotten_points=self._points_forgotten)
        tree = self._tree
        if tree is not None and tree.decay_half_life is not None:
            weighted = float(tree.summary_cf().n) if tree._points else 0.0
            fields.update(decayed_mass=max(0.0, float(tree._points) - weighted))
        if self._drift_monitor is not None:
            fields.update(drift=self._drift_monitor.summary())
        return fields

    def _finish_phase1(self) -> list[StableCF]:
        """End-of-scan outlier resolution; returns the true outliers.

        Idempotent: resolution drains the outlier disk, so its result is
        kept until more data arrives (see :meth:`_reopen_scan`).  A
        ``finalize`` after ``fit``, or a second ``finalize``, reports
        the same outliers instead of an empty disk.
        """
        assert self._tree is not None
        self._delay_mode = False
        if self._outlier_handler is None:
            return []
        if self._resolved_outliers is None:
            self._resolved_outliers = self._outlier_handler.final_outliers(
                self._tree
            )
        return list(self._resolved_outliers)

    def _reopen_scan(self) -> None:
        """Put outliers resolved by an earlier end of scan back on disk.

        Called before anything that changes the tree again (more data,
        forgetting): the change may let them be re-absorbed, so they are
        potential outliers again.  They came off this disk and nothing
        has been written to it since, so they fit; no I/O is charged, as
        none happened.
        """
        resolved, self._resolved_outliers = self._resolved_outliers, None
        if resolved and self._outlier_handler is not None:
            disk = self._outlier_handler.disk
            disk.adopt(list(disk.peek()) + resolved)

    def _phase2_condense(self) -> None:
        """Shrink the tree until Phase 3's input budget is met."""
        if not self.config.phase2_enabled:
            return
        assert self._tree is not None and self._policy is not None
        limit = self.config.phase3_input_limit
        rounds = 0
        while self._tree.tree_stats().leaf_entry_count > limit:
            rounds += 1
            if rounds > _MAX_CONDENSE_ROUNDS:
                raise PhaseError(
                    f"Phase 2 failed to condense below {limit} entries after "
                    f"{_MAX_CONDENSE_ROUNDS} rebuilds"
                )
            new_threshold = self._policy.next_threshold(
                self._tree, max(self._points_seen, 1)
            )
            self._tree = self._rebuild_tree_preserving_decay(
                new_threshold, None, None
            )

    def _phase3_cluster(
        self, deadline: Optional[float] = None
    ) -> GlobalClustering:
        """Global clustering of the leaf entries.

        ``deadline`` (a ``time.monotonic()`` instant) only applies to the
        hierarchical algorithm, whose merge loop is the one Phase 3 step
        that can blow up combinatorially; passing ``None`` leaves the
        computation byte-identical to an unsupervised run.
        """
        assert self._tree is not None
        entries = self._tree.leaf_entries()
        if not entries:
            if self._points_forgotten > 0:
                raise NotFittedError(
                    "every inserted point has been forgotten (decay / "
                    "window retirement emptied the tree); feed more data "
                    "before finalizing"
                )
            raise NotFittedError(_NO_DATA_MESSAGE)
        if self._tree.decay_half_life is not None:
            fresh = [e for e in entries if e.n >= _DECAY_EVIDENCE_FLOOR]
            if fresh:
                dropped = len(entries) - len(fresh)
                if dropped:
                    self._recorder.count(
                        "phase3.low_evidence_skipped", dropped
                    )
                entries = fresh
        if self.config.phase3_algorithm == "kmeans":
            return CFKMeans(
                n_clusters=self.config.n_clusters, seed=self.config.random_seed
            ).fit(entries)
        if self.config.phase3_algorithm == "medoids":
            return CFMedoids(n_clusters=self.config.n_clusters).fit(entries)
        return agglomerative_cf(
            entries,
            n_clusters=self.config.n_clusters,
            metric=self.config.metric,
            stop_diameter=self.config.phase3_stop_diameter,
            deadline=deadline,
        )

    def _reset(self) -> None:
        """Discard all state so ``fit`` starts from scratch."""
        self.stats.reset()
        self._recorder.reset_run()
        self._dimensions = None
        self._tree = None
        self._budget = None
        self._outlier_handler = None
        self._resolved_outliers = None
        self._policy = None
        self._points_seen = 0
        self._delay_mode = False
        self._result = None
        self._rebuild_history = []
        self._next_checkpoint_at = self.config.checkpoint_every_points or 0
        self._validator = PointValidator()
        self._quarantine = None
        self._watchdog = None
        self._rows_fed = 0
        self._points_fed = 0
        self._ingest_seconds = 0.0
        self._rebuild_seconds = 0.0
        self._rebuild_timer_depth = 0
        self._parallel_incidents = []
        self._epoch = 0
        self._epoch_buckets = None
        self._drift_monitor = None
        self._points_forgotten = 0
        self._subtract_clamps = 0
