"""Configuration for the BIRCH pipeline.

Defaults mirror the experimental setup of Table 2 in the paper:
memory ``M`` = 80 KB, disk ``R`` = 20% of ``M``, distance metric D2,
threshold on the diameter, initial threshold 0, page size ``P`` = 1024
bytes, outlier handling on, and Phase 3 consuming at most 1000 leaf
entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.distances import Metric
from repro.core.evolve import DRIFT_POLICIES
from repro.core.tree import ThresholdKind
from repro.observe import ObserveConfig
from repro.parallel.config import ParallelConfig

__all__ = ["BirchConfig"]


@dataclass
class BirchConfig:
    """Tunable parameters of the four-phase BIRCH pipeline.

    Attributes
    ----------
    n_clusters:
        ``K``, the number of clusters Phase 3 produces.
    memory_bytes:
        ``M``: the CF-tree's memory budget (Table 2 default 80 KB).
    page_size:
        ``P``: bytes per tree node, determining ``B`` and ``L``.
    disk_bytes:
        ``R``: simulated disk for potential outliers; ``None`` means
        20% of ``memory_bytes`` as in the paper.
    metric:
        Distance D0-D4 used for descent, Phase 3 and Phase 4
        (experiments use D2).
    threshold_kind:
        Whether the threshold bounds merged diameter (default) or radius.
    initial_threshold:
        ``T_0``; 0.0 is the paper's safe default.
    outlier_handling:
        Enables the potential-outlier spill/re-absorb option.
    outlier_fraction:
        "Far fewer points than average" cut-off for spilling.
    delay_split:
        When memory runs out, spill threshold-violating entries to disk
        instead of rebuilding immediately, so rebuilds happen with more
        data seen (Section 5.1.4 "delay-split" option).
    phase2_enabled:
        Condense the tree so Phase 3 sees at most
        ``phase3_input_limit`` subclusters.
    phase3_input_limit:
        Maximum leaf entries fed to the global clustering.
    phase3_algorithm:
        ``"hierarchical"`` (the paper's adapted agglomerative HC),
        ``"kmeans"`` (the adapted CF k-means alternative) or
        ``"medoids"`` (weighted PAM over entry centroids).
    phase3_stop_diameter:
        Optional cluster-diameter bound for the hierarchical Phase 3 —
        the paper lets the user "specify either the number of clusters
        or the desired diameter threshold"; when set, merges that would
        exceed it are refused and more than ``n_clusters`` clusters may
        be returned.
    phase4_passes:
        Number of refinement passes over the original data (0 disables
        Phase 4).
    phase4_discard_outliers:
        During Phase 4, drop points farther from their closest seed
        than ``phase4_outlier_factor`` times that cluster's radius.
    phase4_outlier_factor:
        The factor above (the paper's image study uses 2).
    expansion_factor:
        Minimum multiplicative threshold growth per rebuild.
    total_points_hint:
        ``N`` if known; sharpens the threshold heuristic's
        ``Min(2 N_i, N)`` target.
    random_seed:
        Seed for the k-means variant of Phase 3.
    merging_refinement:
        The Section 4.3 post-split merge of the two closest entries;
        on by default, exposed for ablation.
    threshold_mode:
        Which next-threshold estimates to use ("full", "volume",
        "regression", "dmin"); exposed for ablation.
    checkpoint_every_points:
        Automatic crash-safety checkpoints: snapshot the full Phase 1
        state to ``checkpoint_path`` every time this many more points
        have been inserted (``None`` disables; requires
        ``checkpoint_path``).  A killed stream resumes bit-for-bit via
        :meth:`repro.core.birch.Birch.resume`.
    checkpoint_path:
        Destination file for automatic checkpoints; each snapshot
        atomically replaces the previous one (write-to-temp + fsync +
        rename), so a crash mid-checkpoint leaves the last good one.
    outlier_fault_policy:
        What to do when the outlier disk faults permanently (or a
        transient fault survives every retry): ``"raise"`` propagates
        the error; ``"reabsorb"`` forces affected entries back into the
        CF-tree (trading memory pressure for completeness — the
        degraded analogue of Section 5.1.4's out-of-disk re-absorption);
        ``"drop"`` discards them with per-entry/per-point accounting
        reported in :class:`~repro.core.birch.BirchResult`.
    io_retry_attempts:
        Total tries (including the first) for I/O hit by *transient*
        faults — outlier-disk traffic and checkpoint writes — before
        escalating to the fault policy.
    io_retry_base_delay:
        Backoff before the first retry, in seconds; doubles per retry.
    validate_points:
        Screen every ingested batch through the guardrails
        :class:`~repro.guardrails.validation.PointValidator` (NaN/Inf,
        per-row dimension, castability).  On by default; turning it off
        restores the seed's trust-the-caller behaviour.
    bad_point_policy:
        What to do with a row that fails validation: ``"raise"``
        (default — :class:`~repro.errors.InvalidPointError` naming the
        row and reason), ``"skip"`` (drop with exact per-reason
        accounting) or ``"quarantine"`` (store in the bounded
        :class:`~repro.guardrails.quarantine.QuarantineStore` for
        post-mortem, with overflow counted as dropped).
    quarantine_bytes:
        Capacity of the quarantine store; ``None`` means 10% of
        ``memory_bytes`` (mirroring the outlier disk's 20%-of-``M``
        convention at half scale).
    rebuild_escalation_limit:
        Consecutive rebuilds allowed to leave the tree still over
        budget before the memory watchdog trips into degraded mode
        (the pathological regime the Reducibility Theorem does not
        cover — threshold growth has stopped shrinking the tree).
    degraded_mode:
        Watchdog degraded mode: ``"coarsen"`` forces aggressive
        threshold growth so the tree physically fits; ``"spill"``
        additionally diverts unabsorbable entries to the outlier disk.
    n_jobs:
        Shard count for the Phase 1 ``fit`` scan.  ``1`` (default)
        keeps the single-process path.  ``N > 1`` partitions the batch
        into ``N`` contiguous shards, publishes the rows once in shared
        memory, builds one CF-tree per shard on a persistent worker
        pool owned by the estimator (created lazily, reused across
        fits; ``Birch.close()`` releases it), and reduces the shard
        trees in pairwise tournament rounds by CF additivity
        (Theorem 4.1: batched leaf-entry merges and re-resolving each
        shard's spilled outliers lose nothing).  The worker *process*
        count is clamped to ``os.cpu_count()`` and the shard count
        (``pool.clamped`` telemetry event); the shard count itself
        never is, so results are deterministic for a fixed
        ``(random_seed, n_jobs)`` pair on any machine — including
        platforms where processes cannot be created at all and the same
        sharded algorithm runs in-process.  A sharded run is *not*
        byte-identical to ``n_jobs=1`` — insertion order differs, which
        BIRCH's quality is robust to (Section 7's order sensitivity
        experiment); equality of cluster count and centroid agreement
        are what the parity tests assert.  Only ``fit`` uses workers;
        ``partial_fit`` streams are inherently sequential.
    observe:
        Telemetry configuration (:class:`repro.observe.ObserveConfig`).
        ``None`` (default) disables the observability subsystem
        entirely: every instrumentation site holds the no-op recorder
        and hot paths pay one attribute check.  A dict is coerced, so
        checkpointed configs round-trip.  Telemetry never alters
        clustering decisions — output is byte-identical on or off.
    parallel:
        Failure-ladder knobs of the sharded worker pool
        (:class:`repro.parallel.config.ParallelConfig`): task retries
        with seeded backoff, bounded worker respawn, poison-task
        escalation and per-task deadlines.  ``None`` (default) applies
        the ladder defaults; a dict is coerced so checkpointed configs
        round-trip.  Recovery never alters clustering decisions —
        retried and escalated tasks are pure re-executions, so results
        stay byte-identical to a failure-free run for a fixed
        ``(random_seed, n_jobs)``.
    decay_half_life:
        Exponential CF decay for evolving streams, in logical epochs
        (one epoch per ``partial_fit`` batch): every ``decay_half_life``
        epochs, previously inserted mass halves.  Applied to every node
        at each clock advance; means (and hence routing) are
        decay-invariant.
        Requires a serial stream (``n_jobs=1``); decayed runs also disable the outlier
        disk (weighted spill mass cannot be re-resolved exactly).
        ``None`` (default) disables decay.
    epoch_buckets:
        Sliding-window forgetting: remember the last this-many epochs
        of inserted mass as bounded buckets of CF deltas; recording
        past the window auto-retires the oldest bucket by guarded CF
        subtraction, and :meth:`~repro.core.birch.Birch.forget_before`
        retires buckets on demand.
        ``None`` (default) disables the window (nothing is remembered
        or forgotten).
    epoch_bucket_entries:
        Per-bucket delta budget; inserts beyond it nearest-merge, so a
        bucket's memory stays bounded while its total mass stays exact.
    drift_policy:
        Response when the drift monitor alarms: ``"alarm"`` records the
        event only; ``"auto_decay"`` additionally advances the decay
        clock one extra epoch per alarm (requires ``decay_half_life``);
        ``"recondense"`` rebuilds the tree at the current threshold to
        heal subtraction-raggedness and re-pack drifted entries.
        ``None`` (default) disables drift monitoring.
    drift_window:
        Epochs of history the drift monitor baselines against.
    drift_velocity_factor:
        Alarm when the grand-centroid velocity exceeds this multiple of
        its recent median.
    drift_rebuild_factor:
        Alarm when an epoch's rebuild count exceeds this multiple of
        the recent mean (at least 1).
    """

    n_clusters: int
    memory_bytes: int = 80 * 1024
    page_size: int = 1024
    disk_bytes: Optional[int] = None
    metric: Metric = Metric.D2_AVG_INTERCLUSTER
    threshold_kind: ThresholdKind = ThresholdKind.DIAMETER
    initial_threshold: float = 0.0
    outlier_handling: bool = True
    outlier_fraction: float = 0.25
    delay_split: bool = False
    phase2_enabled: bool = True
    phase3_input_limit: int = 1000
    phase3_algorithm: str = "hierarchical"
    phase3_stop_diameter: Optional[float] = None
    phase4_passes: int = 1
    phase4_discard_outliers: bool = False
    phase4_outlier_factor: float = 2.0
    expansion_factor: float = 1.5
    total_points_hint: Optional[int] = None
    random_seed: int = 0
    merging_refinement: bool = True
    threshold_mode: str = "full"
    checkpoint_every_points: Optional[int] = None
    checkpoint_path: Optional[str] = None
    outlier_fault_policy: str = "raise"
    io_retry_attempts: int = 4
    io_retry_base_delay: float = 0.01
    validate_points: bool = True
    bad_point_policy: str = "raise"
    quarantine_bytes: Optional[int] = None
    rebuild_escalation_limit: int = 4
    degraded_mode: str = "coarsen"
    n_jobs: int = 1
    observe: Optional[ObserveConfig] = None
    parallel: Optional[ParallelConfig] = None
    decay_half_life: Optional[float] = None
    epoch_buckets: Optional[int] = None
    epoch_bucket_entries: int = 32
    drift_policy: Optional[str] = None
    drift_window: int = 8
    drift_velocity_factor: float = 3.0
    drift_rebuild_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {self.n_clusters}")
        if self.memory_bytes <= 0:
            raise ValueError(f"memory_bytes must be positive, got {self.memory_bytes}")
        if self.page_size <= 0:
            raise ValueError(f"page_size must be positive, got {self.page_size}")
        if self.disk_bytes is not None and self.disk_bytes < 0:
            raise ValueError(f"disk_bytes must be >= 0, got {self.disk_bytes}")
        if self.initial_threshold < 0:
            raise ValueError(
                f"initial_threshold must be >= 0, got {self.initial_threshold}"
            )
        if self.phase3_algorithm not in ("hierarchical", "kmeans", "medoids"):
            raise ValueError(
                "phase3_algorithm must be 'hierarchical', 'kmeans' or "
                f"'medoids', got {self.phase3_algorithm!r}"
            )
        if self.phase3_input_limit < self.n_clusters:
            raise ValueError(
                f"phase3_input_limit ({self.phase3_input_limit}) must be at "
                f"least n_clusters ({self.n_clusters})"
            )
        if self.phase4_passes < 0:
            raise ValueError(f"phase4_passes must be >= 0, got {self.phase4_passes}")
        if self.phase4_outlier_factor <= 0:
            raise ValueError(
                f"phase4_outlier_factor must be positive, "
                f"got {self.phase4_outlier_factor}"
            )
        if self.phase3_stop_diameter is not None and self.phase3_stop_diameter < 0:
            raise ValueError(
                f"phase3_stop_diameter must be >= 0, "
                f"got {self.phase3_stop_diameter}"
            )
        if self.threshold_mode not in ("full", "volume", "regression", "dmin"):
            raise ValueError(
                "threshold_mode must be 'full', 'volume', 'regression' or "
                f"'dmin', got {self.threshold_mode!r}"
            )
        if self.checkpoint_every_points is not None:
            if self.checkpoint_every_points < 1:
                raise ValueError(
                    f"checkpoint_every_points must be >= 1, got "
                    f"{self.checkpoint_every_points}"
                )
            if self.checkpoint_path is None:
                raise ValueError(
                    "checkpoint_every_points requires checkpoint_path"
                )
        if self.outlier_fault_policy not in ("raise", "reabsorb", "drop"):
            raise ValueError(
                "outlier_fault_policy must be 'raise', 'reabsorb' or "
                f"'drop', got {self.outlier_fault_policy!r}"
            )
        if self.io_retry_attempts < 1:
            raise ValueError(
                f"io_retry_attempts must be >= 1, got {self.io_retry_attempts}"
            )
        if self.io_retry_base_delay < 0:
            raise ValueError(
                f"io_retry_base_delay must be >= 0, "
                f"got {self.io_retry_base_delay}"
            )
        if self.bad_point_policy not in ("raise", "skip", "quarantine"):
            raise ValueError(
                "bad_point_policy must be 'raise', 'skip' or 'quarantine', "
                f"got {self.bad_point_policy!r}"
            )
        if self.quarantine_bytes is not None and self.quarantine_bytes < 0:
            raise ValueError(
                f"quarantine_bytes must be >= 0, got {self.quarantine_bytes}"
            )
        if self.rebuild_escalation_limit < 1:
            raise ValueError(
                f"rebuild_escalation_limit must be >= 1, "
                f"got {self.rebuild_escalation_limit}"
            )
        if self.degraded_mode not in ("coarsen", "spill"):
            raise ValueError(
                "degraded_mode must be 'coarsen' or 'spill', "
                f"got {self.degraded_mode!r}"
            )
        if self.n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {self.n_jobs}")
        if isinstance(self.observe, dict):
            self.observe = ObserveConfig(**self.observe)
        if self.observe is not None and not isinstance(
            self.observe, ObserveConfig
        ):
            raise ValueError(
                f"observe must be an ObserveConfig, a dict or None, "
                f"got {type(self.observe).__name__}"
            )
        if isinstance(self.parallel, dict):
            self.parallel = ParallelConfig(**self.parallel)
        if self.parallel is not None and not isinstance(
            self.parallel, ParallelConfig
        ):
            raise ValueError(
                f"parallel must be a ParallelConfig, a dict or None, "
                f"got {type(self.parallel).__name__}"
            )
        if self.decay_half_life is not None:
            if self.decay_half_life <= 0:
                raise ValueError(
                    f"decay_half_life must be positive, "
                    f"got {self.decay_half_life}"
                )
            if self.n_jobs != 1:
                raise ValueError(
                    "decay_half_life requires n_jobs=1: the decay clock is "
                    "a property of one sequential stream"
                )
        if self.epoch_buckets is not None:
            if self.epoch_buckets < 1:
                raise ValueError(
                    f"epoch_buckets must be >= 1, got {self.epoch_buckets}"
                )
        if self.epoch_bucket_entries < 1:
            raise ValueError(
                f"epoch_bucket_entries must be >= 1, "
                f"got {self.epoch_bucket_entries}"
            )
        if self.drift_policy is not None:
            if self.drift_policy not in DRIFT_POLICIES:
                raise ValueError(
                    f"drift_policy must be one of {DRIFT_POLICIES} or None, "
                    f"got {self.drift_policy!r}"
                )
            if self.drift_policy == "auto_decay" and self.decay_half_life is None:
                raise ValueError(
                    "drift_policy='auto_decay' requires decay_half_life"
                )
        if self.drift_window < 2:
            raise ValueError(
                f"drift_window must be >= 2, got {self.drift_window}"
            )
        if self.drift_velocity_factor <= 1.0 or self.drift_rebuild_factor <= 1.0:
            raise ValueError(
                "drift_velocity_factor and drift_rebuild_factor must be > 1"
            )
        self.metric = Metric.from_name(self.metric)

    @property
    def effective_disk_bytes(self) -> int:
        """``R``: explicit value, or the paper's 20%-of-``M`` default."""
        if self.disk_bytes is not None:
            return self.disk_bytes
        return self.memory_bytes // 5

    @property
    def effective_quarantine_bytes(self) -> int:
        """Quarantine capacity: explicit value, or 10% of ``M``."""
        if self.quarantine_bytes is not None:
            return self.quarantine_bytes
        return self.memory_bytes // 10

    @property
    def effective_parallel(self) -> ParallelConfig:
        """Failure-ladder knobs: explicit value, or the defaults."""
        if self.parallel is not None:
            return self.parallel
        return ParallelConfig()
