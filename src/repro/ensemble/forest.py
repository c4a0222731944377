"""``BirchForest`` — K perturbed BIRCH fits + leaf-CF consensus.

A single CF-tree is order-sensitive: §4.1 of the paper concedes that
insertion order can split points that belong together, and
``bench_order_sensitivity`` measures the spread.  The forest attacks
the problem the Cluster Forests way (PAPERS.md): fit ``K`` independent
BIRCH members over *perturbed views* of the same batch —

* a seeded order shuffle per member (the exact §4.1 perturbation),
* optional per-member feature subsampling (member 0 always keeps the
  full feature set: it is the anchor member, see below),
* optional multiplicative threshold jitter (initial threshold and
  rebuild expansion factor),

— then aggregate them through a weighted co-association matrix over
**leaf CFs**, not points, so consensus memory is bounded by
``phase3_input_limit^2`` regardless of ``N`` or ``K``.

The members are embarrassingly parallel and dispatch as ``member``
tasks on the persistent :class:`~repro.parallel.pool.SharedPool` —
one pool, K member fits, supervised by the retry → respawn →
in-process-serial ladder, so a crashed member is re-fitted (same pure
payload, byte-identical) without poisoning the forest.  Every ladder
rung taken is surfaced on :attr:`ForestResult.incidents`.

Consensus pipeline (all parent-side, deterministic):

1. **anchors** — member 0's leaf CFs (an exact partition of the data:
   masses sum to ``N``), optionally condensed to ``max_anchors`` by
   the Phase 3 CF agglomerative;
2. **votes** — every member assigns every anchor centroid to its
   nearest member-cluster centroid through the shared
   :mod:`repro.serve` kernel;
3. **co-association** — ``W[a, b]`` = fraction of members co-locating
   anchors ``a`` and ``b`` (:mod:`repro.ensemble.coassoc`);
4. **consensus** — mass-weighted average linkage (or k-means) on
   ``1 - W`` (:mod:`repro.ensemble.consensus`); consensus clusters are
   exact CF merges of their anchors, so radii/weights stay honest.

``predict`` routes through the same reduced-panel kernel as
:class:`~repro.serve.FrozenModel`, and
:meth:`FrozenModel.from_forest <repro.serve.frozen.FrozenModel.from_forest>`
compiles the consensus model into the standard ``BIRCHFRZ`` artifact.

Determinism: member perturbations are pure functions of
``(seed, member_index)``, member fits are single-process pure
functions of their payload, ``pool.map`` preserves task order, and
every consensus step is deterministic — so a forest fit is
byte-identical for a fixed ``(seed, K)`` across ``n_jobs`` values,
worker crashes and the serial fallback.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from repro.core.config import BirchConfig
from repro.core.features import StableCF
from repro.core.global_clustering import agglomerative_cf
from repro.ensemble.coassoc import coassociation, member_votes
from repro.ensemble.consensus import (
    average_linkage_consensus,
    kmeans_consensus,
)
from repro.errors import InvalidPointError, NotFittedError
from repro.observe import TelemetrySnapshot, build_recorder
from repro.parallel.chaos import ChaosInjector
from repro.parallel.pool import SharedPool
from repro.parallel.shm import SharedBlock, inline_slice
from repro.serve.kernel import nearest_centroids

__all__ = ["BirchForest", "ForestConfig", "ForestResult"]

_CONSENSUS_METHODS = ("average", "kmeans")


@dataclass
class ForestConfig:
    """Tunable parameters of a BIRCH forest.

    Attributes
    ----------
    base:
        The member :class:`~repro.core.config.BirchConfig` (a dict is
        coerced).  Each member runs the full configured pipeline
        single-process with the *full* memory budget; checkpointing,
        validation and file-backed observers are stripped per member
        (they belong to the parent).
    n_members:
        ``K``, the forest size.
    seed:
        Master seed; every member perturbation derives from
        ``(seed, member_index)``, so results are deterministic per
        ``(seed, K)`` regardless of worker processes.
    shuffle:
        Fit each member on a seeded random permutation of the rows
        (the §4.1 order perturbation; on by default).
    feature_fraction:
        When set (in ``(0, 1]``), members 1.. each fit on a seeded
        random subset of ``ceil(fraction * d)`` feature columns.
        Member 0 always keeps every feature — its leaf CFs are the
        consensus anchors and must live in the full space.
    threshold_jitter:
        When positive, member ``i``'s ``initial_threshold`` and
        ``expansion_factor`` are scaled by a seeded factor in
        ``[1 - jitter, 1 + jitter]`` — perturbing the rebuild
        trajectory, and with it the leaf partition.
    consensus:
        ``"average"`` (mass-weighted average linkage, default) or
        ``"kmeans"`` (mass-weighted k-means in vote space).
    max_anchors:
        Consensus anchor budget.  Member 0's leaf entries are already
        bounded by ``base.phase3_input_limit``; when they still exceed
        this cap they are condensed by the Phase 3 CF agglomerative
        first (exact CF merges).  ``None`` disables the extra cap.
    compute_labels:
        Label every input row with its consensus cluster after the fit
        (one extra kernel pass; on by default).
    """

    base: BirchConfig
    n_members: int = 8
    seed: int = 0
    shuffle: bool = True
    feature_fraction: Optional[float] = None
    threshold_jitter: float = 0.0
    consensus: str = "average"
    max_anchors: Optional[int] = 512
    compute_labels: bool = True

    def __post_init__(self) -> None:
        if isinstance(self.base, dict):
            self.base = BirchConfig(**self.base)
        if not isinstance(self.base, BirchConfig):
            raise ValueError(
                f"base must be a BirchConfig or a dict, "
                f"got {type(self.base).__name__}"
            )
        if self.n_members < 1:
            raise ValueError(f"n_members must be >= 1, got {self.n_members}")
        if self.feature_fraction is not None and not (
            0.0 < self.feature_fraction <= 1.0
        ):
            raise ValueError(
                f"feature_fraction must be in (0, 1], "
                f"got {self.feature_fraction}"
            )
        if not 0.0 <= self.threshold_jitter < 1.0:
            raise ValueError(
                f"threshold_jitter must be in [0, 1), "
                f"got {self.threshold_jitter}"
            )
        if self.consensus not in _CONSENSUS_METHODS:
            raise ValueError(
                f"consensus must be one of {_CONSENSUS_METHODS}, "
                f"got {self.consensus!r}"
            )
        if self.max_anchors is not None and self.max_anchors < 1:
            raise ValueError(
                f"max_anchors must be >= 1, got {self.max_anchors}"
            )


@dataclass
class ForestResult:
    """Everything one forest fit produces.

    ``centroids``/``clusters`` are the consensus model (cluster CFs are
    exact merges of the anchor CFs, so ``sum(cf.n) == N``); ``labels``
    are the consensus assignment of the *original* row order (``None``
    when ``compute_labels`` is off).  ``entry_labels`` is the consensus
    labelling of the anchors and ``anchors`` the anchor CFs themselves
    — together the forest's analogue of
    :attr:`~repro.core.birch.BirchResult.subclusters`.
    ``member_stats`` carries one per-member accounting dict (threshold,
    rebuilds, leaf entries, feature count); ``incidents`` the failure
    ladder's rungs (plain dicts, as on
    :attr:`~repro.core.birch.BirchResult.parallel_incidents`).

    The result also quacks enough like a
    :class:`~repro.core.birch.BirchResult` (``final_threshold``,
    ``rebuilds``, ``io``, ``tree_stats``) for
    :func:`repro.core.serialization.save_result` to archive it, which is
    how ``repro ensemble fit --save-result`` and the generic
    ``serve compile`` path interoperate.
    """

    centroids: np.ndarray
    clusters: list[StableCF]
    labels: Optional[np.ndarray]
    anchors: list[StableCF]
    entry_labels: np.ndarray
    coassoc: np.ndarray
    n_members: int
    seed: int
    n_jobs: int
    consensus: str
    member_stats: list[dict] = field(default_factory=list)
    incidents: list[dict] = field(default_factory=list, repr=False)
    timings: dict[str, float] = field(default_factory=dict)
    telemetry: Optional[TelemetrySnapshot] = field(default=None, repr=False)

    # -- BirchResult-compatible accessors (save_result duck type) ----------

    @property
    def n_clusters(self) -> int:
        """Number of consensus clusters produced."""
        return len(self.clusters)

    @property
    def final_threshold(self) -> float:
        """The anchor member's final Phase 1 threshold."""
        if not self.member_stats:
            return 0.0
        return float(self.member_stats[0].get("threshold", 0.0))

    @property
    def rebuilds(self) -> int:
        """Total Phase 1 rebuilds across all members."""
        return int(sum(s.get("rebuilds", 0) for s in self.member_stats))

    @property
    def io(self) -> dict[str, int]:
        """Empty placeholder (members account I/O in ``member_stats``)."""
        return {}

    @property
    def tree_stats(self) -> dict[str, float]:
        """Anchor accounting in lieu of a single tree's stats."""
        return {
            "points": float(sum(cf.n for cf in self.anchors)),
            "leaf_entry_count": float(len(self.anchors)),
        }


class BirchForest:
    """Fit and query a consensus of K perturbed BIRCH members.

    Parameters
    ----------
    config:
        A :class:`ForestConfig` (a dict is coerced).
    pool:
        Optional externally owned :class:`~repro.parallel.pool.SharedPool`
        to dispatch member fits on — e.g. the pool a
        :class:`~repro.core.birch.Birch` estimator already spun up for
        sharded builds (heterogeneous op reuse is supported and
        regression-tested).  The forest never closes a borrowed pool.
    chaos_injector:
        Deterministic fault injection for the member dispatch (tests).
    sleep:
        Backoff sleep injection point (tests).
    """

    def __init__(
        self,
        config: ForestConfig,
        *,
        pool: Optional[SharedPool] = None,
        chaos_injector: Optional[ChaosInjector] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if isinstance(config, dict):
            config = ForestConfig(**config)
        self.config = config
        self._pool = pool
        self._owns_pool = pool is None
        self._chaos_injector = chaos_injector
        self._sleep = sleep
        self._recorder = build_recorder(config.base.observe)
        self._result: Optional[ForestResult] = None

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release the worker pool (if owned) and the recorder."""
        if self._owns_pool and self._pool is not None:
            self._pool.close()
            self._pool = None
        self._recorder.close()

    def __enter__(self) -> "BirchForest":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    @property
    def result(self) -> ForestResult:
        """The last :meth:`fit` result."""
        if self._result is None:
            raise NotFittedError("this forest has not been fitted yet")
        return self._result

    # -- member configuration ------------------------------------------------

    def _member_plan(
        self, member: int, dimensions: int
    ) -> tuple[BirchConfig, Optional[int], Optional[np.ndarray]]:
        """(config, shuffle_seed, feature_indices) for one member.

        A pure function of ``(config.seed, member)`` — the determinism
        contract's linchpin: the plan is computed parent-side, so the
        worker count can never influence it.
        """
        cfg = self.config
        rng = np.random.default_rng([cfg.seed, member])
        base = cfg.base
        initial_threshold = base.initial_threshold
        expansion_factor = base.expansion_factor
        if cfg.threshold_jitter > 0.0:
            jitter = cfg.threshold_jitter
            initial_threshold *= 1.0 + jitter * (2.0 * rng.random() - 1.0)
            expansion_factor = max(
                1.001,
                expansion_factor * (1.0 + jitter * (2.0 * rng.random() - 1.0)),
            )
        shuffle_seed = (
            int(rng.integers(0, 2**63 - 1)) if cfg.shuffle else None
        )
        features: Optional[np.ndarray] = None
        if cfg.feature_fraction is not None and member > 0 and dimensions > 1:
            size = max(1, int(round(cfg.feature_fraction * dimensions)))
            if size < dimensions:
                features = np.sort(
                    rng.choice(dimensions, size=size, replace=False)
                ).astype(np.int64)
        member_config = replace(
            base,
            n_jobs=1,
            random_seed=base.random_seed + member,
            initial_threshold=initial_threshold,
            expansion_factor=expansion_factor,
            checkpoint_every_points=None,
            checkpoint_path=None,
            validate_points=False,
            # Members keep in-memory recorders (counters merge in the
            # parent) but must not race it for trace/metrics files.
            observe=(
                None
                if base.observe is None
                else replace(
                    base.observe, trace_path=None, metrics_path=None
                )
            ),
        )
        return member_config, shuffle_seed, features

    def _ensure_pool(self, requested: int, n_tasks: int) -> SharedPool:
        """The member-fit pool, clamped like the estimator's.

        Worker processes beyond the machine or the member count cannot
        help; member *count* is never clamped (it is part of the
        deterministic ``(seed, K)`` contract).
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
        if (
            self._owns_pool
            and self._pool is not None
            and self._pool.processes != procs
        ):
            self._pool.close()
            self._pool = None
        if self._pool is None:
            self._pool = SharedPool(
                procs,
                parallel=self.config.base.effective_parallel,
                chaos=self._chaos_injector,
                sleep=self._sleep,
            )
        return self._pool

    # -- the fit -------------------------------------------------------------

    @staticmethod
    def _screen(points: np.ndarray) -> np.ndarray:
        points = np.ascontiguousarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[0] == 0:
            raise InvalidPointError(
                f"forest input must be a non-empty (n, d) matrix, "
                f"got shape {points.shape}"
            )
        if not np.isfinite(points).all():
            bad = int(np.flatnonzero(~np.isfinite(points).all(axis=1))[0])
            raise InvalidPointError(
                f"forest input row {bad} contains NaN/Inf"
            )
        return points

    def _rebuild_entries(self, state: dict) -> list[StableCF]:
        """Anchor CFs from a member state's component arrays."""
        ns = state["entry_ns"]
        vec = state["entry_vec"]
        sq = state["entry_sq"]
        return [
            StableCF(int(n), row.copy(), float(s))
            for n, row, s in zip(ns, vec, sq)
        ]

    def fit(
        self, points: np.ndarray, *, n_jobs: Optional[int] = None
    ) -> ForestResult:
        """Fit K members and build the consensus model.

        ``n_jobs`` bounds the worker processes the member dispatch may
        use (default: ``base.n_jobs``); it never changes the result —
        byte-identical across ``n_jobs`` values and the serial
        fallback.
        """
        cfg = self.config
        jobs = cfg.base.n_jobs if n_jobs is None else int(n_jobs)
        if jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {jobs}")
        points = self._screen(points)
        n, dimensions = points.shape
        k_members = cfg.n_members
        rec = self._recorder
        timings: dict[str, float] = {}
        if rec.enabled:
            rec.event(
                "ensemble.fit.start",
                members=k_members,
                rows=n,
                dimensions=dimensions,
                n_jobs=jobs,
                consensus=cfg.consensus,
                seed=cfg.seed,
            )
        rec.count("ensemble.fits")
        rec.count("ensemble.members", k_members)

        with rec.span(
            "ensemble.fit", members=k_members, rows=n, n_jobs=jobs
        ):
            start = time.perf_counter()
            states = self._fit_members(points, jobs)
            timings["members_seconds"] = time.perf_counter() - start

            start = time.perf_counter()
            result = self._consensus(points, states, jobs)
            timings["consensus_seconds"] = time.perf_counter() - start

        result.timings = timings
        if rec.enabled:
            rec.event(
                "ensemble.fit.done",
                members=k_members,
                clusters=result.n_clusters,
                anchors=len(result.anchors),
                incidents=len(result.incidents),
                **timings,
            )
            result.telemetry = rec.snapshot()
            rec.flush()
        self._result = result
        return result

    def _fit_members(self, points: np.ndarray, jobs: int) -> list[dict]:
        """Dispatch the K member fits on the supervised pool."""
        from repro.parallel.worker import OP_MEMBER, fit_member

        cfg = self.config
        n, dimensions = points.shape
        rec = self._recorder
        pool = self._ensure_pool(jobs, cfg.n_members)
        block: Optional[SharedBlock] = None
        if not pool.serial:
            try:
                block = SharedBlock(points)
            except OSError:
                block = None
        try:
            tasks = []
            for member in range(cfg.n_members):
                member_config, shuffle_seed, features = self._member_plan(
                    member, dimensions
                )
                tasks.append(
                    {
                        "config": member_config,
                        "shard": (
                            block.slice_spec(0, n)
                            if block is not None
                            else inline_slice(points, 0, n)
                        ),
                        "member": member,
                        "shuffle_seed": shuffle_seed,
                        "features": features,
                        "want_entries": member == 0,
                    }
                )
            try:
                states = pool.map(
                    fit_member, tasks, recorder=rec, op=OP_MEMBER
                )
            finally:
                # Bank the ladder's incidents whether the dispatch
                # completed or raised (mirrors Birch._sharded_phase1).
                self._incidents = [
                    incident.to_dict()
                    for incident in pool.reset_incidents()
                ]
                rec.count("ensemble.member_incidents", len(self._incidents))
        finally:
            if block is not None:
                block.close()
        for state in states:
            if rec.enabled:
                rec.merge_counts(state.get("telemetry", {}))
                rec.event(
                    "ensemble.member",
                    member=state["member"],
                    clusters=int(state["centroids"].shape[0]),
                    leaf_entries=state["leaf_entries"],
                    threshold=state["threshold"],
                    rebuilds=state["rebuilds"],
                )
        # The feature plan is re-derived parent-side for the vote step.
        for member, state in enumerate(states):
            _, _, features = self._member_plan(member, dimensions)
            state["features"] = features
        return states

    def _consensus(
        self, points: np.ndarray, states: list[dict], jobs: int
    ) -> ForestResult:
        """Anchors → votes → co-association → consensus clusters."""
        cfg = self.config
        rec = self._recorder
        with rec.span("ensemble.consensus", method=cfg.consensus):
            anchors = self._rebuild_entries(states[0])
            if (
                cfg.max_anchors is not None
                and len(anchors) > cfg.max_anchors
            ):
                condensed = agglomerative_cf(
                    anchors,
                    n_clusters=cfg.max_anchors,
                    metric=cfg.base.metric,
                )
                anchors = [cf for cf in condensed.clusters if cf.n > 0]
                rec.count("ensemble.anchors_condensed")
            anchor_centroids = np.ascontiguousarray(
                np.stack([cf.centroid for cf in anchors]), dtype=np.float64
            )
            anchor_weights = np.array(
                [float(cf.n) for cf in anchors], dtype=np.float64
            )
            rec.count("ensemble.anchors", len(anchors))

            votes = member_votes(
                anchor_centroids,
                [state["centroids"] for state in states],
                [state["features"] for state in states],
            )
            rec.count("ensemble.votes", int(votes.size))
            coassoc = coassociation(votes)

            k = cfg.base.n_clusters
            if cfg.consensus == "kmeans":
                entry_labels = kmeans_consensus(
                    coassoc, anchor_weights, k, seed=cfg.seed
                )
            else:
                entry_labels = average_linkage_consensus(
                    coassoc, anchor_weights, k
                )

            # Consensus clusters: exact CF merges of their anchors, in
            # lowest-anchor-index order (dense ids by construction).
            n_found = int(entry_labels.max()) + 1
            clusters: list[StableCF] = []
            for label in range(n_found):
                group = [
                    anchors[i]
                    for i in np.flatnonzero(entry_labels == label)
                ]
                acc = group[0].copy()
                for cf in group[1:]:
                    acc.merge_inplace(cf)
                clusters.append(acc)
            centroids = np.ascontiguousarray(
                np.stack([cf.centroid for cf in clusters]), dtype=np.float64
            )
            rec.count("ensemble.consensus_clusters", n_found)

        labels: Optional[np.ndarray] = None
        if cfg.compute_labels:
            with rec.span("ensemble.label", rows=points.shape[0]):
                labels = nearest_centroids(points, centroids)

        member_stats = [
            {
                "member": state["member"],
                "clusters": int(state["centroids"].shape[0]),
                "leaf_entries": int(state["leaf_entries"]),
                "threshold": float(state["threshold"]),
                "rebuilds": int(state["rebuilds"]),
                "features": (
                    int(state["features"].shape[0])
                    if state["features"] is not None
                    else points.shape[1]
                ),
            }
            for state in states
        ]
        return ForestResult(
            centroids=centroids,
            clusters=clusters,
            labels=labels,
            anchors=anchors,
            entry_labels=entry_labels,
            coassoc=coassoc,
            n_members=cfg.n_members,
            seed=cfg.seed,
            n_jobs=jobs,
            consensus=cfg.consensus,
            member_stats=member_stats,
            incidents=list(getattr(self, "_incidents", [])),
        )

    # -- queries -------------------------------------------------------------

    def predict(self, points: np.ndarray) -> np.ndarray:
        """Consensus label for each query row (shared serve kernel)."""
        result = self.result
        points = np.ascontiguousarray(points, dtype=np.float64)
        return nearest_centroids(points, result.centroids)
