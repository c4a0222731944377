"""Phase 4: refinement passes over the original data (Section 5.2).

Phase 3 clusters *subclusters*, so points absorbed into the wrong leaf
entry (input-order artifacts) can end up mislabelled, and a point
inserted twice can have copies in different clusters.  Phase 4 repairs
this with additional scans of the original data: use the Phase 3
centroids as seeds, reassign every point to its closest seed, and
recompute the clusters — a step of the standard centroid-based
redistribution that "can be proved to converge to a minimum".

Options implemented, as in the paper:

* multiple passes (each is one extra data scan, recorded in IOStats);
* per-point labelling (the "bonus" of Phase 4);
* outlier discarding: a point farther from its closest seed than
  ``outlier_factor`` times that cluster's radius can be excluded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.features import StableCF
from repro.core.lloyd import LloydStep, group_cfs, weighted_lloyd_step
from repro.pagestore.iostats import IOStats

__all__ = ["PHASE4_LAYERS", "RefinementResult", "refine"]

#: Per-layer timings of a refinement, as reported on the ``phase4`` event.
PHASE4_LAYERS = ("assign_seconds", "recompute_seconds", "cf_seconds")


@dataclass
class RefinementResult:
    """Outcome of the Phase 4 passes.

    Attributes
    ----------
    centroids:
        Final seed positions, shape ``(k, d)``.
    labels:
        Per-point cluster assignment, shape ``(n,)``; ``-1`` marks a
        point discarded as an outlier.
    clusters:
        Exact CFs of the refined clusters (discarded points excluded).
    passes_run:
        Number of reassignment passes actually executed.
    discarded:
        Number of points dropped by the outlier rule.
    converged:
        True if the last pass left every label unchanged.
    deadline_hit:
        True when a ``deadline`` stopped the passes early; the result is
        still fully consistent (labels/clusters from the last completed
        pass) — non-convergence is *reported*, never raised.
    layer_seconds:
        Wall time per layer, keyed by :data:`PHASE4_LAYERS`, summed over
        the passes: nearest-centroid assignment, centroid recomputation,
        and the final cluster CFs (outlier rule included).  Observation
        only: no result depends on it.
    """

    centroids: np.ndarray
    labels: np.ndarray
    clusters: list[StableCF]
    passes_run: int
    discarded: int
    converged: bool
    deadline_hit: bool = False
    layer_seconds: dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(PHASE4_LAYERS, 0.0)
    )


def refine(
    points: np.ndarray,
    seed_centroids: np.ndarray,
    passes: int = 1,
    discard_outliers: bool = False,
    outlier_factor: float = 2.0,
    stats: Optional[IOStats] = None,
    deadline: Optional[float] = None,
) -> RefinementResult:
    """Run Phase 4 refinement.

    Parameters
    ----------
    points:
        The original dataset, shape ``(n, d)``.  Each pass scans it once.
    seed_centroids:
        Phase 3 centroids, shape ``(k, d)``.
    passes:
        Number of reassign/recompute passes (0 returns labels for the
        seeds without moving them — a pure labelling scan).
    discard_outliers:
        Apply the "too far from the closest seed" rule on the final
        pass.
    outlier_factor:
        A point is discarded when its distance to the closest seed
        exceeds ``outlier_factor * radius`` of that seed's cluster.
    stats:
        Optional I/O ledger; each pass records one data scan.
    deadline:
        Optional ``time.monotonic()`` instant checked between passes:
        once it is exceeded, no further pass starts and the result
        carries ``deadline_hit=True`` (graceful degradation — Phase 4
        never raises on a budget).  ``None`` never checks the clock, so
        untimed runs are byte-identical to before.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be (n, d), got shape {points.shape}")
    centroids = np.asarray(seed_centroids, dtype=np.float64).copy()
    if centroids.ndim != 2 or centroids.shape[1] != points.shape[1]:
        raise ValueError(
            f"seed_centroids shape {centroids.shape} incompatible with "
            f"points shape {points.shape}"
        )
    if passes < 0:
        raise ValueError(f"passes must be >= 0, got {passes}")

    layer_seconds = dict.fromkeys(PHASE4_LAYERS, 0.0)

    def scan(centers: np.ndarray) -> LloydStep:
        """One data scan: label by ``centers``, recompute the means."""
        step = weighted_lloyd_step(points, centers)
        layer_seconds["assign_seconds"] += step.assign_seconds
        layer_seconds["recompute_seconds"] += step.update_seconds
        if stats is not None:
            stats.record_scan(points.shape[0])
        return step

    step = scan(centroids)
    labels = step.labels
    converged = False
    passes_run = 0
    deadline_hit = False

    for _ in range(passes):
        if deadline is not None and time.monotonic() > deadline:
            deadline_hit = True
            break
        # One pass moves the seeds to the means of the current labels
        # and relabels; the step's own update of the new labels is what
        # the next pass starts from.
        centroids = step.centers
        step = scan(centroids)
        passes_run += 1
        converged = np.array_equal(step.labels, labels)
        labels = step.labels
        if converged:
            break

    start = time.perf_counter()
    clusters = group_cfs(points, labels, centroids.shape[0])
    discarded = 0
    if discard_outliers:
        labels, discarded = _discard(
            points, labels, clusters, centroids, outlier_factor
        )
        clusters = group_cfs(points, labels, centroids.shape[0])
    layer_seconds["cf_seconds"] = time.perf_counter() - start

    return RefinementResult(
        centroids=centroids,
        labels=labels,
        clusters=clusters,
        passes_run=passes_run,
        discarded=discarded,
        converged=converged,
        deadline_hit=deadline_hit,
        layer_seconds=layer_seconds,
    )


def _discard(
    points: np.ndarray,
    labels: np.ndarray,
    clusters: list[StableCF],
    centroids: np.ndarray,
    factor: float,
) -> tuple[np.ndarray, int]:
    """Apply the too-far-from-seed outlier rule; returns new labels."""
    radii = np.array(
        [cf.radius if cf.n > 0 else 0.0 for cf in clusters], dtype=np.float64
    )
    diff = points - np.take(centroids, labels, axis=0)
    dist = np.sqrt((diff**2).sum(axis=1))
    cutoff = factor * radii[labels]
    too_far = (dist > cutoff) & (cutoff > 0)
    return np.where(too_far, -1, labels), int(too_far.sum())
