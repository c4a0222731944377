"""Grouped CF reduction and the weighted Lloyd step.

Every centroid-based redistribution in the package — Phase 4 refinement
(Section 5.2), the CF k-means Phase 3 option, the ensemble's consensus
k-means and the k-means baseline — makes the same two moves: label each
point with its nearest centre, then recompute every centre from its
members.

* :func:`group_means` / :func:`group_cfs` recompute.  Rows are sorted by
  label once (stable, so each group keeps input order), counted with one
  ``bincount`` and summed with one ``np.add.reduceat`` — one pass over
  the data instead of one boolean-mask pass per cluster.  ``-1`` labels
  are dropped and empty clusters get zero mass.  SSDs are two-pass (the
  mean first, then squared deviations from it), the cancellation-free
  form BETULA prescribes.
* :func:`weighted_lloyd_step` labels through
  :func:`repro.serve.kernel.nearest_centroids` (ties go to the lowest
  centre index), then takes grouped weighted means.  A centre whose
  cluster came out empty keeps its position; callers layer their own
  re-seed policy on top.

Sums accumulate sequentially within each group, so a cluster's mean can
differ from ``points[mask].mean(axis=0)`` (pairwise summation) in the
last bit.
"""

from __future__ import annotations

import time
from typing import NamedTuple, Optional

import numpy as np

from repro.core.features import StableCF
from repro.serve.kernel import nearest_centroids

__all__ = ["LloydStep", "group_cfs", "group_means", "weighted_lloyd_step"]

#: Label keys below this take numpy's radix sort as int16 (about 10x
#: faster than the int64 stable sort on 100k rows).
_INT16_KEYS = np.iinfo(np.int16).max


def _sorted_groups(
    labels: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Group the rows by label: ``(order, counts, present, starts)``.

    ``order`` is the stable sort of the rows labelled ``0..k-1`` (rows
    labelled ``-1`` sort first and are cut off), ``counts[c]`` the size
    of cluster ``c``, ``present`` the non-empty clusters and ``starts``
    their offsets in ``order``, ready for ``np.add.reduceat``.
    """
    labels = np.asarray(labels, dtype=np.int64)
    # bincount rejects labels below -1 itself.
    tally = np.bincount(labels + 1, minlength=k + 1)
    if tally.shape[0] > k + 1:
        raise ValueError(f"labels must lie in -1..{k - 1}, got {labels.max()}")
    counts = tally[1:]
    key = labels.astype(np.int16) if k < _INT16_KEYS else labels
    order = np.argsort(key, kind="stable")[tally[0] :]
    present = np.flatnonzero(counts)
    sizes = counts[present]
    return order, counts, present, np.cumsum(sizes) - sizes


def group_means(
    points: np.ndarray,
    labels: np.ndarray,
    k: int,
    weights: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cluster mass and weighted mean: ``(mass (k,), means (k, d))``.

    ``weights`` (positive, one per row) default to 1, making ``mass``
    the member count.  Empty clusters have mass 0 and a zero mean.
    """
    order, counts, present, starts = _sorted_groups(labels, k)
    rows = np.take(points, order, axis=0)
    means = np.zeros((k, points.shape[1]), dtype=np.float64)
    if weights is None:
        mass = counts.astype(np.float64)
    else:
        w = np.take(np.asarray(weights, dtype=np.float64), order)
        rows *= w[:, None]
        mass = np.zeros(k, dtype=np.float64)
        if present.size:
            mass[present] = np.add.reduceat(w, starts)
    if present.size:
        means[present] = np.add.reduceat(rows, starts, axis=0)
        means[present] /= mass[present, None]
    return mass, means


def group_cfs(points: np.ndarray, labels: np.ndarray, k: int) -> list[StableCF]:
    """Exact CF of each of the ``k`` clusters (``-1`` rows excluded).

    Counts are exact; means and SSDs are two-pass.  Empty clusters get
    an empty CF.
    """
    order, counts, present, starts = _sorted_groups(labels, k)
    clusters = [StableCF.empty(points.shape[1]) for _ in range(k)]
    if not present.size:
        return clusters
    rows = np.take(points, order, axis=0)
    sizes = counts[present]
    sums = np.add.reduceat(rows, starts, axis=0)
    means = sums / sizes[:, None]
    rows -= np.repeat(means, sizes, axis=0)
    ssds = np.add.reduceat(np.einsum("ij,ij->i", rows, rows), starts)
    for c, n, mean, ssd in zip(present, sizes, means, ssds):
        clusters[c] = StableCF(n, mean, ssd)
    return clusters


class LloydStep(NamedTuple):
    """One assign-then-update step of weighted Lloyd iteration.

    ``labels`` are the nearest *input* centres; ``centers`` the grouped
    weighted means, where an empty cluster (``mass == 0``) keeps its
    input centre.  ``sq_dists`` holds each point's squared distance to
    its winner when asked for.  The two timings split the step into the
    kernel and the reduction.
    """

    labels: np.ndarray
    centers: np.ndarray
    mass: np.ndarray
    sq_dists: Optional[np.ndarray]
    assign_seconds: float
    update_seconds: float


def weighted_lloyd_step(
    points: np.ndarray,
    centers: np.ndarray,
    weights: Optional[np.ndarray] = None,
    *,
    return_sq_dists: bool = False,
) -> LloydStep:
    """Assign every point to its nearest centre, then recompute centres."""
    points = np.asarray(points, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    start = time.perf_counter()
    if return_sq_dists:
        labels, sq_dists = nearest_centroids(points, centers, return_sq_dists=True)
    else:
        labels, sq_dists = nearest_centroids(points, centers), None
    assigned = time.perf_counter()
    mass, means = group_means(points, labels, centers.shape[0], weights)
    new_centers = np.where((mass > 0)[:, None], means, centers)
    return LloydStep(
        labels,
        new_centers,
        mass,
        sq_dists,
        assigned - start,
        time.perf_counter() - assigned,
    )
