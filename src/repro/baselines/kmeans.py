"""Lloyd k-means over raw points.

A reference partitional method: BIRCH's Phase 4 refinement is one step
of this iteration, and the evaluation harness uses k-means as a sanity
baseline next to CLARANS.  Implementation is standard Lloyd with
k-means++ seeding and empty-cluster re-seeding at the farthest point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.lloyd import weighted_lloyd_step
from repro.serve.kernel import nearest_centroids

__all__ = ["KMeans", "KMeansResult"]


@dataclass
class KMeansResult:
    """Outcome of a k-means run.

    Attributes
    ----------
    centroids:
        Final cluster centres, shape ``(k, d)``.
    labels:
        Nearest-centroid assignment, shape ``(n,)``.
    inertia:
        Sum of squared distances to assigned centroids.
    iterations:
        Lloyd iterations executed.
    converged:
        Whether the centroid shift fell below tolerance.
    """

    centroids: np.ndarray
    labels: np.ndarray
    inertia: float
    iterations: int
    converged: bool


class KMeans:
    """Standard Lloyd iteration with k-means++ initialisation.

    Parameters
    ----------
    n_clusters:
        ``k``.
    max_iter:
        Iteration cap.
    tol:
        Convergence tolerance on the total centroid shift.
    seed:
        RNG seed for initialisation.
    """

    def __init__(
        self, n_clusters: int, max_iter: int = 300, tol: float = 1e-8, seed: int = 0
    ) -> None:
        if n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
        if max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {max_iter}")
        self.n_clusters = n_clusters
        self.max_iter = max_iter
        self.tol = tol
        self.seed = seed

    def fit(self, points: np.ndarray) -> KMeansResult:
        """Cluster ``points`` into ``k`` groups."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError(f"points must be (n, d), got shape {points.shape}")
        n = points.shape[0]
        k = min(self.n_clusters, n)

        centroids = self._plusplus_init(points, k)
        converged = False
        iterations = 0
        for iterations in range(1, self.max_iter + 1):
            step = weighted_lloyd_step(points, centroids, return_sq_dists=True)
            new_centroids = step.centers
            empty = step.mass <= 0
            if empty.any():
                new_centroids[empty] = points[int(np.argmax(step.sq_dists))]
            shift = float(np.linalg.norm(new_centroids - centroids))
            centroids = new_centroids
            if shift <= self.tol:
                converged = True
                break

        labels = nearest_centroids(points, centroids)
        diffs = points - centroids[labels]
        inertia = float(np.einsum("ij,ij->", diffs, diffs))
        return KMeansResult(
            centroids=centroids,
            labels=labels,
            inertia=inertia,
            iterations=iterations,
            converged=converged,
        )

    def _plusplus_init(self, points: np.ndarray, k: int) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        n = points.shape[0]
        centers = [points[int(rng.integers(n))]]
        closest2 = ((points - centers[0]) ** 2).sum(axis=1)
        for _ in range(1, k):
            total = closest2.sum()
            if total <= 0:
                idx = int(rng.integers(n))
            else:
                idx = int(rng.choice(n, p=closest2 / total))
            centers.append(points[idx])
            closest2 = np.minimum(closest2, ((points - centers[-1]) ** 2).sum(axis=1))
        return np.stack(centers)
