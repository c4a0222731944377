"""PAM-style k-medoids — the exhaustive-swap method CLARA samples from.

The related-work discussion in the BIRCH paper positions CLARANS as a
randomized relaxation of PAM/CLARA (Kaufman & Rousseeuw 1990): PAM
evaluates *every* (medoid, non-medoid) swap per iteration, which is
O(K(N-K)) swap evaluations and only feasible for small N; CLARA runs
PAM on samples.  This implementation provides PAM with the standard
BUILD initialisation so the test-suite can cross-check CLARANS local
minima against the exhaustive search on small inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["KMedoids", "KMedoidsResult"]


@dataclass
class KMedoidsResult:
    """Outcome of a PAM run.

    Attributes
    ----------
    medoid_indices:
        Indices of the chosen medoids in the input array.
    medoids:
        Medoid coordinates, shape ``(k, d)``.
    labels:
        Nearest-medoid assignment, shape ``(n,)``.
    cost:
        Total point-to-medoid distance.
    iterations:
        Swap-improvement rounds executed.
    """

    medoid_indices: np.ndarray
    medoids: np.ndarray
    labels: np.ndarray
    cost: float
    iterations: int


class KMedoids:
    """Partitioning Around Medoids with BUILD init and best-swap steps.

    Parameters
    ----------
    n_clusters:
        ``k``.
    max_iter:
        Maximum swap rounds; each round applies the single best
        improving swap (the original PAM).
    """

    def __init__(self, n_clusters: int, max_iter: int = 100) -> None:
        if n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
        if max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {max_iter}")
        self.n_clusters = n_clusters
        self.max_iter = max_iter

    def fit(
        self, points: np.ndarray, weights: "np.ndarray | None" = None
    ) -> KMedoidsResult:
        """Cluster ``points`` around ``k`` medoids (deterministic).

        ``weights`` (optional, shape ``(n,)``, positive) scales each
        point's contribution to the cost — a point of weight ``w``
        counts as ``w`` coincident points.  This is how Phase 3 runs
        PAM over CF entries (weight = entry point count).
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError(f"points must be (n, d), got shape {points.shape}")
        n = points.shape[0]
        k = self.n_clusters
        if n < k:
            raise ValueError(f"need at least {k} points, got {n}")
        if weights is None:
            w = np.ones(n, dtype=np.float64)
        else:
            w = np.asarray(weights, dtype=np.float64)
            if w.shape != (n,):
                raise ValueError(
                    f"weights shape {w.shape} does not match {n} points"
                )
            if (w <= 0).any():
                raise ValueError("weights must be positive")

        dist = self._pairwise(points)
        medoids = self._build_init(dist, k, w)

        iterations = 0
        for iterations in range(1, self.max_iter + 1):
            improved = self._best_swap(dist, medoids, w)
            if not improved:
                iterations -= 1
                break

        medoid_arr = np.array(sorted(medoids), dtype=np.int64)
        labels = np.argmin(dist[:, medoid_arr], axis=1)
        cost = float((w * dist[np.arange(n), medoid_arr[labels]]).sum())
        return KMedoidsResult(
            medoid_indices=medoid_arr,
            medoids=points[medoid_arr],
            labels=labels,
            cost=cost,
            iterations=iterations,
        )

    @staticmethod
    def _pairwise(points: np.ndarray) -> np.ndarray:
        diffs = points[:, None, :] - points[None, :, :]
        return np.sqrt(np.einsum("ijk,ijk->ij", diffs, diffs))

    @staticmethod
    def _build_init(dist: np.ndarray, k: int, w: np.ndarray) -> list[int]:
        """PAM BUILD: greedily add the medoid that lowers cost most."""
        first = int(np.argmin((w[:, None] * dist).sum(axis=0)))
        medoids = [first]
        nearest = dist[:, first].copy()
        while len(medoids) < k:
            # Gain of adding each candidate: sum of positive reductions.
            reductions = (
                w[:, None] * np.maximum(nearest[:, None] - dist, 0.0)
            ).sum(axis=0)
            reductions[medoids] = -np.inf
            best = int(np.argmax(reductions))
            medoids.append(best)
            nearest = np.minimum(nearest, dist[:, best])
        return medoids

    @staticmethod
    def _best_swap(dist: np.ndarray, medoids: list[int], w: np.ndarray) -> bool:
        """Apply the best improving (medoid, non-medoid) swap, if any."""
        n = dist.shape[0]
        medoid_arr = np.array(medoids, dtype=np.int64)
        sub = dist[:, medoid_arr]
        order = np.argsort(sub, axis=1)
        nearest_pos = order[:, 0]
        nearest = sub[np.arange(n), nearest_pos]
        second = (
            sub[np.arange(n), order[:, 1]]
            if len(medoids) > 1
            else np.full(n, np.inf)
        )
        base_cost = (w * nearest).sum()

        non_medoids = np.setdiff1d(np.arange(n), medoid_arr, assume_unique=False)
        best_delta = -1e-12
        best_pair: tuple[int, int] | None = None
        for out_pos in range(len(medoids)):
            keep = np.where(nearest_pos == out_pos, second, nearest)
            for candidate in non_medoids:
                new_cost = (w * np.minimum(dist[:, candidate], keep)).sum()
                delta = new_cost - base_cost
                if delta < best_delta:
                    best_delta = delta
                    best_pair = (out_pos, int(candidate))
        if best_pair is None:
            return False
        out_pos, candidate = best_pair
        medoids[out_pos] = candidate
        return True
