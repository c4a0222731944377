"""CLARA — Clustering LARge Applications (Kaufman & Rousseeuw 1990).

The related-work section of the BIRCH paper positions CLARA as the
sampling remedy for PAM's O(K(N-K)) swap cost: draw a sample, run PAM
on it, measure the resulting medoids' cost on the *whole* dataset, and
keep the best medoids over several samples.  CLARANS (our main
baseline) generalises this by randomising the search instead of the
data; having both lets the ablation benchmarks show the progression
PAM -> CLARA -> CLARANS -> BIRCH on the same workloads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.kmedoids import KMedoids

__all__ = ["CLARA", "ClaraResult"]


@dataclass
class ClaraResult:
    """Outcome of a CLARA run.

    Attributes
    ----------
    medoid_indices:
        Indices (into the full dataset) of the best medoid set found.
    medoids:
        Medoid coordinates, shape ``(k, d)``.
    labels:
        Nearest-medoid assignment of every point in the full dataset.
    cost:
        Total point-to-medoid distance over the full dataset.
    samples_drawn:
        Number of PAM-on-sample rounds executed.
    """

    medoid_indices: np.ndarray
    medoids: np.ndarray
    labels: np.ndarray
    cost: float
    samples_drawn: int


class CLARA:
    """PAM on random samples, scored against the full dataset.

    Parameters
    ----------
    n_clusters:
        ``k``.
    n_samples:
        How many independent samples to try (5 in the original CLARA).
    sample_size:
        Points per sample; the original recommendation is
        ``40 + 2k``, used when None.
    seed:
        RNG seed for sampling.
    """

    def __init__(
        self,
        n_clusters: int,
        n_samples: int = 5,
        sample_size: int | None = None,
        seed: int = 0,
    ) -> None:
        if n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
        if n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {n_samples}")
        if sample_size is not None and sample_size < n_clusters:
            raise ValueError(
                f"sample_size ({sample_size}) must cover n_clusters ({n_clusters})"
            )
        self.n_clusters = n_clusters
        self.n_samples = n_samples
        self.sample_size = sample_size
        self.seed = seed

    def fit(self, points: np.ndarray) -> ClaraResult:
        """Cluster ``points`` around ``k`` medoids via sampled PAM."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError(f"points must be (n, d), got shape {points.shape}")
        n = points.shape[0]
        k = self.n_clusters
        if n < k:
            raise ValueError(f"need at least {k} points, got {n}")

        sample_size = self.sample_size or min(n, 40 + 2 * k)
        sample_size = min(max(sample_size, k), n)
        rng = np.random.default_rng(self.seed)

        best_cost = np.inf
        best_indices: np.ndarray | None = None
        for _ in range(self.n_samples):
            sample_idx = rng.choice(n, size=sample_size, replace=False)
            pam = KMedoids(n_clusters=k).fit(points[sample_idx])
            medoid_idx = sample_idx[pam.medoid_indices]
            cost = self._full_cost(points, medoid_idx)
            if cost < best_cost:
                best_cost = cost
                best_indices = medoid_idx

        assert best_indices is not None
        medoids = points[best_indices]
        dist = np.sqrt(
            ((points[:, None, :] - medoids[None, :, :]) ** 2).sum(axis=2)
        )
        labels = np.argmin(dist, axis=1)
        return ClaraResult(
            medoid_indices=best_indices,
            medoids=medoids,
            labels=labels,
            cost=float(best_cost),
            samples_drawn=self.n_samples,
        )

    @staticmethod
    def _full_cost(points: np.ndarray, medoid_indices: np.ndarray) -> float:
        medoids = points[medoid_indices]
        dist = np.sqrt(
            ((points[:, None, :] - medoids[None, :, :]) ** 2).sum(axis=2)
        )
        return float(dist.min(axis=1).sum())
