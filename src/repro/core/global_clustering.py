"""Phase 3: global clustering of the leaf-entry subclusters.

After Phase 1/2, the dataset is summarised by ``m`` leaf entries (CFs),
few enough for a quadratic algorithm.  The paper "adapted the
agglomerative hierarchical clustering algorithm ... applied directly to
the subclusters represented by their CF vectors" using any of the D2/D4
distances with "complexity O(m^2)".  Two adaptations are provided:

* :func:`agglomerative_cf` — greedy pairwise merging of CFs under any of
  D0-D4.  Because all five distances are closed-form functions of CFs,
  merged-cluster distances are *exact* (no Lance-Williams
  approximation).  A nearest-neighbour array keeps each step near
  O(m), so the whole run is O(m^2) as in the paper.
* :class:`CFKMeans` — weighted Lloyd iterations on entry centroids with
  point counts as weights; the "adapted existing algorithm" alternative.

Both return a :class:`GlobalClustering` mapping each input entry to a
cluster and exposing exact cluster CFs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.distances import Metric, stable_distances_to_set
from repro.core.features import CF, StableCF, cf_row
from repro.core.lloyd import weighted_lloyd_step
from repro.errors import PhaseTimeoutError
from repro.serve.kernel import nearest_centroids

__all__ = ["CFKMeans", "CFMedoids", "GlobalClustering", "MergeStep", "agglomerative_cf"]


@dataclass(frozen=True)
class MergeStep:
    """One merge of the agglomerative run (a dendrogram edge).

    Attributes
    ----------
    left, right:
        Indices (into the original entry list) of the representatives
        of the two clusters merged at this step.
    distance:
        Their distance under the clustering metric when merged.
    merged_points:
        Total raw points in the resulting cluster.
    """

    left: int
    right: int
    distance: float
    merged_points: int


@dataclass
class GlobalClustering:
    """Result of clustering ``m`` subcluster CFs into ``k`` groups.

    Attributes
    ----------
    labels:
        Array of shape ``(m,)`` assigning each input entry to a cluster.
    clusters:
        The ``k`` cluster CFs (exact sums of their member entries).
    history:
        The merge sequence (hierarchical runs only) — the dendrogram
        the paper's Phase 3 algorithm implicitly builds.
    """

    labels: np.ndarray
    clusters: list[StableCF]
    history: list[MergeStep] = field(default_factory=list)

    @property
    def n_clusters(self) -> int:
        """Number of clusters produced."""
        return len(self.clusters)

    @property
    def centroids(self) -> np.ndarray:
        """Cluster centroids, shape ``(k, d)``."""
        return np.stack([cf.centroid for cf in self.clusters])

    def check_conservation(self, entries: list[StableCF]) -> None:
        """Assert cluster CFs sum to the input entries (test helper)."""
        total_in = sum((cf.n for cf in entries), 0)
        total_out = sum((cf.n for cf in self.clusters), 0)
        if total_in != total_out:
            raise AssertionError(
                f"clusters summarise {total_out} points, input had {total_in}"
            )


def agglomerative_cf(
    entries: list[CF | StableCF],
    n_clusters: int = 1,
    metric: Metric = Metric.D2_AVG_INTERCLUSTER,
    stop_diameter: Optional[float] = None,
    deadline: Optional[float] = None,
) -> GlobalClustering:
    """Agglomerative hierarchical clustering over CF vectors.

    Starts from one cluster per entry and repeatedly merges the closest
    pair under ``metric``.  Distances between merged clusters are
    recomputed exactly from the merged CFs.  Stopping follows the
    paper's Phase 3 contract — the user specifies *either* the number
    of clusters *or* a cluster-size bound:

    * with only ``n_clusters``, merge until ``K`` clusters remain;
    * with ``stop_diameter``, additionally refuse any merge whose
      resulting cluster diameter would exceed the bound, so the output
      may have *more* than ``n_clusters`` clusters (set
      ``n_clusters=1`` to cluster purely by diameter).

    Parameters
    ----------
    entries:
        The subcluster CFs (Phase 1/2 leaf entries); reference
        :class:`~repro.core.features.CF` entries are converted to
        ``(n, mean, SSD)`` first.
    n_clusters:
        Target number of clusters ``K`` (lower bound on the output).
    metric:
        Any of D0-D4; the paper's experiments use D2 (and mention D4).
    stop_diameter:
        Maximum permitted diameter of any merged cluster, or ``None``.
    deadline:
        Optional ``time.monotonic()`` instant; if the merge loop is
        still running past it, :class:`~repro.errors.PhaseTimeoutError`
        is raised (the supervisor catches this and falls back to
        CF-k-means).  ``None`` (the default) never checks the clock, so
        untimed runs are byte-identical to the original algorithm.

    Raises
    ------
    PhaseTimeoutError
        When ``deadline`` is set and exceeded mid-merge.
    """
    m = len(entries)
    if m == 0:
        raise ValueError("cannot cluster zero entries")
    if n_clusters < 1:
        raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
    if stop_diameter is not None and stop_diameter < 0:
        raise ValueError(f"stop_diameter must be >= 0, got {stop_diameter}")
    if n_clusters >= m:
        labels = np.arange(m)
        return GlobalClustering(labels=labels, clusters=[cf.copy() for cf in entries])

    # The SoA state holds (n, mean, SSD) rows, and all merge/distance
    # arithmetic below goes through the cancellation-free kernels.
    rows = [cf_row(cf) for cf in entries]
    ns = np.array([n for n, _, _ in rows], dtype=np.float64)
    vec = np.stack([mean for _, mean, _ in rows]).astype(np.float64)
    sq = np.array([ssd for _, _, ssd in rows], dtype=np.float64)
    active = np.ones(m, dtype=bool)
    # Union-find-ish parent map: every original entry tracks its cluster.
    labels = np.arange(m)

    nn_dist = np.full(m, np.inf)
    nn_idx = np.full(m, -1, dtype=np.int64)

    # Pairs whose merge would breach stop_diameter; re-cleared when a
    # participant merges with someone else (its shape changed).
    forbidden: dict[int, set[int]] = {}

    def row_distances(i: int) -> np.ndarray:
        # float n: rows may carry fractional (decayed) mass, which int()
        # would truncate to an empty probe.
        probe = StableCF(float(ns[i]), vec[i], float(sq[i]))
        dist = stable_distances_to_set(probe, ns, vec, sq, metric)
        dist[~active] = np.inf
        dist[i] = np.inf
        blocked = forbidden.get(i)
        if blocked:
            dist[list(blocked)] = np.inf
        return dist

    def refresh_nn(i: int) -> None:
        dist = row_distances(i)
        j = int(np.argmin(dist))
        nn_dist[i] = dist[j]
        nn_idx[i] = j

    def forbid(i: int, j: int) -> None:
        forbidden.setdefault(i, set()).add(j)
        forbidden.setdefault(j, set()).add(i)
        refresh_nn(i)
        refresh_nn(j)

    def clear_forbidden(i: int) -> None:
        for other in forbidden.pop(i, set()):
            peers = forbidden.get(other)
            if peers is not None:
                peers.discard(i)

    def merged_diameter_of(i: int, j: int) -> float:
        a = StableCF(float(ns[i]), vec[i], float(sq[i]))
        return a.merge(StableCF(float(ns[j]), vec[j], float(sq[j]))).diameter

    history: list[MergeStep] = []

    for i in range(m):
        refresh_nn(i)

    remaining = m
    while remaining > n_clusters:
        if deadline is not None and time.monotonic() > deadline:
            raise PhaseTimeoutError(
                f"Phase 3 hierarchical merge loop exceeded its deadline "
                f"with {remaining} clusters remaining (target {n_clusters})"
            )
        i = int(np.argmin(nn_dist))
        if not np.isfinite(nn_dist[i]):
            break  # every remaining pair is forbidden by stop_diameter
        j = int(nn_idx[i])
        # The cached neighbour may have been merged away; refresh lazily.
        if not active[j] or not active[i]:
            if active[i]:
                refresh_nn(i)
            else:
                nn_dist[i] = np.inf
            continue
        if stop_diameter is not None and merged_diameter_of(i, j) > stop_diameter:
            forbid(i, j)
            continue
        # Merge j into i.
        history.append(
            MergeStep(
                left=i,
                right=j,
                distance=float(nn_dist[i]),
                merged_points=int(ns[i] + ns[j]),
            )
        )
        # Chan pairwise update on the (n, mean, SSD) row.
        n_new = ns[i] + ns[j]
        delta = vec[j] - vec[i]
        vec[i] += (ns[j] / n_new) * delta
        sq[i] += sq[j] + (ns[i] * ns[j] / n_new) * float(delta @ delta)
        ns[i] = n_new
        active[j] = False
        nn_dist[j] = np.inf
        labels[labels == j] = i
        remaining -= 1
        clear_forbidden(i)
        clear_forbidden(j)
        refresh_nn(i)
        # Anyone whose nearest neighbour was i or j must re-scan.
        stale = active & ((nn_idx == i) | (nn_idx == j))
        stale[i] = False
        for k in np.nonzero(stale)[0]:
            refresh_nn(int(k))

    return _package(labels, active, ns, vec, sq, history)


def _package(
    labels: np.ndarray,
    active: np.ndarray,
    ns: np.ndarray,
    vec: np.ndarray,
    sq: np.ndarray,
    history: list[MergeStep],
) -> GlobalClustering:
    """Compact merged-cluster state into a GlobalClustering."""
    cluster_ids = np.nonzero(active)[0]
    id_to_compact = {int(cid): pos for pos, cid in enumerate(cluster_ids)}
    compact_labels = np.array([id_to_compact[int(c)] for c in labels], dtype=np.int64)
    clusters = [
        StableCF(float(ns[cid]), vec[cid].copy(), float(sq[cid]))
        for cid in cluster_ids
    ]
    return GlobalClustering(labels=compact_labels, clusters=clusters, history=history)


class CFKMeans:
    """Weighted k-means over subcluster CFs (the Phase 3 alternative).

    Each CF contributes its centroid weighted by its point count, so the
    optimisation target is exactly the k-means objective on the raw
    points as far as the between-entry structure allows.

    Parameters
    ----------
    n_clusters:
        ``K``.
    max_iter:
        Lloyd iteration cap.
    tol:
        Relative centroid-shift convergence tolerance.
    seed:
        RNG seed for the k-means++ style initialisation.
    """

    def __init__(
        self,
        n_clusters: int,
        max_iter: int = 100,
        tol: float = 1e-6,
        seed: int = 0,
    ) -> None:
        if n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
        if max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {max_iter}")
        self.n_clusters = n_clusters
        self.max_iter = max_iter
        self.tol = tol
        self.seed = seed

    def fit(self, entries: list[StableCF]) -> GlobalClustering:
        """Cluster the entries; returns labels and exact cluster CFs."""
        m = len(entries)
        if m == 0:
            raise ValueError("cannot cluster zero entries")
        k = min(self.n_clusters, m)
        centroids_in = np.stack([cf.centroid for cf in entries])
        weights = np.array([cf.n for cf in entries], dtype=np.float64)

        centers = self._init_centers(centroids_in, weights, k)
        for _ in range(self.max_iter):
            step = weighted_lloyd_step(
                centroids_in, centers, weights, return_sq_dists=True
            )
            new_centers = step.centers
            # Re-seed empty clusters at the entry farthest from its centre.
            empty = step.mass <= 0
            if empty.any():
                new_centers[empty] = centroids_in[int(np.argmax(step.sq_dists))]
            shift = float(np.linalg.norm(new_centers - centers))
            centers = new_centers
            if shift <= self.tol * (1.0 + float(np.linalg.norm(centers))):
                break

        labels = nearest_centroids(centroids_in, centers)
        clusters: list[StableCF] = []
        final_labels = np.full(m, -1, dtype=np.int64)
        next_id = 0
        for c in range(k):
            members = [entries[i] for i in np.nonzero(labels == c)[0]]
            if not members:
                continue
            merged = members[0].copy()
            for cf in members[1:]:
                merged.merge_inplace(cf)
            clusters.append(merged)
            final_labels[labels == c] = next_id
            next_id += 1
        return GlobalClustering(labels=final_labels, clusters=clusters)

    def _init_centers(
        self, points: np.ndarray, weights: np.ndarray, k: int
    ) -> np.ndarray:
        """k-means++ style seeding weighted by entry point counts."""
        rng = np.random.default_rng(self.seed)
        m = points.shape[0]
        first = int(rng.choice(m, p=weights / weights.sum()))
        centers = [points[first]]
        closest2 = ((points - centers[0]) ** 2).sum(axis=1)
        for _ in range(1, k):
            scores = closest2 * weights
            total = scores.sum()
            if total <= 0:
                idx = int(rng.integers(m))
            else:
                idx = int(rng.choice(m, p=scores / total))
            centers.append(points[idx])
            dist2 = ((points - centers[-1]) ** 2).sum(axis=1)
            closest2 = np.minimum(closest2, dist2)
        return np.stack(centers)


class CFMedoids:
    """Weighted PAM over subcluster centroids (a third Phase 3 option).

    Each entry contributes its centroid weighted by its point count, so
    the optimised objective is the k-medoids cost of the summarised
    dataset.  PAM is exhaustive (O(K * m) swap evaluations per round),
    so this option suits modest ``m`` and ``K`` — exactly the situation
    after Phase 2 condensing.

    Parameters
    ----------
    n_clusters:
        ``K``.
    max_iter:
        PAM swap-round cap.
    """

    def __init__(self, n_clusters: int, max_iter: int = 50) -> None:
        if n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
        self.n_clusters = n_clusters
        self.max_iter = max_iter

    def fit(self, entries: list[StableCF]) -> GlobalClustering:
        """Cluster the entries; returns labels and exact cluster CFs."""
        from repro.baselines.kmedoids import KMedoids

        m = len(entries)
        if m == 0:
            raise ValueError("cannot cluster zero entries")
        k = min(self.n_clusters, m)
        centroids = np.stack([cf.centroid for cf in entries])
        weights = np.array([cf.n for cf in entries], dtype=np.float64)
        pam = KMedoids(n_clusters=k, max_iter=self.max_iter).fit(
            centroids, weights=weights
        )

        clusters: list[StableCF] = []
        final_labels = np.full(m, -1, dtype=np.int64)
        next_id = 0
        for c in range(k):
            member_idx = np.nonzero(pam.labels == c)[0]
            if member_idx.size == 0:
                continue
            merged = entries[member_idx[0]].copy()
            for i in member_idx[1:]:
                merged.merge_inplace(entries[i])
            clusters.append(merged)
            final_labels[member_idx] = next_id
            next_id += 1
        return GlobalClustering(labels=final_labels, clusters=clusters)
