"""Consensus clustering of co-association anchors.

Two interchangeable consensus steps over the weighted co-association
matrix of :mod:`repro.ensemble.coassoc`:

* :func:`average_linkage_consensus` — exact mass-weighted average
  linkage on the consensus distance ``1 - W``.  The analogue of the
  paper's Phase 3 adapted agglomerative HC, but run in vote space
  instead of feature space, so members that disagree about geometry
  still agree through their votes.
* :func:`kmeans_consensus` — seeded, mass-weighted k-means on the
  co-association embedding (each anchor's row of ``W``).  The CF-k-means
  analogue; cheaper than linkage for large anchor sets.

Both return a dense anchor labelling in ``0..k-1``, canonicalised so
cluster ids are ordered by each cluster's lowest anchor index — a pure
function of ``(W, weights, n_clusters[, seed])``, which is what makes
the whole forest byte-deterministic.
"""

from __future__ import annotations

import numpy as np

from repro.core.lloyd import weighted_lloyd_step

__all__ = ["average_linkage_consensus", "kmeans_consensus"]


def _canonical(labels: np.ndarray) -> np.ndarray:
    """Relabel clusters densely by order of first anchor appearance."""
    out = np.empty_like(labels)
    mapping: dict[int, int] = {}
    for i, lab in enumerate(labels):
        key = int(lab)
        if key not in mapping:
            mapping[key] = len(mapping)
        out[i] = mapping[key]
    return out


def _check_inputs(
    coassoc: np.ndarray, weights: np.ndarray, n_clusters: int
) -> tuple[np.ndarray, np.ndarray]:
    coassoc = np.asarray(coassoc, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if coassoc.ndim != 2 or coassoc.shape[0] != coassoc.shape[1]:
        raise ValueError(
            f"coassoc must be square (A, A), got shape {coassoc.shape}"
        )
    if weights.shape != (coassoc.shape[0],):
        raise ValueError(
            f"weights must have shape ({coassoc.shape[0]},), "
            f"got {weights.shape}"
        )
    if np.any(weights <= 0):
        raise ValueError("anchor weights must be positive (CF n >= 1)")
    if n_clusters < 1:
        raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
    return coassoc, weights


def average_linkage_consensus(
    coassoc: np.ndarray, weights: np.ndarray, n_clusters: int
) -> np.ndarray:
    """Mass-weighted average-linkage labels over the anchors.

    Between clusters ``U`` and ``V`` the linkage similarity is the
    mass-weighted mean co-association
    ``sum_{a in U, b in V} w_a w_b W[a,b] / (m_U m_V)``; the two most
    similar clusters merge each round (ties to the lexicographically
    first pair) until ``n_clusters`` remain.  Maintaining the pairwise
    *similarity sums* makes each merge an exact ``O(A)`` update — no
    Lance-Williams approximation.
    """
    coassoc, weights = _check_inputs(coassoc, weights, n_clusters)
    a = coassoc.shape[0]
    k = min(n_clusters, a)
    # S[u, v] = total pairwise mass-weighted similarity between the
    # current clusters u and v; additive under merges.
    s = coassoc * np.outer(weights, weights)
    mass = weights.copy()
    alive = np.ones(a, dtype=bool)
    parents = np.arange(a)  # anchor -> current representative
    n_alive = a
    neg = -np.inf
    while n_alive > k:
        sim = s / np.outer(mass, mass)
        sim[~alive, :] = neg
        sim[:, ~alive] = neg
        np.fill_diagonal(sim, neg)
        # argmax over the C-ordered matrix: ties resolve to the lowest
        # (i, j) pair, keeping merges deterministic.
        flat = int(np.argmax(sim))
        i, j = divmod(flat, a)
        if i > j:
            i, j = j, i
        s[i, :] += s[j, :]
        s[:, i] += s[:, j]
        mass[i] += mass[j]
        alive[j] = False
        parents[parents == j] = i
        n_alive -= 1
    return _canonical(parents)


def kmeans_consensus(
    coassoc: np.ndarray,
    weights: np.ndarray,
    n_clusters: int,
    *,
    seed: int = 0,
    max_iter: int = 100,
    tol: float = 1e-9,
) -> np.ndarray:
    """Mass-weighted k-means labels in the co-association embedding.

    Each anchor is embedded as its row of ``W`` (anchors that co-vote
    alike sit close together regardless of feature-space geometry);
    centers are mass-weighted means; init is a seeded k-means++ sweep.
    Ties and empty clusters resolve deterministically (farthest-anchor
    reseeding), so the labelling is a pure function of the inputs.
    """
    coassoc, weights = _check_inputs(coassoc, weights, n_clusters)
    a = coassoc.shape[0]
    k = min(n_clusters, a)
    rng = np.random.default_rng(seed)
    points = coassoc

    # Seeded k-means++: first center mass-weighted, the rest by the
    # usual D^2 weighting.
    prob = weights / weights.sum()
    centers = np.empty((k, a), dtype=np.float64)
    centers[0] = points[rng.choice(a, p=prob)]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        mass = d2 * weights
        total = mass.sum()
        if total <= 0:
            centers[c] = points[int(np.argmin(d2))]
        else:
            centers[c] = points[rng.choice(a, p=mass / total)]
        d2 = np.minimum(d2, np.sum((points - centers[c]) ** 2, axis=1))

    labels = np.zeros(a, dtype=np.int64)
    for _ in range(max_iter):
        step = weighted_lloyd_step(points, centers, weights, return_sq_dists=True)
        labels, new_centers = step.labels, step.centers
        empty = np.flatnonzero(step.mass <= 0)
        if empty.size:
            # Deterministic reseed: the anchor farthest from its center
            # claims the empty slots.
            far = int(np.argmax(step.sq_dists))
            new_centers[empty] = points[far]
            labels[far] = empty[-1]
        shift = float(np.max(np.sum((new_centers - centers) ** 2, axis=1)))
        centers = new_centers
        if shift <= tol:
            break
    return _canonical(labels)
