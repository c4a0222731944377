"""Weighted co-association over leaf-CF anchors.

The standard co-association matrix of ensemble clustering (Cluster
Forests, PAPERS.md) is built over *points*: entry ``(i, j)`` is the
fraction of ensemble members that put points ``i`` and ``j`` in the
same cluster — an ``O(N^2)`` object that is hopeless at BIRCH scale.

The BIRCH twist is that every member already carries an exact,
memory-bounded summary of the data: its leaf CFs.  We therefore build
the matrix over a set of **anchor CFs** (one member's leaf entries —
at most ``phase3_input_limit`` of them, optionally condensed further),
and let every member vote on each anchor by assigning the anchor's
centroid to that member's nearest cluster centroid through the shared
serving kernel.  Each anchor represents ``cf.n`` points, so downstream
consensus weighs it by that mass — the matrix is the point-level
co-association aggregated over the anchor partition, at
``O(A^2) <= O(phase3_input_limit^2)`` memory regardless of ``N`` or
the number of members.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.serve.kernel import nearest_centroids

__all__ = ["coassociation", "member_votes"]


def member_votes(
    anchor_centroids: np.ndarray,
    member_centroids: Sequence[np.ndarray],
    member_features: Sequence[Optional[np.ndarray]],
) -> np.ndarray:
    """Each member's cluster assignment of every anchor, ``(M, A)``.

    ``member_features[m]`` is the sorted column subset member ``m`` was
    fitted on (``None`` = all features); anchors are projected into the
    member's subspace before the nearest-centroid assignment, which
    uses the shared reduced-panel kernel (lowest-index tie rule), so
    votes are deterministic.
    """
    anchors = np.ascontiguousarray(anchor_centroids, dtype=np.float64)
    if anchors.ndim != 2:
        raise ValueError(
            f"anchor centroids must be 2-d (A, d), got {anchors.shape}"
        )
    if len(member_centroids) != len(member_features):
        raise ValueError("one feature subset per member is required")
    votes = np.empty((len(member_centroids), anchors.shape[0]), dtype=np.int64)
    for m, (centroids, features) in enumerate(
        zip(member_centroids, member_features)
    ):
        view = anchors
        if features is not None:
            view = np.ascontiguousarray(anchors[:, features])
        votes[m] = nearest_centroids(
            view, np.ascontiguousarray(centroids, dtype=np.float64)
        )
    return votes


def coassociation(votes: np.ndarray) -> np.ndarray:
    """Anchor-level co-association matrix, ``(A, A)`` in ``[0, 1]``.

    ``W[a, b]`` is the fraction of members whose vote put anchors ``a``
    and ``b`` in the same cluster.  Symmetric with a unit diagonal;
    ``1 - W`` is the consensus distance the linkage step clusters.
    """
    votes = np.asarray(votes, dtype=np.int64)
    if votes.ndim != 2 or votes.shape[0] == 0:
        raise ValueError(
            f"votes must be a non-empty (M, A) matrix, got {votes.shape}"
        )
    members, anchors = votes.shape
    out = np.zeros((anchors, anchors), dtype=np.float64)
    for row in votes:
        out += row[:, None] == row[None, :]
    out /= float(members)
    return out
