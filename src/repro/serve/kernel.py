"""Vectorised nearest-centroid kernels shared by the read path.

Everything that assigns query points to fitted centroids — the
:class:`~repro.serve.frozen.FrozenModel` serving path,
:meth:`repro.core.birch.Birch.predict`, Phase 4 refinement, the CLI's
label export — runs through the functions here, so the arithmetic (and
therefore the label output) is identical everywhere.  Every query is an
exact scan over all ``K`` centroids; no candidate index sits in front of
it (one was measured slower at every ``K`` up to 8192, see
``docs/performance.md``).

The kernel uses the standard squared-distance decomposition

    ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2

and exploits that ``||x||^2`` is constant within a row: the *argmin*
over centroids needs only the reduced panel

    r(x, c) = -2 x.c + ||c||^2

which is one BLAS matmul against a premultiplied ``-2 C^T`` plus a
single row broadcast — versus the ``(B, K, d)`` difference tensor the
naive broadcast needs, or the two extra full-panel passes (``+||x||^2``
and a clamp) the full decomposition would spend.  When a caller wants
the winning squared distances too, ``||x||^2`` is added back for the
selected column only and clamped at zero.  The chunk loop is
cache-blocked: each block's ``(B, K)`` panel is sized to stay resident
while it is argmin-reduced.

Tie-breaking is deterministic and documented: among exactly equidistant
centroids, the **lowest centroid index wins** (``np.argmin`` returns the
first minimum).

Numerical note: cancellation can make a reconstructed squared distance
slightly negative; it is clamped to zero before any ``sqrt``.  The
argmin itself runs on the raw ``r`` panel, so two runs over the same
arrays are bit-identical.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = [
    "default_chunk",
    "nearest_centroids",
    "pairwise_sq_dists",
    "reduced_panel",
    "sq_norms",
]

#: Target bytes for one chunk's (B, K) float64 distance panel; 2 MiB
#: keeps the panel plus the query block L2/L3-resident on common parts.
_PANEL_BYTES = 2 << 20

_MIN_CHUNK = 256
_MAX_CHUNK = 8192


def sq_norms(vectors: np.ndarray) -> np.ndarray:
    """Row-wise squared Euclidean norms ``||v_i||^2`` via one einsum."""
    vectors = np.ascontiguousarray(vectors, dtype=np.float64)
    return np.einsum("ij,ij->i", vectors, vectors)


def default_chunk(n_centroids: int) -> int:
    """Cache-blocked query rows per chunk for a ``K``-centroid model."""
    rows = _PANEL_BYTES // (8 * max(1, n_centroids))
    return int(min(_MAX_CHUNK, max(_MIN_CHUNK, rows)))


def reduced_panel(
    block: np.ndarray,
    neg2_centroids_t: np.ndarray,
    centroid_sq_norms: np.ndarray,
) -> np.ndarray:
    """The argmin-equivalent panel ``r = -2 x.c + ||c||^2``, shape (B, K).

    ``neg2_centroids_t`` is the premultiplied ``-2 * centroids.T``
    (shape ``(d, K)``); amortise it across chunks.  Within a row, ``r``
    differs from the true squared distance by the constant ``||x||^2``,
    so argmin and all same-row comparisons are unaffected.
    """
    r = block @ neg2_centroids_t
    r += centroid_sq_norms[None, :]
    return r


def pairwise_sq_dists(
    block: np.ndarray,
    centroids: np.ndarray,
    centroid_sq_norms: Optional[np.ndarray] = None,
    *,
    block_sq_norms: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Squared distances ``(B, K)`` from a query block to all centroids.

    Uses the einsum decomposition; negative round-off residue is clamped
    to zero so callers can ``sqrt`` safely.  Precomputed norms may be
    passed to amortise them across chunks (the serving path stores the
    centroid norms in the frozen artifact).
    """
    block = np.ascontiguousarray(block, dtype=np.float64)
    centroids = np.ascontiguousarray(centroids, dtype=np.float64)
    if centroid_sq_norms is None:
        centroid_sq_norms = sq_norms(centroids)
    if block_sq_norms is None:
        block_sq_norms = sq_norms(block)
    d2 = block @ centroids.T
    d2 *= -2.0
    d2 += block_sq_norms[:, None]
    d2 += centroid_sq_norms[None, :]
    np.maximum(d2, 0.0, out=d2)
    return d2


def nearest_centroids(
    points: np.ndarray,
    centroids: np.ndarray,
    centroid_sq_norms: Optional[np.ndarray] = None,
    *,
    chunk: Optional[int] = None,
    return_sq_dists: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Index of the nearest centroid for every query point.

    Parameters
    ----------
    points:
        Queries, shape ``(n, d)``.
    centroids:
        Centroid matrix, shape ``(K, d)``.
    centroid_sq_norms:
        Optional precomputed ``||c||^2`` (computed once here otherwise).
    chunk:
        Query rows per cache block; defaults to :func:`default_chunk`.
    return_sq_dists:
        Also return each query's squared distance to its winner.

    Ties break to the lowest centroid index, deterministically.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    centroids = np.ascontiguousarray(centroids, dtype=np.float64)
    if points.ndim != 2 or centroids.ndim != 2:
        raise ValueError(
            f"points and centroids must be 2-d, got shapes "
            f"{points.shape} and {centroids.shape}"
        )
    if centroids.shape[0] == 0:
        raise ValueError("cannot assign to an empty centroid set")
    if points.shape[1] != centroids.shape[1]:
        raise ValueError(
            f"dimension mismatch: points have d={points.shape[1]}, "
            f"centroids have d={centroids.shape[1]}"
        )
    if centroid_sq_norms is None:
        centroid_sq_norms = sq_norms(centroids)
    if chunk is None:
        chunk = default_chunk(centroids.shape[0])
    neg2t = np.ascontiguousarray(centroids.T) * -2.0
    n = points.shape[0]
    labels = np.empty(n, dtype=np.int64)
    best = np.empty(n, dtype=np.float64) if return_sq_dists else None
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        r = reduced_panel(points[start:stop], neg2t, centroid_sq_norms)
        idx = np.argmin(r, axis=1)
        labels[start:stop] = idx
        if best is not None:
            picked = r[np.arange(stop - start), idx]
            picked += sq_norms(points[start:stop])
            np.maximum(picked, 0.0, out=picked)
            best[start:stop] = picked
    if best is not None:
        return labels, best
    return labels
