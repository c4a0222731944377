"""CF-summary compression study (the paper's closing "data compression" idea).

The CF-tree's leaf entries are a lossy compression of the dataset: each
entry stores ``(N, LS, SS)`` — d+2 floats — regardless of how many
points it absorbed.  The absorption threshold ``T`` is the rate/
distortion knob: larger T means fewer entries (more compression) but
coarser summaries.

:func:`compression_sweep` quantifies the trade-off on a dataset: for a
range of thresholds it builds a tree, measures

* the **compression ratio** (raw point bytes / summary bytes),
* the **within-entry distortion** (weighted average entry radius — the
  RMS error of replacing each point by its entry centroid), and
* the **downstream quality** (weighted average diameter after the
  usual Phase 3 clustering of the summaries),

demonstrating that aggressive summarisation barely hurts the final
clustering until entries approach the cluster scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.features import StableCF
from repro.core.global_clustering import agglomerative_cf
from repro.core.tree import CFTree
from repro.datagen.generator import Dataset
from repro.evaluation.quality import weighted_average_diameter
from repro.pagestore.page import PageLayout

__all__ = ["CompressionPoint", "compression_sweep"]

_FLOAT_BYTES = 8


@dataclass(frozen=True)
class CompressionPoint:
    """One point on the compression/distortion curve.

    Attributes
    ----------
    threshold:
        The absorption threshold ``T`` used.
    entries:
        Leaf entries in the summary.
    ratio:
        Raw bytes / summary bytes (> 1 means compression).
    distortion:
        Point-weighted average entry radius: the RMS error of
        representing each point by its entry's centroid.
    downstream_quality:
        Weighted average diameter after clustering the summary into
        the dataset's K clusters.
    """

    threshold: float
    entries: int
    ratio: float
    distortion: float
    downstream_quality: float


def compression_sweep(
    dataset: Dataset,
    thresholds: Sequence[float],
    page_size: int = 1024,
) -> list[CompressionPoint]:
    """Build one summary per threshold and measure the trade-off."""
    if not thresholds:
        raise ValueError("need at least one threshold")
    d = dataset.points.shape[1]
    layout = PageLayout(page_size=page_size, dimensions=d)
    raw_bytes = dataset.points.shape[0] * d * _FLOAT_BYTES
    entry_bytes = (d + 2) * _FLOAT_BYTES

    points = []
    for threshold in thresholds:
        tree = CFTree(layout, threshold=float(threshold))
        tree.insert_points(dataset.points)
        entries = tree.leaf_entries()
        summary_bytes = max(len(entries) * entry_bytes, 1)
        distortion = _weighted_entry_radius(entries)
        clustering = agglomerative_cf(
            entries, n_clusters=dataset.params.n_clusters
        )
        live = [cf for cf in clustering.clusters if cf.n > 0]
        points.append(
            CompressionPoint(
                threshold=float(threshold),
                entries=len(entries),
                ratio=raw_bytes / summary_bytes,
                distortion=distortion,
                downstream_quality=weighted_average_diameter(live),
            )
        )
    return points


def _weighted_entry_radius(entries: list[StableCF]) -> float:
    """Point-weighted mean entry radius (0 for all-singleton summaries)."""
    total = sum(cf.n for cf in entries)
    if total == 0:
        return 0.0
    acc = sum(cf.n * cf.radius for cf in entries)
    return float(acc) / total
