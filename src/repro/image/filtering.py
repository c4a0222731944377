"""The two-pass BIRCH filtering workflow of Section 6.8.

Pass 1 clusters all (NIR, VIS) pixel tuples into ``K = 5`` groups.  The
paper found sky parts, clouds, sunlit leaves, and a mixed cluster of
"tree branches and shadows", and used the result to "pull out" the
background (sky and clouds).  Pass 2 re-clusters only the non-background
pixels — "a smaller dataset ... with a finer threshold" — separating
shadowed leaves from branches.

:class:`TwoPassFilter` reproduces that pipeline on any two-band image:
background clusters are identified as those whose centroid is brighter
in VIS than in NIR (sky and clouds both are; vegetation and bark are
not), and the report scores the found clusters against the scene's
ground truth by majority category and purity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.birch import Birch, BirchResult
from repro.core.config import BirchConfig
from repro.evaluation.labels import purity
from repro.image.scene import BACKGROUND_CATEGORIES, Scene, SceneCategory
from repro.serve.kernel import nearest_centroids

__all__ = ["FilterReport", "TwoPassFilter"]


@dataclass
class FilterReport:
    """Everything the two-pass workflow produced.

    Attributes
    ----------
    pass1:
        Phase results of the first, coarse clustering (K clusters over
        all pixels).
    pass2:
        Results of the finer clustering over non-background pixels.
    background_clusters:
        Pass-1 cluster ids identified as sky/cloud background.
    background_mask:
        Boolean per-pixel mask (flattened) of filtered-out pixels.
    pass1_labels / pass2_labels:
        Flattened per-pixel cluster ids; pass-2 labels are ``-1`` for
        background pixels.
    purity_pass1 / purity_pass2:
        Weighted majority-category purity against ground truth (only
        filled when the scene's ground truth was supplied).
    background_recall:
        Fraction of true background pixels that pass 1 filtered out.
    """

    pass1: BirchResult
    pass2: BirchResult
    background_clusters: list[int]
    background_mask: np.ndarray
    pass1_labels: np.ndarray
    pass2_labels: np.ndarray
    purity_pass1: Optional[float] = None
    purity_pass2: Optional[float] = None
    background_recall: Optional[float] = None
    category_breakdown: dict[int, dict[SceneCategory, int]] = field(
        default_factory=dict
    )


class TwoPassFilter:
    """Two-pass BIRCH pixel filtering.

    Parameters
    ----------
    pass1_clusters:
        ``K`` for the coarse pass (the paper uses 5).
    pass2_clusters:
        ``K`` for the fine pass over foreground pixels.
    band_weights:
        Scaling of (NIR, VIS) before clustering; the paper weighted the
        bands to equalise their influence.
    memory_bytes:
        Phase 1 memory budget for both passes; the fine pass gets the
        same budget but a smaller dataset, hence a finer threshold —
        exactly the mechanism the paper describes.
    seed:
        Random seed forwarded to the Birch configs.
    background_rule:
        Optional override of the background-cluster decision: a callable
        receiving the (k, 2) *unweighted* pass-1 centroid array and
        returning the cluster indices to filter out.  The default rule
        is VIS-dominance (sky and clouds reflect more visible than
        near-infrared light; vegetation and bark the opposite).
    """

    def __init__(
        self,
        pass1_clusters: int = 5,
        pass2_clusters: int = 3,
        band_weights: tuple[float, float] = (1.0, 1.0),
        memory_bytes: int = 80 * 1024,
        seed: int = 0,
        background_rule=None,
    ) -> None:
        if pass1_clusters < 2:
            raise ValueError(f"pass1_clusters must be >= 2, got {pass1_clusters}")
        if pass2_clusters < 2:
            raise ValueError(f"pass2_clusters must be >= 2, got {pass2_clusters}")
        self.pass1_clusters = pass1_clusters
        self.pass2_clusters = pass2_clusters
        self.band_weights = band_weights
        self.memory_bytes = memory_bytes
        self.seed = seed
        self.background_rule = background_rule

    def run(self, scene: Scene) -> FilterReport:
        """Run both passes on ``scene`` and score against ground truth."""
        tuples = scene.pixel_tuples(self.band_weights)
        truth = scene.categories.ravel()

        pass1 = self._cluster(tuples, self.pass1_clusters)
        pass1_labels = (
            pass1.labels
            if pass1.labels is not None
            else nearest_centroids(tuples, pass1.centroids)
        )

        background_clusters = self._background_clusters(pass1)
        background_mask = np.isin(pass1_labels, background_clusters)

        foreground = tuples[~background_mask]
        if foreground.shape[0] < self.pass2_clusters:
            raise RuntimeError(
                "pass 1 filtered out nearly everything; "
                f"only {foreground.shape[0]} foreground pixels remain"
            )
        pass2 = self._cluster(foreground, self.pass2_clusters)
        fg_labels = (
            pass2.labels
            if pass2.labels is not None
            else nearest_centroids(foreground, pass2.centroids)
        )
        pass2_labels = np.full(tuples.shape[0], -1, dtype=np.int64)
        pass2_labels[~background_mask] = fg_labels

        report = FilterReport(
            pass1=pass1,
            pass2=pass2,
            background_clusters=background_clusters,
            background_mask=background_mask,
            pass1_labels=pass1_labels,
            pass2_labels=pass2_labels,
        )
        self._score(report, truth)
        return report

    # -- internals --------------------------------------------------------------

    def _cluster(self, tuples: np.ndarray, k: int) -> BirchResult:
        config = BirchConfig(
            n_clusters=k,
            memory_bytes=self.memory_bytes,
            total_points_hint=tuples.shape[0],
            phase4_passes=1,
            random_seed=self.seed,
        )
        return Birch(config).fit(tuples)

    def _background_clusters(self, result: BirchResult) -> list[int]:
        """Clusters whose centroid is VIS-dominant (sky and clouds)."""
        weights_nir, weights_vis = self.band_weights
        unweighted = result.centroids / np.array([weights_nir, weights_vis])
        if self.background_rule is not None:
            return [int(i) for i in self.background_rule(unweighted)]
        background = []
        for idx, (nir, vis) in enumerate(unweighted):
            if vis > nir:
                background.append(idx)
        if not background:
            # Fall back to the brightest-VIS cluster so the pipeline
            # always removes *something* labelled sky-like.
            background = [int(np.argmax(result.centroids[:, 1]))]
        return background

    def _score(self, report: FilterReport, truth: np.ndarray) -> None:
        """Fill purity/recall fields against the ground-truth labels."""
        report.purity_pass1 = purity(report.pass1_labels, truth)
        fg = report.pass2_labels >= 0
        if fg.any():
            report.purity_pass2 = purity(report.pass2_labels[fg], truth[fg])
        truly_background = np.isin(truth, [int(c) for c in BACKGROUND_CATEGORIES])
        if truly_background.any():
            report.background_recall = float(
                (report.background_mask & truly_background).sum()
                / truly_background.sum()
            )
        breakdown: dict[int, dict[SceneCategory, int]] = {}
        for cluster in np.unique(report.pass1_labels):
            mask = report.pass1_labels == cluster
            counts = {
                cat: int(((truth == cat) & mask).sum()) for cat in SceneCategory
            }
            breakdown[int(cluster)] = {
                cat: n for cat, n in counts.items() if n > 0
            }
        report.category_breakdown = breakdown
