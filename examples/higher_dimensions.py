#!/usr/bin/env python
"""BIRCH beyond 2-d: clustering a 16-dimensional mixture, with persistence.

The paper's evaluation is 2-d (its quality judgments are visual), but
nothing in BIRCH is dimension-specific: the CF algebra, the D0-D4
distances and the page layout all take ``d`` as a parameter — higher
``d`` simply means fatter entries and therefore smaller branching
factors per page.  This example:

1. samples a 16-d Gaussian mixture,
2. clusters it with an 80 KB tree (note the reduced B/L the page
   layout derives for d = 16),
3. scores the labelling against ground truth with ARI/purity,
4. saves the fitted result and the tree summary to sealed archives
   and loads them back — the CF summary *is* the compressed dataset.

Run:  python examples/higher_dimensions.py
"""

import tempfile
from pathlib import Path

from repro import Birch, BirchConfig
from repro.core.serialization import (
    load_cfs,
    load_result_arrays,
    save_cfs,
    save_result,
)
from repro.datagen.mixtures import GaussianMixture
from repro.evaluation.labels import adjusted_rand_index, purity
from repro.pagestore.page import PageLayout


def main() -> None:
    mixture = GaussianMixture(
        n_components=8,
        dimensions=16,
        points_per_component=500,
        radius=1.0,
        separation=10.0,
        seed=3,
    ).generate()
    print(
        f"mixture: {mixture.n_points} points in d={mixture.dimensions}, "
        f"{len(mixture.centers)} components"
    )

    layout = PageLayout(page_size=1024, dimensions=16)
    print(
        f"page layout at d=16: B={layout.branching_factor}, "
        f"L={layout.leaf_capacity} (vs B=25, L=31 at d=2)"
    )

    config = BirchConfig(
        n_clusters=8,
        memory_bytes=80 * 1024,
        total_points_hint=mixture.n_points,
    )
    estimator = Birch(config)
    result = estimator.fit(mixture.points)

    print(f"found {result.n_clusters} clusters, {result.rebuilds} rebuilds")
    print(f"purity vs truth: {purity(result.labels, mixture.labels):.3f}")
    print(f"ARI vs truth:    {adjusted_rand_index(result.labels, mixture.labels):.3f}")

    with tempfile.TemporaryDirectory() as tmp:
        result_path = Path(tmp) / "result.res"
        summary_path = Path(tmp) / "summary.cfs"
        save_result(result_path, result)
        save_cfs(summary_path, result.subclusters)

        clusters, centroids, labels, header = load_result_arrays(result_path)
        entries = load_cfs(summary_path)
        raw_bytes = mixture.points.nbytes
        summary_bytes = summary_path.stat().st_size
        print()
        print(f"reloaded {len(clusters)} clusters, labels for {len(labels)} points")
        print(
            f"CF summary: {len(entries)} entries in {summary_bytes} bytes "
            f"on disk vs {raw_bytes} bytes of raw points "
            f"({raw_bytes / summary_bytes:.0f}x compression)"
        )


if __name__ == "__main__":
    main()
