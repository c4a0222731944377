"""§4.1 order sensitivity: the forest must beat the single tree's spread.

The paper concedes that insertion order perturbs a single CF-tree's
output; under a tight memory budget (frequent rebuilds, coarse leaves)
the effect is large enough to measure as ARI variance across seeded
shuffles of DS1.  The forest's whole reason to exist is to shrink that
spread — asserted here, strictly.
"""

import numpy as np
import pytest

from repro.core.birch import Birch
from repro.core.config import BirchConfig
from repro.datagen.presets import ds1
from repro.ensemble import BirchForest, ForestConfig
from repro.evaluation.labels import adjusted_rand_index

pytestmark = [pytest.mark.ensemble, pytest.mark.parallel]

# Tight memory amplifies order sensitivity: the tree rebuilds often and
# the leaf partition depends heavily on which points arrived first.
_MEMORY_BYTES = 6 * 1024
_N_CLUSTERS = 100
_SCALE = 0.005
_SINGLE_SHUFFLES = 4
_FOREST_SEEDS = (0, 1, 2)
_MEMBERS = 8


@pytest.fixture(scope="module")
def dataset():
    ds = ds1(scale=_SCALE)
    return ds.points, ds.labels


@pytest.mark.parametrize("backend", ["stable"])  # keeps the case ids
def test_consensus_variance_strictly_below_single_tree(dataset, backend):
    points, truth = dataset

    single_aris = []
    for seed in range(_SINGLE_SHUFFLES):
        order = np.random.default_rng(seed).permutation(points.shape[0])
        result = Birch(
            BirchConfig(
                n_clusters=_N_CLUSTERS,
                memory_bytes=_MEMORY_BYTES,
            )
        ).fit(points[order])
        single_aris.append(adjusted_rand_index(result.labels, truth[order]))

    forest_aris = []
    for seed in _FOREST_SEEDS:
        config = ForestConfig(
            base=BirchConfig(
                n_clusters=_N_CLUSTERS,
                memory_bytes=_MEMORY_BYTES,
            ),
            n_members=_MEMBERS,
            seed=seed,
            max_anchors=None,
        )
        with BirchForest(config) as forest:
            result = forest.fit(points, n_jobs=4)
        forest_aris.append(adjusted_rand_index(result.labels, truth))

    single_var = float(np.var(single_aris))
    forest_var = float(np.var(forest_aris))
    assert single_var > 0, "the single tree must actually be order-sensitive"
    assert forest_var < single_var, (
        f"[{backend}] consensus ARI variance {forest_var:.6f} must be "
        f"strictly below the single-tree variance {single_var:.6f} "
        f"(singles {single_aris}, forests {forest_aris})"
    )
    # The forest should not buy stability with quality: its median ARI
    # must be at least the single tree's.
    assert float(np.median(forest_aris)) >= float(np.median(single_aris))
