"""Deterministic tie-breaking in ``Birch.predict``.

Documented rule: among exactly equidistant centroids, the lowest
cluster index wins.  The construction below makes the tie *exact* in
float64 — cluster means land on (0, 0) and (8, 0) with no rounding
(sums of small integers divided by 2), and the query (4, 0) is dead
centre, so both squared distances are the same bit pattern.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.birch import Birch
from repro.core.config import BirchConfig


def _tie_fit() -> Birch:
    points = np.array(
        [[-1.0, 0.0], [1.0, 0.0], [7.0, 0.0], [9.0, 0.0]], dtype=np.float64
    )
    estimator = Birch(
        BirchConfig(
            n_clusters=2,
            memory_bytes=64 * 1024,
            initial_threshold=3.0,
            phase4_passes=0,
        )
    )
    estimator.fit(points)
    return estimator


@pytest.mark.parametrize("backend", ["stable"])  # keeps the case ids
def test_equidistant_point_takes_lowest_cluster_index(backend):
    estimator = _tie_fit()
    centroids = estimator.result.centroids
    # Preconditions: the fit produced the exact centroids the tie needs.
    assert sorted(map(tuple, centroids.tolist())) == [(0.0, 0.0), (8.0, 0.0)]
    query = np.array([[4.0, 0.0]])
    d2 = ((query - centroids) ** 2).sum(axis=1)
    assert d2[0] == d2[1]  # exact, not approximate
    assert estimator.predict(query)[0] == 0
    estimator.close()


@pytest.mark.parametrize("backend", ["stable"])  # keeps the case ids
def test_tie_rule_is_stable_across_batches(backend):
    estimator = _tie_fit()
    queries = np.tile([[4.0, 0.0]], (1000, 1))
    labels = estimator.predict(queries)
    assert np.all(labels == 0)
    estimator.close()
