"""Tests for the grouped CF reducer and the weighted Lloyd step."""

import numpy as np
import pytest

from repro.core.features import StableCF
from repro.core.lloyd import group_cfs, group_means, weighted_lloyd_step

#: Clusters are (n, mean, SSD); the parameter keeps the case ids.
BACKENDS = ("stable",)


def _labelled(rng, n: int, d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Points with labels in -1..k-1 that leave clusters 1 and k-1 empty."""
    points = rng.normal(3.0, 1.5, size=(n, d))
    labels = rng.integers(-1, k, size=n)
    labels[(labels == 1) | (labels == k - 1)] = 0
    return points, labels


@pytest.mark.numerics
class TestGroupCFsParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("d", [1, 2, 16])
    def test_matches_from_points_per_cluster(self, rng, backend, d):
        k = 7
        points, labels = _labelled(rng, 3000, d, k)
        clusters = group_cfs(points, labels, k)
        cf_class = StableCF
        assert len(clusters) == k
        for c, cf in enumerate(clusters):
            assert isinstance(cf, cf_class)
            members = points[labels == c]
            if members.shape[0] == 0:
                assert cf.n == 0
                assert cf.dimensions == d
                continue
            ref = cf_class.from_points(members)
            assert cf.n == ref.n
            np.testing.assert_allclose(cf.centroid, ref.centroid, rtol=1e-12)
            assert cf.sum_squared_deviation == pytest.approx(
                ref.sum_squared_deviation, rel=1e-12
            )
        assert clusters[1].n == 0 and clusters[k - 1].n == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_minus_one_rows_are_dropped(self, backend):
        points = np.array([[0.0], [100.0], [2.0]])
        (cf,) = group_cfs(points, np.array([0, -1, 0]), 1)
        assert cf.n == 2
        assert cf.centroid[0] == 1.0
        assert cf.sum_squared_deviation == pytest.approx(2.0)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_no_rows_gives_empty_clusters(self, backend):
        clusters = group_cfs(np.empty((0, 3)), np.empty(0, np.int64), 4)
        assert [cf.n for cf in clusters] == [0, 0, 0, 0]

    def test_far_offset_ssd_is_two_pass(self):
        # A one-pass SS - LS^2/N loses everything at this offset.
        points = 1e8 + np.array([[0.0], [1.0], [2.0], [3.0]])
        (cf,) = group_cfs(points, np.zeros(4, np.int64), 1)
        assert cf.sum_squared_deviation == pytest.approx(5.0, rel=1e-12)


class TestGroupMeans:
    def test_weighted_means_and_mass(self, rng):
        points = rng.normal(size=(500, 3))
        labels = rng.integers(0, 4, size=500)
        labels[labels == 2] = 3
        weights = rng.uniform(0.5, 4.0, size=500)
        mass, means = group_means(points, labels, 4, weights)
        for c in (0, 1, 3):
            w = weights[labels == c]
            assert mass[c] == pytest.approx(w.sum(), rel=1e-12)
            expected = (points[labels == c] * w[:, None]).sum(0) / w.sum()
            np.testing.assert_allclose(means[c], expected, rtol=1e-12)
        assert mass[2] == 0.0
        assert np.all(means[2] == 0.0)

    def test_labels_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            group_means(np.zeros((2, 1)), np.array([0, 5]), 2)
        with pytest.raises(ValueError):
            group_means(np.zeros((2, 1)), np.array([0, -2]), 2)


class TestWeightedLloydStep:
    def test_empty_cluster_keeps_its_centre(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0]])
        centers = np.array([[0.5, 0.0], [50.0, 50.0]])
        step = weighted_lloyd_step(points, centers)
        np.testing.assert_array_equal(step.labels, [0, 0])
        np.testing.assert_array_equal(step.mass, [2.0, 0.0])
        np.testing.assert_array_equal(step.centers[1], centers[1])

    def test_weights_pull_the_mean(self):
        points = np.array([[0.0], [1.0]])
        step = weighted_lloyd_step(points, np.array([[0.5]]), np.array([3.0, 1.0]))
        assert step.centers[0, 0] == pytest.approx(0.25)
        assert step.mass[0] == 4.0

    def test_ties_go_to_the_lowest_centre(self):
        points = np.array([[0.0, 0.0], [0.0, 3.0]])
        centers = np.array([[-1.0, 0.0], [1.0, 0.0]])
        step = weighted_lloyd_step(points, centers, return_sq_dists=True)
        np.testing.assert_array_equal(step.labels, [0, 0])
        np.testing.assert_allclose(step.sq_dists, [1.0, 10.0])
