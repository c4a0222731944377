"""Tests for Phase 4 refinement."""

import numpy as np
import pytest

from repro.core.birch import Birch
from repro.core.config import BirchConfig
from repro.core.features import StableCF
from repro.core.refinement import refine
from repro.datagen.presets import ds1, ds2, ds3
from repro.evaluation.labels import adjusted_rand_index
from repro.pagestore.iostats import IOStats


@pytest.fixture
def blobs(rng):
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    points = np.concatenate([rng.normal(c, 0.5, size=(60, 2)) for c in centers])
    return points, centers


class TestAssignment:
    def test_perfect_seeds_label_correctly(self, blobs):
        points, centers = blobs
        result = refine(points, centers, passes=1)
        expected = np.repeat(np.arange(3), 60)
        assert np.array_equal(result.labels, expected)

    def test_zero_passes_is_pure_labelling(self, blobs):
        points, centers = blobs
        result = refine(points, centers, passes=0)
        assert result.passes_run == 0
        assert np.allclose(result.centroids, centers)
        assert result.labels.shape == (180,)

    def test_offset_seeds_recover_centroids(self, blobs, rng):
        points, centers = blobs
        noisy_seeds = centers + rng.normal(0, 1.0, centers.shape)
        result = refine(points, noisy_seeds, passes=5)
        # Each refined centroid lands near a true center.
        for c in centers:
            dist = np.linalg.norm(result.centroids - c, axis=1).min()
            assert dist < 0.3

    def test_convergence_flag(self, blobs):
        points, centers = blobs
        result = refine(points, centers, passes=10)
        assert result.converged
        assert result.passes_run < 10

    def test_cluster_cfs_match_labels(self, blobs):
        points, centers = blobs
        result = refine(points, centers, passes=1)
        for c, cf in enumerate(result.clusters):
            mask = result.labels == c
            assert cf.n == int(mask.sum())
            if cf.n:
                assert np.allclose(cf.centroid, points[mask].mean(axis=0))


class TestRefinementImprovesCost:
    def test_passes_do_not_increase_inertia(self, blobs, rng):
        points, centers = blobs
        seeds = centers + rng.normal(0, 2.0, centers.shape)

        def inertia(centroids, labels):
            keep = labels >= 0
            return float(
                ((points[keep] - centroids[labels[keep]]) ** 2).sum()
            )

        one = refine(points, seeds, passes=1)
        many = refine(points, seeds, passes=8)
        assert inertia(many.centroids, many.labels) <= inertia(
            one.centroids, one.labels
        ) + 1e-9


class TestOutlierDiscard:
    def test_far_points_discarded(self, rng):
        cluster = rng.normal(0, 0.5, size=(100, 2))
        stray = np.array([[30.0, 30.0]])
        points = np.concatenate([cluster, stray])
        seeds = np.array([[0.0, 0.0]])
        result = refine(
            points, seeds, passes=1, discard_outliers=True, outlier_factor=2.0
        )
        assert result.discarded >= 1
        assert result.labels[-1] == -1

    def test_discarded_points_excluded_from_clusters(self, rng):
        cluster = rng.normal(0, 0.5, size=(100, 2))
        stray = np.array([[30.0, 30.0]])
        points = np.concatenate([cluster, stray])
        result = refine(
            points,
            np.array([[0.0, 0.0]]),
            passes=1,
            discard_outliers=True,
            outlier_factor=2.0,
        )
        assert result.clusters[0].n == 101 - result.discarded

    def test_no_discard_by_default(self, blobs):
        points, centers = blobs
        result = refine(points, centers, passes=1)
        assert result.discarded == 0
        assert (result.labels >= 0).all()


class TestAccounting:
    def test_each_pass_records_a_scan(self, blobs):
        points, centers = blobs
        stats = IOStats()
        result = refine(points, centers, passes=3, stats=stats)
        # Initial labelling scan plus one per executed pass.
        assert stats.data_scans == 1 + result.passes_run


class TestValidation:
    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            refine(rng.normal(size=(10, 2)), rng.normal(size=(2, 3)))

    def test_non_2d_points_rejected(self, rng):
        with pytest.raises(ValueError):
            refine(rng.normal(size=10), rng.normal(size=(2, 2)))

    def test_negative_passes_rejected(self, rng):
        with pytest.raises(ValueError):
            refine(rng.normal(size=(10, 2)), rng.normal(size=(2, 2)), passes=-1)

    def test_empty_cluster_keeps_seed(self, rng):
        points = rng.normal(0, 0.1, size=(20, 2))
        seeds = np.array([[0.0, 0.0], [100.0, 100.0]])
        result = refine(points, seeds, passes=2)
        # The far seed attracts nothing and must stay put.
        assert np.allclose(result.centroids[1], [100.0, 100.0])


class TestTieRule:
    def test_equidistant_points_go_to_the_lowest_seed(self):
        # Every point sits exactly midway between seeds 0 and 1 (and
        # seed 2 is farther), so both passes must keep label 0.
        points = np.array([[0.0, -1.0], [0.0, 0.0], [0.0, 1.0]])
        seeds = np.array([[-2.0, 0.0], [2.0, 0.0], [9.0, 9.0]])
        result = refine(points, seeds, passes=0)
        np.testing.assert_array_equal(result.labels, [0, 0, 0])

    def test_tied_seeds_keep_the_lowest_index_across_passes(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]])
        seeds = np.array([[0.5, 0.0], [0.5, 0.0], [5.0, 5.0]])
        result = refine(points, seeds, passes=3)
        np.testing.assert_array_equal(result.labels, [0, 0, 2])
        assert result.clusters[1].n == 0
        np.testing.assert_array_equal(result.centroids[1], [0.5, 0.0])


def _oracle_refine(points, seeds, passes, factor=2.0):
    """The pre-kernel Phase 4: (B, K, d) broadcast argmin and one boolean
    mask per cluster, with the outlier rule on the final labels."""
    cf_class = StableCF

    def assign(centroids):
        dist2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        return np.argmin(dist2, axis=1)

    def cluster_cfs(labels, k):
        return [
            cf_class.from_points(points[labels == c])
            if (labels == c).any()
            else cf_class.empty(points.shape[1])
            for c in range(k)
        ]

    centroids = seeds.copy()
    labels = assign(centroids)
    for _ in range(passes):
        new = centroids.copy()
        for c in range(centroids.shape[0]):
            if (labels == c).any():
                new[c] = points[labels == c].mean(axis=0)
        new_labels = assign(new)
        centroids = new
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    clusters = cluster_cfs(labels, centroids.shape[0])
    radii = np.array([cf.radius if cf.n > 0 else 0.0 for cf in clusters])
    dist = np.sqrt(((points - centroids[labels]) ** 2).sum(axis=1))
    cutoff = factor * radii[labels]
    return np.where((dist > cutoff) & (cutoff > 0), -1, labels)


class TestKernelParityWithBroadcastOracle:
    """Phase 4 on the shared kernel and grouped reducer labels the paper
    datasets as the old broadcast/masked formulation did."""

    @pytest.mark.parametrize("backend", ["stable"])  # keeps the case ids
    @pytest.mark.parametrize("make", [ds1, ds2, ds3], ids=["DS1", "DS2", "DS3"])
    def test_labels_match_oracle(self, make, backend):
        data = make(scale=0.03)
        config = BirchConfig(
            n_clusters=100,
            initial_threshold=1.0,
            phase4_passes=0,
        )
        seeds = Birch(config).fit(data.points).centroids
        for passes in (1, 3):
            got = refine(
                data.points,
                seeds,
                passes=passes,
                discard_outliers=True,
            ).labels
            want = _oracle_refine(data.points, seeds, passes)
            if not np.array_equal(got, want):
                assert adjusted_rand_index(got, want) >= 0.999
