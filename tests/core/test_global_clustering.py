"""Tests for Phase 3: agglomerative CF clustering and CF-k-means."""

import numpy as np
import pytest

from repro.core.distances import Metric, distance
from repro.core.features import CF
from repro.core.global_clustering import CFKMeans, agglomerative_cf


def blob_entries(rng, centers, per_center=5, spread=0.3, points_each=4):
    """CF entries sampled around given centers."""
    entries = []
    truth = []
    for label, center in enumerate(centers):
        for _ in range(per_center):
            pts = rng.normal(center, spread, size=(points_each, 2))
            entries.append(CF.from_points(pts))
            truth.append(label)
    return entries, np.array(truth)


class TestAgglomerative:
    def test_recovers_separated_blobs(self, rng):
        centers = [(0.0, 0.0), (20.0, 0.0), (0.0, 20.0)]
        entries, truth = blob_entries(rng, centers)
        result = agglomerative_cf(entries, n_clusters=3)
        assert result.n_clusters == 3
        # Entries from the same blob must share a label.
        for label in range(3):
            blob_labels = set(result.labels[truth == label])
            assert len(blob_labels) == 1

    @pytest.mark.parametrize("metric", list(Metric))
    def test_all_metrics_work(self, metric, rng):
        centers = [(0.0, 0.0), (30.0, 0.0)]
        entries, truth = blob_entries(rng, centers)
        result = agglomerative_cf(entries, n_clusters=2, metric=metric)
        assert result.n_clusters == 2
        for label in range(2):
            assert len(set(result.labels[truth == label])) == 1

    def test_cluster_cfs_are_exact_sums(self, rng):
        entries, _ = blob_entries(rng, [(0.0, 0.0), (9.0, 9.0)])
        result = agglomerative_cf(entries, n_clusters=2)
        for cluster_id, cluster in enumerate(result.clusters):
            members = [
                entries[i]
                for i in range(len(entries))
                if result.labels[i] == cluster_id
            ]
            total = members[0].copy()
            for cf in members[1:]:
                total.merge_inplace(cf)
            assert cluster.allclose(total.to_stable(), rtol=1e-8, atol=1e-8)

    def test_conservation(self, rng):
        entries, _ = blob_entries(rng, [(0.0, 0.0), (9.0, 9.0)])
        result = agglomerative_cf(entries, n_clusters=2)
        result.check_conservation(entries)

    def test_k_equal_m_returns_singletons(self, rng):
        entries, _ = blob_entries(rng, [(0.0, 0.0)], per_center=4)
        result = agglomerative_cf(entries, n_clusters=4)
        assert result.n_clusters == 4
        assert sorted(result.labels) == [0, 1, 2, 3]

    def test_k_greater_than_m(self, rng):
        entries, _ = blob_entries(rng, [(0.0, 0.0)], per_center=3)
        result = agglomerative_cf(entries, n_clusters=10)
        assert result.n_clusters == 3

    def test_k_one_merges_everything(self, rng):
        entries, _ = blob_entries(rng, [(0.0, 0.0), (5.0, 5.0)])
        result = agglomerative_cf(entries, n_clusters=1)
        assert result.n_clusters == 1
        assert result.clusters[0].n == sum(cf.n for cf in entries)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            agglomerative_cf([], n_clusters=1)

    def test_invalid_k_rejected(self, rng):
        entries, _ = blob_entries(rng, [(0.0, 0.0)])
        with pytest.raises(ValueError):
            agglomerative_cf(entries, n_clusters=0)

    def test_merge_order_is_greedy_closest_first(self):
        """With three entries where two are very close, those merge first."""
        a = CF.from_point(np.array([0.0, 0.0]))
        b = CF.from_point(np.array([0.1, 0.0]))
        c = CF.from_point(np.array([100.0, 0.0]))
        result = agglomerative_cf([a, b, c], n_clusters=2)
        assert result.labels[0] == result.labels[1]
        assert result.labels[2] != result.labels[0]

    def test_centroids_shape(self, rng):
        entries, _ = blob_entries(rng, [(0.0, 0.0), (9.0, 9.0)])
        result = agglomerative_cf(entries, n_clusters=2)
        assert result.centroids.shape == (2, 2)


class TestCFKMeans:
    def test_recovers_separated_blobs(self, rng):
        centers = [(0.0, 0.0), (25.0, 0.0), (0.0, 25.0)]
        entries, truth = blob_entries(rng, centers)
        result = CFKMeans(n_clusters=3, seed=1).fit(entries)
        assert result.n_clusters == 3
        for label in range(3):
            assert len(set(result.labels[truth == label])) == 1

    def test_weighting_by_point_count(self, rng):
        """A heavy entry pulls its cluster centroid toward itself."""
        heavy = CF.from_points(np.tile([0.0, 0.0], (100, 1)))
        light = CF.from_points(np.tile([1.0, 0.0], (2, 1)))
        result = CFKMeans(n_clusters=1, seed=0).fit([heavy, light])
        centroid = result.clusters[0].centroid
        assert centroid[0] == pytest.approx(2.0 / 102.0, abs=1e-9)

    def test_conservation(self, rng):
        entries, _ = blob_entries(rng, [(0.0, 0.0), (9.0, 9.0)])
        result = CFKMeans(n_clusters=2, seed=0).fit(entries)
        result.check_conservation(entries)

    def test_deterministic_given_seed(self, rng):
        entries, _ = blob_entries(rng, [(0.0, 0.0), (9.0, 9.0)])
        a = CFKMeans(n_clusters=2, seed=7).fit(entries)
        b = CFKMeans(n_clusters=2, seed=7).fit(entries)
        assert np.array_equal(a.labels, b.labels)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            CFKMeans(n_clusters=2).fit([])

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            CFKMeans(n_clusters=0)
        with pytest.raises(ValueError):
            CFKMeans(n_clusters=2, max_iter=0)

    def test_more_clusters_than_entries(self, rng):
        entries, _ = blob_entries(rng, [(0.0, 0.0)], per_center=2)
        result = CFKMeans(n_clusters=10, seed=0).fit(entries)
        assert result.n_clusters <= 2


class TestQualityAgainstGreedyBound:
    def test_hierarchical_beats_random_assignment(self, rng):
        """Sanity: agglomerative D2 clustering has lower within-cluster
        spread than a random labelling of the same entries."""
        centers = [(0.0, 0.0), (12.0, 0.0), (0.0, 12.0), (12.0, 12.0)]
        entries, _ = blob_entries(rng, centers, per_center=6)
        result = agglomerative_cf(entries, n_clusters=4)
        got = sum(cf.sum_squared_deviation for cf in result.clusters)

        rng2 = np.random.default_rng(0)
        random_labels = rng2.integers(0, 4, size=len(entries))
        random_ssd = 0.0
        for c in range(4):
            members = [entries[i] for i in np.nonzero(random_labels == c)[0]]
            if not members:
                continue
            total = members[0].copy()
            for cf in members[1:]:
                total.merge_inplace(cf)
            random_ssd += total.sum_squared_deviation
        assert got < random_ssd


class TestCFMedoids:
    def test_recovers_separated_blobs(self, rng):
        from repro.core.global_clustering import CFMedoids

        centers = [(0.0, 0.0), (25.0, 0.0), (0.0, 25.0)]
        entries, truth = blob_entries(rng, centers)
        result = CFMedoids(n_clusters=3).fit(entries)
        assert result.n_clusters == 3
        for label in range(3):
            assert len(set(result.labels[truth == label])) == 1

    def test_weighted_medoid_choice(self):
        """The medoid lands on the heavy entry, not the geometric middle."""
        import numpy as np

        from repro.core.features import CF
        from repro.core.global_clustering import CFMedoids

        heavy = CF.from_points(np.tile([0.0, 0.0], (100, 1)))
        light_a = CF.from_points(np.tile([4.0, 0.0], (2, 1)))
        light_b = CF.from_points(np.tile([8.0, 0.0], (2, 1)))
        result = CFMedoids(n_clusters=1).fit([heavy, light_a, light_b])
        assert result.n_clusters == 1
        assert result.clusters[0].n == 104

    def test_conservation(self, rng):
        from repro.core.global_clustering import CFMedoids

        entries, _ = blob_entries(rng, [(0.0, 0.0), (9.0, 9.0)])
        result = CFMedoids(n_clusters=2).fit(entries)
        result.check_conservation(entries)

    def test_empty_input_rejected(self):
        from repro.core.global_clustering import CFMedoids

        with pytest.raises(ValueError):
            CFMedoids(n_clusters=2).fit([])

    def test_pipeline_with_medoids(self, rng):
        import numpy as np

        from repro.core.birch import Birch
        from repro.core.config import BirchConfig

        pts = np.concatenate(
            [rng.normal(c, 0.4, (60, 2)) for c in ((0, 0), (12, 0))]
        )
        result = Birch(
            BirchConfig(n_clusters=2, phase3_algorithm="medoids")
        ).fit(pts)
        assert result.n_clusters == 2
