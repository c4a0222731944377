"""StableCF algebra, its use end to end, and brute-force cross-checks.

Three layers of coverage:

* the ``(n, mean, SSD)`` algebra itself — constructors, Welford/Chan
  updates, subtraction, conversion from the paper's ``(N, LS, SS)``
  reference class;
* the brute-force ground truth — D0-D4 computed from CFs (the reference
  ``CF`` and ``StableCF``) must equal the Section 3 raw-point
  definitions on random small clusters, and the vectorised
  merged-radius/diameter kernels must agree with merge-then-read;
* the stored representation end to end — nodes, trees, rebuild, tree
  merging, Phase 3/4 and serialisation all keep ``StableCF`` entries,
  converting reference CFs handed to them.
"""

import math

import numpy as np
import pytest

from repro.core.distances import (
    Metric,
    distance,
    stable_merged_diameter,
    stable_merged_radius,
)
from repro.core.features import CF, StableCF, as_stable
from repro.core.node import CFNode
from repro.core.tree import CFTree
from repro.pagestore.page import PageLayout

ALL_METRICS = list(Metric)
#: The reference ``(N, LS, SS)`` class and the stored representation.
CF_CLASSES = {"classic": CF, "stable": StableCF}
BACKENDS = sorted(CF_CLASSES)


# -- raw-point ground truth ---------------------------------------------------


def brute_force_distance(a: np.ndarray, b: np.ndarray, metric: Metric) -> float:
    """D0-D4 evaluated literally from the Section 3 definitions."""
    ca, cb = a.mean(axis=0), b.mean(axis=0)
    if metric is Metric.D0_EUCLIDEAN:
        return float(np.linalg.norm(ca - cb))
    if metric is Metric.D1_MANHATTAN:
        return float(np.abs(ca - cb).sum())
    if metric is Metric.D2_AVG_INTERCLUSTER:
        diff = a[:, None, :] - b[None, :, :]
        sq = (diff**2).sum(axis=2)
        return math.sqrt(sq.mean())
    if metric is Metric.D3_AVG_INTRACLUSTER:
        merged = np.concatenate([a, b])
        n = merged.shape[0]
        diff = merged[:, None, :] - merged[None, :, :]
        sq = (diff**2).sum(axis=2)
        return math.sqrt(sq.sum() / (n * (n - 1)))
    if metric is Metric.D4_VARIANCE_INCREASE:

        def ssd(x):
            return float(((x - x.mean(axis=0)) ** 2).sum())

        merged = np.concatenate([a, b])
        return math.sqrt(max(ssd(merged) - ssd(a) - ssd(b), 0.0))
    raise AssertionError(metric)


class TestBruteForceCrossCheck:
    """CF-derived distances equal the raw-point definitions, both classes."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("metric", ALL_METRICS)
    @pytest.mark.parametrize("trial", range(5))
    def test_distance_matches_raw_points(self, backend, metric, trial, rng):
        cls = CF_CLASSES[backend]
        d = int(rng.integers(1, 5))
        a = rng.normal(rng.normal(0, 3), 1.0, size=(int(rng.integers(2, 9)), d))
        b = rng.normal(rng.normal(0, 3), 1.0, size=(int(rng.integers(2, 9)), d))
        want = brute_force_distance(a, b, metric)
        got = distance(cls.from_points(a), cls.from_points(b), metric)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_radius_diameter_match_raw_points(self, backend, rng):
        cls = CF_CLASSES[backend]
        pts = rng.normal(2.0, 1.5, size=(40, 3))
        cf = cls.from_points(pts)
        centroid = pts.mean(axis=0)
        want_r = math.sqrt(float(((pts - centroid) ** 2).sum()) / len(pts))
        diff = pts[:, None, :] - pts[None, :, :]
        sq = (diff**2).sum(axis=2)
        want_d = math.sqrt(sq.sum() / (len(pts) * (len(pts) - 1)))
        assert cf.radius == pytest.approx(want_r, rel=1e-9)
        assert cf.diameter == pytest.approx(want_d, rel=1e-9)
        np.testing.assert_allclose(cf.centroid, centroid, rtol=1e-12)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_merged_kernels_agree_with_merge_then_read(self, backend, rng):
        """The tree's merged radius/diameter kernels on converted CFs ==
        merge+read in each class's own algebra."""
        cls = CF_CLASSES[backend]
        probe = cls.from_points(rng.normal(1.0, 1.0, size=(7, 2)))
        targets = [
            cls.from_points(rng.normal(c, 1.0, size=(int(rng.integers(2, 6)), 2)))
            for c in (0.0, 3.0, -2.0, 8.0)
        ]
        stable = [as_stable(cf) for cf in targets]
        ns = np.array([cf.n for cf in stable], dtype=np.float64)
        vec = np.stack([cf.mean for cf in stable])
        sq = np.array([cf.ssd for cf in stable])
        got_d = stable_merged_diameter(as_stable(probe), ns, vec, sq)
        got_r = stable_merged_radius(as_stable(probe), ns, vec, sq)
        for i, cf in enumerate(targets):
            merged = probe.merge(cf)
            assert got_d[i] == pytest.approx(merged.diameter, rel=1e-9, abs=1e-12)
            assert got_r[i] == pytest.approx(merged.radius, rel=1e-9, abs=1e-12)


# -- StableCF algebra ---------------------------------------------------------


class TestStableCFAlgebra:
    def test_from_point(self):
        cf = StableCF.from_point([1.0, -2.0])
        assert cf.n == 1
        np.testing.assert_array_equal(cf.mean, [1.0, -2.0])
        assert cf.ssd == 0.0
        assert cf.radius == 0.0
        assert cf.diameter == 0.0

    def test_welford_matches_two_pass(self, rng):
        pts = rng.normal(5.0, 2.0, size=(60, 3))
        batch = StableCF.from_points(pts)
        acc = StableCF.empty(3)
        for row in pts:
            acc.add_point(row)
        assert acc.allclose(batch, rtol=1e-9, atol=1e-9)

    def test_merge_matches_from_points(self, rng):
        a_pts = rng.normal(0.0, 1.0, size=(10, 2))
        b_pts = rng.normal(6.0, 2.0, size=(17, 2))
        merged = StableCF.from_points(a_pts).merge(StableCF.from_points(b_pts))
        want = StableCF.from_points(np.concatenate([a_pts, b_pts]))
        assert merged.allclose(want, rtol=1e-9, atol=1e-9)

    def test_merge_inplace_and_operators(self, rng):
        a = StableCF.from_points(rng.normal(0, 1, size=(5, 2)))
        b = StableCF.from_points(rng.normal(3, 1, size=(8, 2)))
        via_add = a + b
        acc = a.copy()
        acc += b
        assert acc.allclose(via_add)
        assert a.n == 5  # operands untouched

    def test_merge_with_empty_is_identity(self):
        cf = StableCF.from_points([[1.0, 2.0], [3.0, 4.0]])
        out = cf.merge(StableCF.empty(2))
        assert out.allclose(cf)
        out2 = StableCF.empty(2).merge(cf)
        assert out2.allclose(cf)

    def test_subtract_inverts_merge(self, rng):
        a = StableCF.from_points(rng.normal(0, 1, size=(12, 2)))
        b = StableCF.from_points(rng.normal(5, 1, size=(7, 2)))
        merged = a.merge(b)
        rest = merged.subtract(b)
        assert rest.n == a.n
        np.testing.assert_allclose(rest.mean, a.mean, rtol=1e-9, atol=1e-9)
        assert rest.ssd == pytest.approx(a.ssd, rel=1e-6, abs=1e-9)

    def test_subtract_all_gives_empty(self):
        cf = StableCF.from_points([[1.0, 1.0], [2.0, 2.0]])
        rest = cf.subtract(cf)
        assert rest.n == 0

    def test_subtract_too_many_raises(self):
        small = StableCF.from_point([0.0])
        big = StableCF.from_points([[0.0], [1.0]])
        with pytest.raises(ValueError, match="cannot subtract"):
            small.subtract(big)

    def test_negative_ssd_rejected_residue_clamped(self):
        with pytest.raises(ValueError, match="SSD"):
            StableCF(2, np.zeros(2), -1.0)
        cf = StableCF(2, np.zeros(2), -1e-12)  # round-off residue
        assert cf.ssd == 0.0

    def test_duplicate_points_keep_exact_zero_ssd(self):
        """Exact duplicates must stay mergeable at T=0: delta is exactly
        zero, so SSD never picks up a residue."""
        point = np.array([3.14159, -2.71828]) + 1e8
        acc = StableCF.from_point(point)
        for _ in range(1000):
            acc.add_point(point)
        assert acc.ssd == 0.0
        assert acc.diameter == 0.0


class TestBackendConversion:
    def test_round_trip_classic_stable_classic(self, rng):
        pts = rng.normal(3.0, 1.0, size=(20, 2))
        classic = CF.from_points(pts)
        stable = classic.to_stable()
        back = CF(stable.n, stable.ls, stable.ss)
        assert back.n == classic.n
        np.testing.assert_allclose(back.ls, classic.ls, rtol=1e-12)
        assert back.ss == pytest.approx(classic.ss, rel=1e-12)

    def test_stable_classic_exports(self, rng):
        pts = rng.normal(2.0, 1.0, size=(15, 3))
        stable = StableCF.from_points(pts)
        np.testing.assert_allclose(stable.ls, pts.sum(axis=0), rtol=1e-9)
        assert stable.ss == pytest.approx(float((pts**2).sum()), rel=1e-9)

    def test_as_stable(self):
        classic = CF.from_point([1.0, 2.0])
        stable = StableCF.from_point([1.0, 2.0])
        assert as_stable(stable) is stable
        converted = as_stable(classic)
        assert isinstance(converted, StableCF)
        assert converted.allclose(stable)

    def test_empty_conversion(self):
        assert CF.empty(3).to_stable().n == 0

    def test_mixed_backend_merge_raises(self):
        stable = StableCF.from_point([1.0])
        classic = CF.from_point([1.0])
        with pytest.raises(TypeError, match="to_stable"):
            stable.merge(classic)

    def test_allclose_refuses_reference_cf(self):
        points = [[0.0, 1.0], [2.0, 3.0]]
        with pytest.raises(TypeError, match="to_stable"):
            StableCF.from_points(points).allclose(CF.from_points(points))

    def test_allclose_false_across_dimensions(self):
        one_d = StableCF(2.0, np.zeros(1), 1.0)
        assert not StableCF(2.0, np.zeros(2), 1.0).allclose(one_d)
        assert not StableCF(2.0, np.zeros(3), 1.0).allclose(one_d)
        assert StableCF(2.0, np.zeros(2), 1.0).allclose(
            StableCF(2.0, np.zeros(2), 1.0)
        )

    def test_distance_accepts_mixed_pair(self):
        a = CF.from_points([[0.0, 0.0], [1.0, 0.0]])
        b = StableCF.from_points([[5.0, 0.0], [6.0, 0.0]])
        got = distance(a, b, Metric.D0_EUCLIDEAN)
        assert got == pytest.approx(5.0)


# -- the stored representation through node / tree / pipeline ----------------


class TestStableNode:
    def test_entries_coerced_and_summarised(self, small_layout_2d, rng):
        node = CFNode(small_layout_2d, is_leaf=True)
        clouds = [rng.normal(c, 1.0, size=(9, 2)) for c in (0.0, 5.0, -4.0)]
        for cloud in clouds:
            node.append_entry(CF.from_points(cloud))  # classic in, coerced
        assert all(isinstance(cf, StableCF) for cf in node.iter_entry_cfs())
        summary = node.summary_cf()
        want = StableCF.from_points(np.concatenate(clouds))
        assert summary.n == want.n
        np.testing.assert_allclose(summary.mean, want.mean, rtol=1e-9)
        assert summary.ssd == pytest.approx(want.ssd, rel=1e-9)

    def test_add_to_entry_chan_update(self, small_layout_2d, rng):
        node = CFNode(small_layout_2d, is_leaf=True)
        a = rng.normal(0.0, 1.0, size=(6, 2))
        b = rng.normal(2.0, 1.0, size=(11, 2))
        node.append_entry(StableCF.from_points(a))
        node.add_to_entry(0, StableCF.from_points(b))
        want = StableCF.from_points(np.concatenate([a, b]))
        assert node.entry_cf(0).allclose(want, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_entry_distances_match_scalar(self, small_layout_2d, metric, rng):
        node = CFNode(small_layout_2d, is_leaf=True)
        for c in (0.0, 4.0, -3.0):
            node.append_entry(StableCF.from_points(rng.normal(c, 1.0, size=(5, 2))))
        probe = StableCF.from_points(rng.normal(1.0, 1.0, size=(4, 2)))
        got = node.entry_distances(probe, metric)
        for i in range(node.size):
            want = distance(probe, node.entry_cf(i), metric)
            assert got[i] == pytest.approx(want, rel=1e-9, abs=1e-12)


class TestStableTree:
    @pytest.mark.parametrize("backend", ["stable"])  # keeps the case ids
    def test_tree_conserves_points(self, small_layout_2d, backend, rng):
        pts = rng.normal(0.0, 5.0, size=(400, 2))
        tree = CFTree(small_layout_2d, threshold=1.0)
        tree.insert_points(pts)
        tree.check_invariants()
        assert tree.points == 400
        total = tree.summary_cf()
        np.testing.assert_allclose(total.centroid, pts.mean(axis=0), rtol=1e-9)

    def test_stable_tree_duplicates_collapse_at_zero_threshold(self):
        layout = PageLayout(page_size=256, dimensions=2)
        tree = CFTree(layout, threshold=0.0)
        point = np.array([1.5, -0.5]) + 1e8
        for _ in range(5000):
            tree.insert_point(point)
        entries = tree.leaf_entries()
        assert len(entries) == 1
        assert entries[0].n == 5000

    def test_insert_classic_cf_into_stable_tree(self, small_layout_2d, rng):
        tree = CFTree(small_layout_2d, threshold=1.0)
        cf = CF.from_points(rng.normal(0, 1, size=(10, 2)))
        tree.insert_cf(cf)
        entries = tree.leaf_entries()
        assert len(entries) == 1
        assert isinstance(entries[0], StableCF)
        assert entries[0].n == 10

    def test_merge_trees_stable(self, small_layout_2d, rng):
        from repro.core.merge import merge_trees

        a = CFTree(small_layout_2d, threshold=1.0)
        b = CFTree(small_layout_2d, threshold=1.0)
        a.insert_points(rng.normal(0, 1, size=(30, 2)))
        b.insert_points(rng.normal(8, 1, size=(25, 2)))
        merged = merge_trees([a, b])
        assert all(isinstance(cf, StableCF) for cf in merged.leaf_entries())
        assert merged.points == 55


class TestStablePipeline:
    @pytest.mark.parametrize("backend", ["stable"])  # keeps the case ids
    def test_full_pipeline_both_backends(self, backend, blob_points):
        from repro.core.birch import Birch
        from repro.core.config import BirchConfig

        config = BirchConfig(n_clusters=3)
        result = Birch(config).fit(blob_points)
        assert result.n_clusters == 3
        xs = np.sort(result.centroids[:, 0])
        np.testing.assert_allclose(xs, [0.0, 5.0, 10.0], atol=1.0)

    def test_agglomerative_cf_stable_entries(self, rng):
        from repro.core.global_clustering import agglomerative_cf

        entries = [
            StableCF.from_points(rng.normal(c, 0.5, size=(10, 2)))
            for c in (0.0, 0.5, 10.0, 10.5)
        ]
        clustering = agglomerative_cf(entries, n_clusters=2)
        assert clustering.n_clusters == 2
        assert all(isinstance(cf, StableCF) for cf in clustering.clusters)
        clustering.check_conservation(entries)
        xs = np.sort(clustering.centroids[:, 0])
        np.testing.assert_allclose(xs, [0.25, 10.25], atol=0.5)

    def test_refine_stable_backend(self, blob_points):
        from repro.core.refinement import refine

        seeds = np.array([[0.0, 0.0], [10.0, 0.0], [5.0, 9.0]])
        result = refine(blob_points, seeds, passes=2)
        assert all(isinstance(cf, StableCF) for cf in result.clusters)
        assert sum(cf.n for cf in result.clusters) == len(blob_points)


class TestStableSerialization:
    def test_cfs_round_trip_stable(self, tmp_path, rng):
        from repro.core.serialization import load_cfs, save_cfs

        cfs = [
            StableCF.from_points(rng.normal(c, 1.0, size=(8, 2)))
            for c in (0.0, 5.0)
        ]
        path = tmp_path / "stable.npz"
        save_cfs(path, cfs)
        loaded = load_cfs(path)
        assert all(isinstance(cf, StableCF) for cf in loaded)
        for got, want in zip(loaded, cfs):
            assert got.allclose(want)

    def test_stable_archives_store_mean_ssd(self, tmp_path):
        from repro.core.container import read
        from repro.core.serialization import save_cfs

        path = tmp_path / "stable.npz"
        save_cfs(path, [StableCF.from_point([1.0, 2.0])])
        assert set(read(path, "cfs").arrays) == {"ns", "means", "ssds"}

    def test_reference_cfs_are_stored_as_mean_ssd(self, tmp_path):
        from repro.core.container import read
        from repro.core.serialization import load_cfs, save_cfs

        path = tmp_path / "mixed.npz"
        save_cfs(path, [CF.from_point([1.0]), StableCF.from_point([3.0])])
        assert set(read(path, "cfs").arrays) == {"ns", "means", "ssds"}
        assert [float(cf.mean[0]) for cf in load_cfs(path)] == [1.0, 3.0]

    def test_tree_round_trip_stable(self, tmp_path, small_layout_2d, rng):
        from repro.core.serialization import load_tree, save_tree

        tree = CFTree(small_layout_2d, threshold=1.0)
        tree.insert_points(rng.normal(0.0, 4.0, size=(150, 2)))
        path = tmp_path / "tree.npz"
        save_tree(path, tree)
        loaded = load_tree(path)
        assert loaded.points == tree.points
        got = loaded.summary_cf()
        want = tree.summary_cf()
        np.testing.assert_allclose(got.mean, want.mean, rtol=1e-9)
        assert got.ssd == pytest.approx(want.ssd, rel=1e-9)
