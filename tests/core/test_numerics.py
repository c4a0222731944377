"""Numerical-stability tests across the CF algebra and tree.

In the paper's ``(N, LS, SS)`` algebra (the reference ``CF``) every
radius/diameter/D2-D4 value is computed by cancellation against SS;
these tests pin the behaviour at the regimes where that matters: large
coordinate offsets, massive duplicate accumulation, and very small
scales.  The ``(n, mean, SSD)`` representation the tree stores is
exercised over the same regimes and must reproduce the origin-centered
statistics to ~1e-6 relative error even where the paper's triple has
lost every significant digit.
"""

import math

import numpy as np
import pytest

from repro.core.distances import Metric, distance
from repro.core.features import CF, StableCF
from repro.core.node import CFNode
from repro.core.tree import CFTree, ThresholdKind, _merged_stat, _within_threshold
from repro.pagestore.page import PageLayout
from tests.core.test_insertion_oracle import cf_rows, ulp_rows

pytestmark = pytest.mark.numerics

EPS = float(np.finfo(np.float64).eps)

ALL_METRICS = list(Metric)


class TestLargeOffsets:
    @pytest.mark.parametrize("offset", [1e4, 1e6, 1e8])
    def test_radius_reasonable_at_offset(self, offset, rng):
        pts = rng.normal(offset, 1.0, size=(1000, 2))
        cf = CF.from_points(pts)
        # True radius ~ sqrt(2); cancellation error grows with offset^2,
        # so tolerance loosens with the offset.
        error_scale = math.sqrt(64 * np.finfo(float).eps) * offset
        assert cf.radius == pytest.approx(
            math.sqrt(2.0), abs=max(error_scale, 0.05)
        )
        assert cf.radius >= 0.0

    @pytest.mark.parametrize("offset", [1e4, 1e6])
    def test_d2_between_offset_clusters(self, offset, rng):
        a = rng.normal(offset, 1.0, size=(100, 2))
        b = rng.normal(offset + 10.0, 1.0, size=(100, 2))
        got = distance(CF.from_points(a), CF.from_points(b), Metric.D2_AVG_INTERCLUSTER)
        # Expected: sqrt(||delta||^2 + 2*d*sigma^2)-ish; just check sane.
        assert 5.0 < got < 30.0

    def test_tree_at_offset_conserves(self, rng):
        pts = rng.normal(1e7, 1.0, size=(300, 2))
        layout = PageLayout(page_size=256, dimensions=2)
        tree = CFTree(layout, threshold=1.0)
        tree.insert_points(pts)
        assert tree.points == 300
        tree.check_invariants()


class TestDuplicateAccumulation:
    def test_duplicates_keep_merging_at_zero_threshold(self):
        """10,000 copies of one point collapse into one leaf entry."""
        layout = PageLayout(page_size=256, dimensions=2)
        tree = CFTree(layout, threshold=0.0)
        point = np.array([3.14159, -2.71828])
        for _ in range(10_000):
            tree.insert_point(point)
        entries = tree.leaf_entries()
        assert len(entries) == 1
        assert entries[0].n == 10_000

    def test_weighted_mega_cluster_statistics(self):
        cf = CF(10**9, np.array([10.0**9, 0.0]), 1e9)
        assert np.allclose(cf.centroid, [1.0, 0.0])
        assert cf.radius >= 0.0


class TestSmallScales:
    def test_micro_scale_clusters(self, rng):
        pts = np.concatenate(
            [
                rng.normal(0.0, 1e-9, size=(50, 2)),
                rng.normal(1e-6, 1e-9, size=(50, 2)),
            ]
        )
        from repro.core.birch import Birch
        from repro.core.config import BirchConfig

        result = Birch(BirchConfig(n_clusters=2, phase4_passes=0)).fit(pts)
        assert result.n_clusters == 2
        centroids = sorted(float(c[0]) for c in result.centroids)
        assert centroids[0] == pytest.approx(0.0, abs=1e-7)
        assert centroids[1] == pytest.approx(1e-6, abs=1e-7)

    def test_subnormal_safe_diameter(self):
        cf = CF.from_points(np.array([[0.0, 0.0], [5e-324, 0.0]]))
        assert cf.diameter >= 0.0
        assert math.isfinite(cf.diameter)


class TestStableBackendAtOffset:
    """The stable backend must be offset-invariant to ~1e-6 relative error.

    Strategy: draw a fixed point cloud at the origin, then repeat every
    computation on ``points + offset``.  Radii/diameters/distances are
    translation-invariant quantities, so the origin-centered values are
    the ground truth; the test demands the stable backend reproduce them
    through offsets up to 1e8 (the ISSUE acceptance bound).
    """

    @pytest.mark.parametrize("offset", [1e6, 1e7, 1e8])
    def test_radius_diameter_match_origin_run(self, offset, rng):
        pts = rng.normal(0.0, 1.0, size=(500, 3))
        reference = StableCF.from_points(pts)
        shifted = StableCF.from_points(pts + offset)
        assert shifted.radius == pytest.approx(reference.radius, rel=1e-6)
        assert shifted.diameter == pytest.approx(reference.diameter, rel=1e-6)

    @pytest.mark.parametrize("offset", [1e6, 1e7, 1e8])
    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_all_metrics_match_origin_run(self, offset, metric, rng):
        a = rng.normal(0.0, 1.0, size=(120, 3))
        b = rng.normal(4.0, 1.5, size=(80, 3))
        reference = distance(
            StableCF.from_points(a), StableCF.from_points(b), metric
        )
        shifted = distance(
            StableCF.from_points(a + offset),
            StableCF.from_points(b + offset),
            metric,
        )
        assert shifted == pytest.approx(reference, rel=1e-6)

    @pytest.mark.parametrize("offset", [1e6, 1e7, 1e8])
    def test_incremental_build_matches_origin_run(self, offset, rng):
        """Welford accumulation, not just the two-pass batch path."""
        pts = rng.normal(0.0, 1.0, size=(300, 2))
        reference = StableCF.from_points(pts)
        acc = StableCF.from_point(pts[0] + offset)
        for row in pts[1:]:
            acc.add_point(row + offset)
        assert acc.radius == pytest.approx(reference.radius, rel=1e-6)
        assert acc.diameter == pytest.approx(reference.diameter, rel=1e-6)

    def test_classic_backend_breaks_where_stable_holds(self, rng):
        """Documents the failure mode the stable backend fixes.

        At offset 1e8 the classic R^2 cancellation ``SS/N - ||LS/N||^2``
        subtracts two ~1e16 quantities to recover a ~1 result — beyond
        float64's 15-16 significant digits, so essentially no correct
        digits survive.  The stable value stays within 1e-6.
        """
        pts = rng.normal(0.0, 1.0, size=(500, 2))
        true_radius = StableCF.from_points(pts).radius

        classic = CF.from_points(pts + 1e8)
        stable = StableCF.from_points(pts + 1e8)

        assert stable.radius == pytest.approx(true_radius, rel=1e-6)
        classic_rel_error = abs(classic.radius - true_radius) / true_radius
        assert classic_rel_error > 1e-3  # catastrophic, not a rounding blip

    @pytest.mark.parametrize("offset", [1e6, 1e8])
    def test_stable_tree_matches_origin_tree(self, offset, rng):
        """Whole-tree invariance: same data, same insertion order, the
        shifted stable tree reproduces the origin tree's leaf-entry
        radii entry-for-entry."""
        pts = rng.normal(0.0, 1.0, size=(400, 2))
        layout = PageLayout(page_size=256, dimensions=2)

        def build(data):
            tree = CFTree(layout, threshold=1.0)
            tree.insert_points(data)
            tree.check_invariants()
            return tree.leaf_entries()

        origin_entries = build(pts)
        shifted_entries = build(pts + offset)
        assert len(shifted_entries) == len(origin_entries)
        for got, want in zip(shifted_entries, origin_entries):
            assert got.n == want.n
            assert got.radius == pytest.approx(want.radius, rel=1e-6, abs=1e-9)
            np.testing.assert_allclose(got.mean - offset, want.mean, atol=1e-6)

    def test_default_pipeline_recovers_offset_clusters(self, rng):
        """End-to-end: the pipeline stores (n, mean, SSD), so two
        unit-variance blobs 10 apart are separated even at 1e8."""
        from repro.core.birch import Birch
        from repro.core.config import BirchConfig

        pts = np.concatenate(
            [
                rng.normal(1e8, 0.5, size=(100, 2)),
                rng.normal(1e8 + 10.0, 0.5, size=(100, 2)),
            ]
        )
        config = BirchConfig(n_clusters=2, phase4_passes=0)
        result = Birch(config).fit(pts)
        assert result.n_clusters == 2
        xs = sorted(float(c[0]) for c in result.centroids)
        assert xs[0] == pytest.approx(1e8, abs=0.5)
        assert xs[1] == pytest.approx(1e8 + 10.0, abs=0.5)


class TestMixedMagnitudes:
    def test_wide_dynamic_range_dataset(self, rng):
        """Clusters at scale 1 and scale 1e6 in one dataset."""
        pts = np.concatenate(
            [
                rng.normal(0.0, 0.5, size=(100, 2)),
                rng.normal(1e6, 0.5, size=(100, 2)),
            ]
        )
        from repro.core.birch import Birch
        from repro.core.config import BirchConfig

        result = Birch(
            BirchConfig(n_clusters=2, phase4_passes=0, total_points_hint=200)
        ).fit(pts)
        assert result.n_clusters == 2
        xs = sorted(float(c[0]) for c in result.centroids)
        assert xs[0] == pytest.approx(0.0, abs=1.0)
        assert xs[1] == pytest.approx(1e6, rel=1e-5)


ROW_DRAWS = {"mixed": cf_rows, "ulp": ulp_rows}


def float_step_tree(dimensions: int, kind: ThresholdKind) -> CFTree:
    return CFTree(PageLayout(page_size=1024, dimensions=dimensions), threshold_kind=kind)


def seeded_leaf(layout: PageLayout, ns, vecs, sqs, k: int) -> CFNode:
    node = CFNode(layout, is_leaf=True)
    for t in range(k):
        node.append_row(ns[t].item(), vecs[t], sqs[t].item())
    return node


class TestFloatRowStep:
    """For d <= 2, ``CFTree._absorb`` and ``CFTree._fits_threshold`` run
    on Python floats.  They must equal the numpy reference bit for bit:
    ``CFNode.add_row`` for the fold, and ``_merged_stat`` plus
    ``_within_threshold`` for the test.  The rows are unit, integer and
    fractional counts with and without spread (``cf_rows``), and repeats
    one ulp apart at an offset of 1e4 (``ulp_rows``), where only the
    slack for rounded means decides the threshold test.
    """

    @pytest.mark.parametrize("draw", sorted(ROW_DRAWS))
    @pytest.mark.parametrize("dimensions", [1, 2])
    def test_absorb_equals_add_row_bitwise(self, dimensions, draw):
        ns, vecs, sqs = ROW_DRAWS[draw](dimensions, n=600, seed=11)
        tree = float_step_tree(dimensions, ThresholdKind.DIAMETER)
        k = 8
        fast = seeded_leaf(tree.layout, ns, vecs, sqs, k)
        ref = seeded_leaf(tree.layout, ns, vecs, sqs, k)
        for t in range(k, ns.shape[0]):
            i = t % k  # each entry folds about 75 rows in turn
            n, vec, sq = ns[t].item(), vecs[t], sqs[t].item()
            tree._absorb(fast, i, n, vec, sq)
            ref.add_row(i, n, vec, sq)
            for name in ("_ns", "_vec", "_sq"):
                got, want = getattr(fast, name), getattr(ref, name)
                assert got.tobytes() == want.tobytes(), (t, name)

    @pytest.mark.parametrize("kind", list(ThresholdKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("draw", sorted(ROW_DRAWS))
    @pytest.mark.parametrize("dimensions", [1, 2])
    def test_fits_threshold_equals_merged_stat(self, dimensions, draw, kind):
        ns, vecs, sqs = ROW_DRAWS[draw](dimensions, n=400, seed=12)
        tree = float_step_tree(dimensions, kind)
        radius = kind is ThresholdKind.RADIUS
        k = 16
        # Entries that have folded rows carry fractional means and SSD.
        leaf = seeded_leaf(tree.layout, ns, vecs, sqs, k)
        for t in range(k, 2 * k):
            leaf.add_row(t % k, ns[t].item(), vecs[t], sqs[t].item())
        outcomes = set()
        for t in range(2 * k, ns.shape[0]):
            n, vec, sq = ns[t].item(), vecs[t], sqs[t].item()
            i = t % k
            mean = leaf._vec[i]
            value, n_merged = _merged_stat(
                leaf._ns[i].item(), mean, leaf._sq[i].item(), n, vec, sq, radius
            )
            mean_sq = float(np.einsum("j,j->", mean, mean))
            # Thresholds at the edge of the slack, one ulp either side.
            edge = math.sqrt(max(value * value * (1.0 - 64.0 * EPS), 0.0))
            for threshold in (
                0.0,
                value,
                np.nextafter(value, 0.0),
                edge,
                np.nextafter(edge, 0.0),
                np.nextafter(edge, np.inf),
            ):
                tree.threshold = float(threshold)
                want = _within_threshold(value, n_merged, mean_sq, tree.threshold**2)
                assert tree._fits_threshold(leaf, i, n, vec, sq) is want, (t, threshold)
                outcomes.add(want)
        assert outcomes == {True, False}
