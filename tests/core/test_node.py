"""Tests for CFNode entry storage and searching."""

import numpy as np
import pytest

from repro.core.distances import Metric
from repro.core.features import CF, StableCF
from repro.core.node import CFNode
from repro.pagestore.page import PageLayout


@pytest.fixture
def leaf(layout_2d: PageLayout) -> CFNode:
    return CFNode(layout_2d, is_leaf=True)


@pytest.fixture
def nonleaf(layout_2d: PageLayout) -> CFNode:
    return CFNode(layout_2d, is_leaf=False)


def cf_at(x: float, y: float, n: int = 1) -> StableCF:
    pts = np.tile([x, y], (n, 1))
    return StableCF.from_points(pts)


class TestCapacity:
    def test_capacity_from_layout(self, layout_2d, leaf, nonleaf):
        assert leaf.capacity == layout_2d.leaf_capacity
        assert nonleaf.capacity == layout_2d.branching_factor

    def test_is_full(self, leaf):
        for i in range(leaf.capacity):
            leaf.append_entry(cf_at(float(i), 0.0))
        assert leaf.is_full
        with pytest.raises(ValueError, match="full"):
            leaf.append_entry(cf_at(99.0, 0.0))


class TestEntryMutation:
    def test_append_and_read_back(self, leaf):
        cf = cf_at(1.0, 2.0, n=3)
        idx = leaf.append_entry(cf)
        assert leaf.size == 1
        assert leaf.entry_cf(idx).allclose(cf)

    def test_leaf_rejects_child(self, leaf, layout_2d):
        child = CFNode(layout_2d, is_leaf=True)
        with pytest.raises(ValueError):
            leaf.append_entry(cf_at(0.0, 0.0), child)

    def test_nonleaf_requires_child(self, nonleaf):
        with pytest.raises(ValueError):
            nonleaf.append_entry(cf_at(0.0, 0.0))

    def test_add_to_entry_is_cf_addition(self, leaf):
        leaf.append_entry(cf_at(1.0, 1.0, n=2))
        leaf.add_to_entry(0, cf_at(3.0, 3.0, n=2))
        expected = cf_at(1.0, 1.0, n=2).merge(cf_at(3.0, 3.0, n=2))
        assert leaf.entry_cf(0).allclose(expected)

    def test_set_entry_overwrites(self, leaf):
        leaf.append_entry(cf_at(1.0, 1.0))
        replacement = cf_at(5.0, 5.0, n=4)
        leaf.set_entry(0, replacement)
        assert leaf.entry_cf(0).allclose(replacement)

    def test_remove_entry_compacts(self, leaf):
        for i in range(4):
            leaf.append_entry(cf_at(float(i), 0.0))
        leaf.remove_entry(1)
        assert leaf.size == 3
        xs = sorted(float(leaf.entry_cf(i).mean[0]) for i in range(3))
        assert xs == [0.0, 2.0, 3.0]

    def test_remove_entry_keeps_children_aligned(self, nonleaf, layout_2d):
        children = [CFNode(layout_2d, is_leaf=True) for _ in range(3)]
        for i, child in enumerate(children):
            nonleaf.append_entry(cf_at(float(i), 0.0), child)
        nonleaf.remove_entry(0)
        assert nonleaf.size == 2
        assert len(nonleaf.children) == 2
        # Last child swapped into slot 0.
        assert nonleaf.children[0] is children[2]
        assert float(nonleaf.entry_cf(0).mean[0]) == 2.0

    def test_clear(self, leaf):
        leaf.append_entry(cf_at(1.0, 1.0))
        leaf.clear()
        assert leaf.size == 0
        assert leaf.summary_cf().n == 0

    def test_index_out_of_range(self, leaf):
        leaf.append_entry(cf_at(0.0, 0.0))
        with pytest.raises(IndexError):
            leaf.entry_cf(1)
        with pytest.raises(IndexError):
            leaf.remove_entry(-1)


class TestSummary:
    def test_summary_is_sum_of_entries(self, leaf, rng):
        cfs = [StableCF.from_points(rng.normal(size=(3, 2))) for _ in range(5)]
        for cf in cfs:
            leaf.append_entry(cf)
        total = cfs[0].copy()
        for cf in cfs[1:]:
            total.merge_inplace(cf)
        assert leaf.summary_cf().allclose(total, rtol=1e-9, atol=1e-9)

    def test_views_reflect_live_entries_only(self, leaf):
        leaf.append_entry(cf_at(1.0, 2.0))
        leaf.append_entry(cf_at(3.0, 4.0))
        assert leaf.ns.shape == (2,)
        assert leaf.means.shape == (2, 2)
        assert leaf.ssds.shape == (2,)


class TestSearch:
    def test_closest_entry(self, leaf):
        leaf.append_entry(cf_at(0.0, 0.0))
        leaf.append_entry(cf_at(10.0, 0.0))
        leaf.append_entry(cf_at(5.0, 5.0))
        probe = CF.from_point(np.array([9.0, 1.0]))
        idx, dist = leaf.closest_entry(probe, Metric.D0_EUCLIDEAN)
        assert idx == 1
        assert dist == pytest.approx(np.hypot(1.0, 1.0))

    def test_closest_entry_on_empty_node_rejected(self, leaf):
        with pytest.raises(ValueError):
            leaf.closest_entry(cf_at(0.0, 0.0), Metric.D0_EUCLIDEAN)

    def test_pairwise_distances_symmetric_zero_diagonal(self, leaf, rng):
        for _ in range(4):
            leaf.append_entry(CF.from_points(rng.normal(size=(2, 2))))
        mat = leaf.pairwise_entry_distances(Metric.D0_EUCLIDEAN)
        assert mat.shape == (4, 4)
        assert np.allclose(mat, mat.T, atol=1e-9)
        assert np.allclose(np.diag(mat), 0.0)


class TestPairwiseMatchesPerEntryLoop:
    """``pairwise_entry_distances`` is one CF-batch kernel call over the
    node; row ``i`` must equal ``entry_distances(entry_cf(i))`` bit for
    bit, or the merging refinement's closest pair and the threshold
    heuristics' merge sizes would drift from a per-entry evaluation."""

    @staticmethod
    def _node(dimensions: int, fractional: bool) -> CFNode:
        rng = np.random.default_rng(100 + dimensions)
        layout = PageLayout(page_size=4096, dimensions=dimensions)
        node = CFNode(layout, is_leaf=True)
        for _ in range(min(node.capacity, 12)):
            size = int(rng.integers(1, 6))
            offset = rng.normal(size=dimensions) * 50.0
            cf = StableCF.from_points(
                rng.normal(size=(size, dimensions)) * 3.0 + offset
            )
            if fractional:
                # Decayed entries carry fractional mass.
                cf = cf.scaled(float(rng.uniform(0.2, 0.9)))
            node.append_entry(cf)
        # Two identical entries exercise exact ties and zero distances.
        node.append_entry(node.entry_cf(0))
        return node

    @pytest.mark.parametrize("metric", list(Metric))
    @pytest.mark.parametrize("dimensions", [1, 2, 3, 8])
    @pytest.mark.parametrize(
        "backend, fractional",
        [("stable", False), ("stable", True)],
    )
    def test_rows_equal_entry_distances_bitwise(
        self, backend, fractional, dimensions, metric
    ):
        node = self._node(dimensions, fractional)
        k = node.size
        loop = np.zeros((k, k))
        for i in range(k):
            loop[i] = node.entry_distances(node.entry_cf(i), metric)
            loop[i, i] = 0.0
        got = node.pairwise_entry_distances(metric)
        assert got.shape == (k, k)
        assert got.tobytes() == loop.tobytes()


class TestConsistency:
    def test_consistency_passes_for_valid_node(self, leaf):
        leaf.append_entry(cf_at(1.0, 1.0))
        leaf.check_consistency()

    def test_consistency_rejects_child_mismatch(self, nonleaf, layout_2d):
        child = CFNode(layout_2d, is_leaf=True)
        nonleaf.append_entry(cf_at(0.0, 0.0), child)
        nonleaf.children.append(CFNode(layout_2d, is_leaf=True))  # corrupt
        with pytest.raises(AssertionError):
            nonleaf.check_consistency()
