"""Tests for tree rebuilding and the Reducibility Theorem properties."""

import numpy as np
import pytest

from repro.core.features import CF
from repro.core.rebuild import rebuild_tree
from repro.core.tree import CFTree
from repro.pagestore.iostats import IOStats
from repro.pagestore.memory import MemoryBudget
from repro.pagestore.page import PageLayout


def build_tree(
    points: np.ndarray,
    threshold: float = 0.0,
    page_size: int = 128,
    budget: MemoryBudget | None = None,
    stats: IOStats | None = None,
) -> CFTree:
    layout = PageLayout(page_size=page_size, dimensions=2)
    tree = CFTree(layout, threshold=threshold, budget=budget, stats=stats)
    for p in points:
        tree.insert_point(p)
    return tree


class TestReducibility:
    """Section 5.1.1: rebuilding with T' >= T must not grow the tree."""

    def test_leaf_entries_never_increase(self, rng):
        pts = rng.normal(size=(300, 2)) * 10
        tree = build_tree(pts, threshold=0.2)
        before = len(tree.leaf_entries())
        rebuilt = rebuild_tree(tree, 0.6)
        assert len(rebuilt.leaf_entries()) <= before

    def test_conservation_of_points(self, rng):
        pts = rng.normal(size=(250, 2)) * 10
        tree = build_tree(pts, threshold=0.1)
        direct = CF.from_points(pts)
        rebuilt = rebuild_tree(tree, 0.5)
        summary = rebuilt.summary_cf()
        assert summary.n == direct.n
        assert np.allclose(summary.ls, direct.ls, rtol=1e-8)
        assert summary.ss == pytest.approx(direct.ss, rel=1e-8)

    def test_same_threshold_rebuild_is_legal(self, rng):
        pts = rng.normal(size=(100, 2)) * 5
        tree = build_tree(pts, threshold=0.3)
        rebuilt = rebuild_tree(tree, 0.3)
        assert rebuilt.summary_cf().n == 100

    def test_smaller_threshold_rejected(self, rng):
        tree = build_tree(rng.normal(size=(50, 2)), threshold=0.5)
        with pytest.raises(ValueError, match="Reducibility"):
            rebuild_tree(tree, 0.4)

    def test_invariants_after_rebuild(self, rng):
        pts = rng.normal(size=(400, 2)) * 20
        tree = build_tree(pts, threshold=0.1)
        rebuilt = rebuild_tree(tree, 1.0)
        rebuilt.check_invariants()

    def test_repeated_rebuilds_shrink_monotonically(self, rng):
        pts = rng.normal(size=(500, 2)) * 10
        tree = build_tree(pts, threshold=0.05)
        sizes = [len(tree.leaf_entries())]
        threshold = 0.05
        for _ in range(4):
            threshold *= 3.0
            tree = rebuild_tree(tree, threshold)
            sizes.append(len(tree.leaf_entries()))
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] < sizes[0]


class TestMemoryAccounting:
    def test_old_pages_released(self, rng):
        layout = PageLayout(page_size=128, dimensions=2)
        budget = MemoryBudget(1024 * 1024, layout)
        tree = build_tree(
            rng.normal(size=(300, 2)) * 10, threshold=0.1, budget=budget
        )
        rebuilt = rebuild_tree(tree, 0.8)
        # Only the new tree's pages remain allocated.
        assert budget.pages_in_use == rebuilt.node_count

    def test_transient_pages_restored(self, rng):
        layout = PageLayout(page_size=128, dimensions=2)
        budget = MemoryBudget(1024 * 1024, layout, transient_pages=3)
        tree = build_tree(
            rng.normal(size=(100, 2)) * 10, threshold=0.1, budget=budget
        )
        rebuild_tree(tree, 0.5)
        assert budget.transient_pages == 3

    def test_peak_bounded_by_old_size_plus_height(self, rng):
        layout = PageLayout(page_size=128, dimensions=2)
        budget = MemoryBudget(1024 * 1024, layout)
        tree = build_tree(
            rng.normal(size=(400, 2)) * 20, threshold=0.05, budget=budget
        )
        old_pages = budget.pages_in_use
        old_height = tree.tree_stats().height
        budget._peak_pages = budget.pages_in_use  # reset peak to now
        rebuild_tree(tree, 0.4)
        # Reducibility: at most ~h extra pages in flight beyond the old
        # tree (a root path of the new tree plus split slack).
        assert budget.peak_pages <= old_pages + 2 * old_height + 4


class TestOutlierDiversion:
    def test_sink_receives_sparse_entries(self, rng):
        # 200 dense points and a handful of far-flung strays.
        dense = rng.normal(0, 0.5, size=(200, 2))
        strays = rng.uniform(50, 100, size=(5, 2))
        pts = np.concatenate([dense, strays])
        tree = build_tree(pts, threshold=0.5)

        spilled: list[CF] = []

        def sink(cf: CF) -> bool:
            spilled.append(cf)
            return True

        def predicate(ns: np.ndarray, mean_points: float) -> np.ndarray:
            return (ns < 0.25 * mean_points) & (mean_points > 1.0)

        rebuilt = rebuild_tree(tree, 2.0, outlier_sink=sink, outlier_predicate=predicate)
        total = rebuilt.summary_cf().n + sum(cf.n for cf in spilled)
        assert total == 205
        assert spilled  # the strays are far sparser than the dense blob

    def test_rejected_spills_are_reinserted(self, rng):
        pts = np.concatenate(
            [rng.normal(0, 0.5, size=(100, 2)), rng.uniform(50, 99, size=(4, 2))]
        )
        tree = build_tree(pts, threshold=0.5)
        rebuilt = rebuild_tree(
            tree,
            2.0,
            outlier_sink=lambda cf: False,  # disk always full
            outlier_predicate=lambda ns, mean: ns < 0.25 * mean,
        )
        assert rebuilt.summary_cf().n == 104


class TestStats:
    def test_rebuild_recorded(self, rng):
        stats = IOStats()
        tree = build_tree(rng.normal(size=(100, 2)) * 5, threshold=0.1, stats=stats)
        rebuild_tree(tree, 0.5)
        assert stats.tree_rebuilds == 1
