"""Tests for the CF-tree diagnostics module."""

import numpy as np
import pytest

from repro.core.diagnostics import diagnose, render_outline
from repro.core.node import CFNode
from repro.core.tree import CFTree
from repro.pagestore.page import PageLayout


@pytest.fixture
def big_tree(rng) -> CFTree:
    layout = PageLayout(page_size=256, dimensions=2)
    tree = CFTree(layout, threshold=0.5)
    for p in rng.normal(size=(600, 2)) * 20:
        tree.insert_point(p)
    return tree


@pytest.fixture
def tiny_tree() -> CFTree:
    layout = PageLayout(page_size=256, dimensions=2)
    tree = CFTree(layout, threshold=1.0)
    tree.insert_point(np.array([0.0, 0.0]))
    return tree


class TestDiagnose:
    def test_levels_consistent_with_tree_stats(self, big_tree):
        diag = diagnose(big_tree)
        stats = big_tree.tree_stats()
        assert diag.height == stats.height
        assert diag.total_nodes == stats.node_count
        assert diag.nodes_per_level[-1] == stats.leaf_count
        assert diag.leaf_entry_count == stats.leaf_entry_count

    def test_root_level_is_single_node(self, big_tree):
        diag = diagnose(big_tree)
        assert diag.nodes_per_level[0] == 1

    def test_fanout_within_capacity(self, big_tree):
        diag = diagnose(big_tree)
        assert 2 <= diag.mean_fanout <= big_tree.layout.branching_factor

    def test_occupancy_in_unit_range(self, big_tree):
        diag = diagnose(big_tree)
        assert 0.0 < diag.leaf_occupancy <= 1.0

    def test_entry_points_sum_to_inserted(self, big_tree):
        diag = diagnose(big_tree)
        assert int(diag.entry_points.sum()) == 600

    def test_headroom_bounds_entry_sizes(self, big_tree):
        diag = diagnose(big_tree)
        if diag.threshold_headroom is not None:
            # headroom = 1 - max/T, so max = (1 - headroom) * T <= T + slack
            assert diag.threshold_headroom <= 1.0

    def test_tiny_tree(self, tiny_tree):
        diag = diagnose(tiny_tree)
        assert diag.height == 1
        assert diag.total_nodes == 1
        assert diag.leaf_entry_count == 1
        assert diag.threshold_headroom is None  # no multi-point entries

    def test_summary_lines_render(self, big_tree):
        lines = diagnose(big_tree).summary_lines()
        assert any("height" in line for line in lines)
        assert any("occupancy" in line for line in lines)
        assert any("threshold" in line for line in lines)


class TestOutline:
    def test_outline_mentions_root(self, big_tree):
        outline = render_outline(big_tree)
        first = outline.split("\n")[0]
        assert "n=600" in first

    def test_outline_elides_depth(self, big_tree):
        outline = render_outline(big_tree, max_depth=1)
        assert "..." in outline or big_tree.height == 1

    def test_outline_elides_wide_nodes(self, big_tree):
        outline = render_outline(big_tree, max_children=1, max_depth=3)
        if big_tree.root.size > 1:
            assert "more" in outline

    def test_leaf_only_tree(self, tiny_tree):
        outline = render_outline(tiny_tree)
        assert outline.startswith("leaf[")


# The tree stores (n, mean, SSD); the parameter keeps the case ids.
@pytest.fixture(params=["stable"])
def empty_tree(request) -> CFTree:
    layout = PageLayout(page_size=256, dimensions=2)
    return CFTree(layout, threshold=1.0)


class TestDegenerateTrees:
    """diagnose()/render_outline on empty and single-node trees."""

    def test_diagnose_empty_tree(self, empty_tree):
        diag = diagnose(empty_tree)
        assert diag.height == 1
        assert diag.nodes_per_level == [1]
        assert diag.leaf_entry_count == 0
        assert diag.mean_fanout == 0.0
        assert diag.leaf_occupancy == 0.0
        assert diag.median_entry_points == 0.0
        assert diag.threshold_headroom is None

    def test_empty_tree_summary_and_outline_render(self, empty_tree):
        assert diagnose(empty_tree).summary_lines()
        outline = render_outline(empty_tree)
        assert outline.startswith("leaf[0/")
        assert "n=0" in outline

    def test_single_node_tree_both_backends(self, empty_tree):
        empty_tree.insert_point(np.array([1.0, 2.0]))
        diag = diagnose(empty_tree)
        assert diag.height == 1
        assert diag.leaf_entry_count == 1
        assert int(diag.entry_points.sum()) == 1
        assert render_outline(empty_tree).startswith("leaf[1/")

    def test_malformed_tree_raises_value_error(self):
        # A nonleaf root whose only child is a childless nonleaf node
        # violates the tree invariants; diagnose must say so instead of
        # dying on an index error.
        layout = PageLayout(page_size=256, dimensions=2)
        tree = CFTree(layout, threshold=1.0)
        broken = CFNode(layout, is_leaf=False)
        tree.root = CFNode(layout, is_leaf=False)
        tree.root.children = [broken]
        with pytest.raises(ValueError, match="malformed CF-tree"):
            diagnose(tree)

    def test_outline_clamps_nonpositive_limits(self, big_tree):
        outline = render_outline(big_tree, max_depth=0, max_children=-1)
        lines = outline.split("\n")
        assert lines[0].startswith("node[")  # root always shown
        assert len(lines) >= 2  # the depth-elision marker follows
