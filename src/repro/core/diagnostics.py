"""CF-tree introspection and diagnostics.

Operating a memory-bounded tree in production needs visibility into
*why* it is the size it is: per-level fan-out, leaf occupancy, entry
size distribution, threshold headroom.  This module computes those
reports from a live tree and renders a compact ASCII outline — the
debugging companion to :meth:`CFTree.check_invariants`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.node import CFNode
from repro.core.tree import CFTree, ThresholdKind

__all__ = ["TreeDiagnostics", "diagnose", "render_outline"]


@dataclass
class TreeDiagnostics:
    """Aggregate structural statistics of a CF-tree.

    Attributes
    ----------
    height:
        Levels from root to leaves, inclusive.
    nodes_per_level:
        Node counts from the root (index 0) down to the leaf level.
    mean_fanout:
        Average children per nonleaf node.
    leaf_occupancy:
        Mean fraction of leaf capacity in use (space utilisation, the
        quantity merging refinement exists to improve).
    entry_points:
        Per-leaf-entry point counts (distribution of subcluster sizes).
    entry_diameters:
        Per-leaf-entry diameters (only entries with >= 2 points).
    threshold:
        The tree's current ``T``.
    threshold_headroom:
        ``1 - max(entry statistic) / T`` (0 means some entry sits right
        at the threshold; ``None`` when T == 0 or no multi-point entry).
    """

    height: int
    nodes_per_level: list[int]
    mean_fanout: float
    leaf_occupancy: float
    entry_points: np.ndarray = field(repr=False)
    entry_diameters: np.ndarray = field(repr=False)
    threshold: float = 0.0
    threshold_headroom: float | None = None

    @property
    def total_nodes(self) -> int:
        """Total node (page) count."""
        return sum(self.nodes_per_level)

    @property
    def leaf_entry_count(self) -> int:
        """Total subcluster entries."""
        return int(self.entry_points.shape[0])

    @property
    def median_entry_points(self) -> float:
        """Median subcluster size."""
        if self.entry_points.size == 0:
            return 0.0
        return float(np.median(self.entry_points))

    def summary_lines(self) -> list[str]:
        """Human-readable one-line-per-fact report."""
        lines = [
            f"height {self.height}, nodes per level {self.nodes_per_level}",
            f"mean fanout {self.mean_fanout:.2f}, "
            f"leaf occupancy {self.leaf_occupancy:.1%}",
            f"{self.leaf_entry_count} leaf entries, "
            f"median {self.median_entry_points:.0f} points each",
            f"threshold T = {self.threshold:.4g}",
        ]
        if self.threshold_headroom is not None:
            lines.append(f"threshold headroom {self.threshold_headroom:.1%}")
        return lines


def diagnose(tree: CFTree) -> TreeDiagnostics:
    """Compute :class:`TreeDiagnostics` for a live tree.

    Handles the degenerate shapes gracefully: an empty tree (a leaf
    root with no entries) and a single-node tree both produce a valid
    report.  A structurally broken tree — a nonleaf level whose nodes
    have no children — raises :class:`ValueError` instead of crashing
    on an index error, since such a tree violates the CF-tree
    invariants and its statistics would be meaningless.
    """
    levels: list[list[CFNode]] = [[tree.root]]
    while not levels[-1][0].is_leaf:
        next_level: list[CFNode] = []
        for node in levels[-1]:
            next_level.extend(node.children or ())
        if not next_level:
            raise ValueError(
                f"malformed CF-tree: nonleaf level {len(levels) - 1} has "
                f"{len(levels[-1])} node(s) but no children"
            )
        levels.append(next_level)

    nonleaf_sizes = [
        node.size for level in levels[:-1] for node in level
    ]
    mean_fanout = float(np.mean(nonleaf_sizes)) if nonleaf_sizes else 0.0

    leaves = levels[-1]
    occupancies = [leaf.size / leaf.capacity for leaf in leaves if leaf.capacity]
    leaf_occupancy = float(np.mean(occupancies)) if occupancies else 0.0

    entry_points: list[int] = []
    entry_diameters: list[float] = []
    for leaf in leaves:
        for cf in leaf.iter_entry_cfs():
            entry_points.append(cf.n)
            if cf.n >= 2:
                entry_diameters.append(
                    cf.diameter
                    if tree.threshold_kind is ThresholdKind.DIAMETER
                    else cf.radius
                )

    headroom: float | None = None
    if tree.threshold > 0 and entry_diameters:
        headroom = 1.0 - max(entry_diameters) / tree.threshold

    return TreeDiagnostics(
        height=len(levels),
        nodes_per_level=[len(level) for level in levels],
        mean_fanout=mean_fanout,
        leaf_occupancy=leaf_occupancy,
        entry_points=np.array(entry_points, dtype=np.int64),
        entry_diameters=np.array(entry_diameters, dtype=np.float64),
        threshold=tree.threshold,
        threshold_headroom=headroom,
    )


def render_outline(tree: CFTree, max_depth: int = 3, max_children: int = 4) -> str:
    """ASCII outline of the top of the tree.

    Each line shows one node: its kind, entry count and summarised
    point total; children beyond ``max_children`` are elided.
    Non-positive ``max_depth``/``max_children`` are clamped to 1 so a
    caller-supplied limit can never produce an empty outline.
    """
    max_depth = max(1, max_depth)
    max_children = max(1, max_children)
    lines: list[str] = []

    def visit(node: CFNode, depth: int) -> None:
        kind = "leaf" if node.is_leaf else "node"
        summary = node.summary_cf()
        lines.append(
            f"{'  ' * depth}{kind}[{node.size}/{node.capacity}] "
            f"n={summary.n}"
        )
        if node.is_leaf or depth + 1 >= max_depth:
            if not node.is_leaf:
                lines.append(f"{'  ' * (depth + 1)}...")
            return
        assert node.children is not None
        for child in node.children[:max_children]:
            visit(child, depth + 1)
        if len(node.children) > max_children:
            lines.append(
                f"{'  ' * (depth + 1)}... {len(node.children) - max_children} more"
            )

    visit(tree.root, 0)
    return "\n".join(lines)
