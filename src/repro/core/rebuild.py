"""CF-tree rebuilding (Section 5.1 / Figure 3 and the Reducibility Theorem).

When the tree outgrows memory, Phase 1 rebuilds it with a larger
threshold ``T_{i+1} > T_i`` by reinserting the *leaf entries* of the old
tree — never the raw data — into a fresh tree.  The Reducibility
Theorem guarantees the new tree is no larger and that rebuilding needs
at most ``h`` (tree height) extra pages of memory.

The paper realises this bound with the OldCurrentPath / NewClosestPath
walk that frees each old path as soon as its entries have moved.  We
keep the same accounting guarantee with a simpler progressive sweep:

* old leaves are visited in chain order (which *is* the path order
  ``(i_1, i_2, ..., i_{h-1})`` of Section 5.1.1, since the chain mirrors
  the in-order traversal);
* each leaf's page is freed *before* its entries are reinserted, so the
  simulated memory in flight never holds both copies of a leaf;
* interior pages — at most ``~1/B`` of the tree — are freed at the end,
  and the budget's ``transient_pages`` allowance is set to the old
  height for the duration, mirroring the theorem's ``h`` extra pages.

Each old leaf's entries go back in through one
:meth:`~repro.core.tree.CFTree.bulk_insert` call, which builds exactly
the tree a per-entry :meth:`~repro.core.tree.CFTree.insert_cf` loop
would (an entry is a CF row like any other).  Entries can be diverted
to an outlier sink instead of reinserted; this is how the
outlier-handling option hooks into rebuilds (Section 5.1.4).
"""

from __future__ import annotations

import math
import time
from typing import Callable, Optional

import numpy as np

from repro.core.features import StableCF, row_cf
from repro.core.node import CFNode
from repro.core.tree import CFTree

__all__ = ["rebuild_tree"]


def rebuild_tree(
    old: CFTree,
    new_threshold: float,
    outlier_sink: Optional[Callable[[StableCF], bool]] = None,
    outlier_predicate: Optional[Callable[[np.ndarray, float], np.ndarray]] = None,
) -> CFTree:
    """Rebuild ``old`` into a new tree with ``new_threshold``.

    Parameters
    ----------
    old:
        The tree to rebuild.  It is consumed: its pages are released and
        it must not be used afterwards.
    new_threshold:
        ``T_{i+1}``; must be at least the old threshold for the
        Reducibility Theorem to apply.
    outlier_sink:
        Called with each leaf entry judged a potential outlier; returns
        True if the sink accepted it (e.g. disk had room).  A rejected
        entry is reinserted into the new tree instead.
    outlier_predicate:
        ``predicate(ns, mean_entry_points) -> mask`` deciding which of an
        old leaf's entries, given their point counts, are potential
        outliers ("far fewer data points than the average" — Section
        5.1.4).  Ignored if ``outlier_sink`` is None.

    Returns
    -------
    CFTree
        The rebuilt tree, sharing the old tree's layout, metric, budget
        and I/O ledger.
    """
    if not math.isfinite(new_threshold):
        # A runaway threshold schedule (e.g. repeated aggressive
        # coarsening overflowing to inf/nan) must fail loudly here, not
        # silently build a tree that absorbs everything into one entry.
        raise ValueError(
            f"rebuild threshold must be finite, got {new_threshold}"
        )
    if new_threshold < old.threshold:
        raise ValueError(
            f"rebuild threshold {new_threshold} is below current {old.threshold}; "
            "the Reducibility Theorem requires T_i+1 >= T_i"
        )

    budget = old.budget
    rec = old.recorder
    started = time.perf_counter() if rec.enabled else 0.0
    old_stats = old.tree_stats()
    old_height = old_stats.height
    saved_transient = None
    if budget is not None:
        saved_transient = budget.transient_pages
        # The theorem's allowance: rebuilding needs at most h extra pages.
        budget.transient_pages = max(saved_transient, old_height + 1)

    mean_entry_points = _mean_leaf_entry_points(old)

    new = CFTree(
        layout=old.layout,
        threshold=new_threshold,
        metric=old.metric,
        threshold_kind=old.threshold_kind,
        budget=budget,
        stats=old.stats,
        merging_refinement=old.merging_refinement,
    )

    # Collect the chain up front (cheap: one pointer per leaf page); the
    # chain order is the paper's path order.  Merging refinement can
    # reorder children within nodes, so descending by first child is NOT
    # a reliable way to find the chain head.  For each interior node we
    # also track how many of its leaves remain, so its page is released
    # as soon as its last leaf has been swept — this mirrors the paper's
    # "nodes in OldCurrentPath are freed" step and is what keeps the
    # in-flight footprint within the old size plus h pages.
    ancestors, remaining = _leaf_ancestry(old)
    n_diverted = 0
    divert = outlier_sink is not None and outlier_predicate is not None
    for leaf in list(old.leaves()):
        size = leaf.size
        ns, vecs, sqs = leaf._ns[:size], leaf._vec[:size], leaf._sq[:size]
        chain = ancestors.get(id(leaf), [])
        old._free_node(leaf)  # release this page before reinserting
        for interior in chain:
            remaining[id(interior)] -= 1
            if remaining[id(interior)] == 0:
                if old.budget is not None:
                    old.budget.release(1)
                old._node_count -= 1
        keep = np.ones(size, dtype=bool)
        if divert:
            # Only the flagged entries become CF objects for the sink.
            flagged = outlier_predicate(ns, mean_entry_points).nonzero()[0]
            for i in flagged.tolist():
                if outlier_sink(row_cf(ns[i], vecs[i], sqs[i])):
                    keep[i] = False
                    n_diverted += 1
        # One old leaf's kept entries per call, in chain order: the same
        # rows a per-entry insert_cf loop would reinsert, in the same
        # order, so the h-page bound above still holds.
        new.bulk_insert(vecs[keep], ns[keep], sqs[keep])

    # The recorder joins once the reinsertions are done: the bulk.*
    # counters account for stream rows, not for a rebuild's entries.
    new.recorder = rec
    if budget is not None and saved_transient is not None:
        budget.transient_pages = saved_transient
    if old.stats is not None:
        old.stats.record_rebuild()
    if rec.enabled:
        new_stats = new.tree_stats()
        rec.event(
            "rebuild",
            old_threshold=old.threshold,
            new_threshold=new_threshold,
            nodes_before=old_stats.node_count,
            nodes_after=new_stats.node_count,
            entries_before=old_stats.leaf_entry_count,
            entries_after=new_stats.leaf_entry_count,
            entries_diverted=n_diverted,
            seconds=time.perf_counter() - started,
        )
        rec.gauge("tree.threshold", new_threshold)
        rec.gauge("tree.nodes", new_stats.node_count)
    return new


def _mean_leaf_entry_points(tree: CFTree) -> float:
    """Average N over the tree's leaf entries (0 if the tree is empty)."""
    total = 0
    count = 0
    for leaf in tree.leaves():
        total += int(leaf.ns.sum())
        count += leaf.size
    return total / count if count else 0.0


def _leaf_ancestry(
    tree: CFTree,
) -> tuple[dict[int, list[CFNode]], dict[int, int]]:
    """Map each leaf to its interior ancestors, with leaf counts.

    Returns ``(ancestors, remaining)`` where ``ancestors[id(leaf)]`` is
    the root-to-parent chain above that leaf and ``remaining[id(node)]``
    is the number of leaves still alive under each interior node.
    """
    ancestors: dict[int, list[CFNode]] = {}
    remaining: dict[int, int] = {}

    def visit(node: CFNode, chain: list[CFNode]) -> None:
        if node.is_leaf:
            ancestors[id(node)] = list(chain)
            for interior in chain:
                remaining[id(interior)] = remaining.get(id(interior), 0) + 1
            return
        assert node.children is not None
        chain.append(node)
        for child in node.children:
            visit(child, chain)
        chain.pop()

    visit(tree.root, [])
    return ancestors, remaining
