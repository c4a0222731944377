"""Merging CF-trees — the parallel/distributed Phase 1 pattern.

The paper's closing discussion points at "opportunities of parallelism".
CF additivity makes the data-parallel scheme trivial to state: shard
the input, build one CF-tree per shard independently (each within its
own memory budget), then fold the shards' *leaf entries* into a single
tree.  Because a leaf entry is an exact CF of its points, the fold
loses nothing beyond what the absorption threshold always loses — the
merged tree is a valid Phase 1 output for the union of the shards.

:func:`merge_tree_pair` is the unit of work: one donor tree's leaf
entries folded into one accumulator through the same batched insertion
path as raw points (:meth:`~repro.core.tree.CFTree.bulk_insert`),
growing the threshold with the standard policy whenever the merged tree
would exceed its memory budget.  :func:`merge_trees` keeps the historical
N-ary API as a sequential fold over pairs; the sharded build reduces
pairs in parallel rounds instead (see :mod:`repro.parallel.worker`).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.rebuild import rebuild_tree
from repro.core.threshold import ThresholdPolicy
from repro.core.tree import CFTree
from repro.observe.recorder import NULL_RECORDER

__all__ = ["merge_tree_pair", "merge_trees"]


def _check_compatible(first: CFTree, other: CFTree) -> None:
    if other.layout.dimensions != first.layout.dimensions:
        raise ValueError(
            f"dimension mismatch: {other.layout.dimensions} vs "
            f"{first.layout.dimensions}"
        )
    if other.metric is not first.metric:
        raise ValueError("metric mismatch between trees")
    if other.threshold_kind is not first.threshold_kind:
        raise ValueError("threshold-kind mismatch between trees")


def _donor_arrays(
    donor: CFTree,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The donor's leaf entries as struct-of-arrays, in chain order.

    Copies, so the fold never aliases the donor's pages (the donor is
    read-only to the merge and may be freed by the caller afterwards).
    """
    ns_parts: list[np.ndarray] = []
    vec_parts: list[np.ndarray] = []
    sq_parts: list[np.ndarray] = []
    for leaf in donor.leaves():
        size = leaf.size
        if size == 0:
            continue
        ns_parts.append(leaf._ns[:size].copy())
        vec_parts.append(leaf._vec[:size].copy())
        sq_parts.append(leaf._sq[:size].copy())
    d = donor.layout.dimensions
    if not ns_parts:
        return (
            np.empty(0, dtype=np.float64),
            np.empty((0, d), dtype=np.float64),
            np.empty(0, dtype=np.float64),
        )
    return (
        np.concatenate(ns_parts),
        np.concatenate(vec_parts),
        np.concatenate(sq_parts),
    )


def merge_tree_pair(
    acc: CFTree,
    donor: CFTree,
    policy: Optional[ThresholdPolicy] = None,
) -> CFTree:
    """Fold ``donor``'s leaf entries into ``acc``.

    ``acc`` is the accumulator (consumed and returned, possibly
    rebuilt coarser); ``donor`` is read but not freed.  Entries move in
    leaf-chain order through :meth:`~repro.core.tree.CFTree.bulk_insert`
    under Phase 1's budget rule, lifted to subclusters: while the tree
    is over its memory budget, rebuild at the policy's next threshold,
    but only after an entry that did not absorb into an existing leaf
    entry (it appended one, maybe splitting).  An entry that absorbs
    never changes the node count, so it never checks the budget, even
    when the accumulator starts the fold over budget.  The result is
    byte-identical to a per-entry fold that tries
    :meth:`~repro.core.tree.CFTree.try_absorb_cf` first and, when that
    fails, calls ``insert_cf`` and rebuilds while over budget.

    Returns a tree whose summary CF is the exact sum of both inputs'
    (CF additivity, Theorem 4.1) and whose threshold is at least the
    larger of the two inputs'.
    """
    _check_compatible(acc, donor)
    if policy is None:
        policy = ThresholdPolicy()

    # Level the playing field: the accumulator must be at least as
    # coarse as the donor, or donor entries could violate its
    # threshold invariant.
    merged = acc
    if donor.threshold > merged.threshold:
        merged = rebuild_tree(merged, donor.threshold)

    ns, vecs, sqs = _donor_arrays(donor)
    total = ns.shape[0]
    i = 0
    while i < total:
        # Donor entries are not stream rows: keep them out of the
        # accumulator's bulk.* counters.
        recorder, merged.recorder = merged.recorder, NULL_RECORDER
        i += merged.bulk_insert(vecs[i:], ns[i:], sqs[i:], stop_on_alloc=True)
        merged.recorder = recorder
        while merged.budget is not None and merged.budget.over_budget:
            new_threshold = policy.next_threshold(merged, merged.points)
            merged = rebuild_tree(merged, new_threshold)
    return merged


def merge_trees(
    trees: Sequence[CFTree],
    policy: Optional[ThresholdPolicy] = None,
) -> CFTree:
    """Fold several CF-trees into one (sequential pairwise fold).

    Parameters
    ----------
    trees:
        Trees built over disjoint data shards.  They must share
        dimensionality, metric and threshold kind.  The first tree is
        the accumulator (consumed and returned, possibly rebuilt); the
        others are read (their entries copied) but not freed — callers
        in a real parallel setting would drop them afterwards.
    policy:
        Threshold policy used when the merged tree outgrows the
        accumulator's memory budget; a default policy is created if
        omitted.

    Returns
    -------
    CFTree
        A tree summarising the union of all inputs, with threshold at
        least the maximum of the inputs' thresholds.
    """
    if not trees:
        raise ValueError("need at least one tree to merge")
    first = trees[0]
    for other in trees[1:]:
        _check_compatible(first, other)

    if policy is None:
        policy = ThresholdPolicy()

    merged = first
    for donor in trees[1:]:
        merged = merge_tree_pair(merged, donor, policy=policy)
    return merged
