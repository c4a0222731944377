"""Module-level worker entry points (picklable under any start method).

Both functions speak the same *state* dialect: a plain dict of
picklable arrays describing one CF-tree —

``structure``
    :meth:`~repro.core.tree.CFTree.export_structure` arrays (exact
    topology, entry floats and leaf-chain order);
``threshold`` / ``points``
    the tree's absorption threshold and summarised point count;
``outliers``
    potential-outlier CFs spilled during the build (shard states only;
    the parent re-resolves them against the final merged tree, so merge
    states never carry them);
``io`` / ``telemetry``
    the worker's *own* additive counters
    (:meth:`~repro.pagestore.iostats.IOStats.state_dict` /
    :meth:`~repro.observe.recorder.Recorder.state_dict`), merged by the
    parent in deterministic dispatch order.

``build_shard`` produces a shard state from raw rows; ``merge_pair``
folds two states into one via :func:`~repro.core.merge.merge_tree_pair`.
Shipping structure arrays instead of CF object lists is what lets the
tournament reduction reconstruct each tree bit-for-bit in whichever
worker process the next round lands on.

``fit_member`` is the ensemble op (:mod:`repro.ensemble`): one complete
single-process BIRCH fit over a perturbed view of the shared rows,
returning a compact *member state* — cluster centroids plus (for the
anchor member) the leaf-CF component arrays — instead of a tree.  The
perturbation (seeded shuffle, feature subset) is part of the payload,
so the task is a pure function and rides the same retry/respawn/serial
ladder as the shard ops.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.birch import Birch
from repro.core.config import BirchConfig
from repro.core.merge import merge_tree_pair
from repro.core.threshold import ThresholdPolicy
from repro.core.tree import CFTree
from repro.observe.recorder import Recorder
from repro.pagestore.iostats import IOStats
from repro.pagestore.memory import MemoryBudget
from repro.pagestore.page import PageLayout
from repro.parallel.shm import open_shard

__all__ = [
    "OP_BUILD",
    "OP_MEMBER",
    "OP_MERGE",
    "build_shard",
    "fit_member",
    "merge_pair",
]

#: Dispatch ``op`` labels — the task-kind vocabulary shared by chaos
#: schedules (``ChaosInjector(ops=...)``), incident records and the
#: ``pool.dispatch`` telemetry span.
OP_BUILD = "build"
OP_MERGE = "merge"
OP_MEMBER = "member"


def build_shard(task: dict[str, object]) -> dict[str, object]:
    """Build one shard's CF-tree and return its state dict.

    ``task`` carries the worker :class:`~repro.core.config.BirchConfig`
    (checkpointing/validation stripped, budgets divided by the shard
    count) and a shard spec resolved through
    :func:`repro.parallel.shm.open_shard`.  Nothing about the build
    survives except the returned state — the tree commits copies of
    every row it absorbs, so the shared-memory view is released before
    returning.
    """
    config: BirchConfig = task["config"]  # type: ignore[assignment]
    rows, close = open_shard(task["shard"])  # type: ignore[arg-type]
    try:
        worker = Birch(config)
        worker._partial_fit_clean(rows, None)
        tree = worker._tree
        assert tree is not None, "non-empty shard left no tree"
        outliers: list[object] = []
        if worker._outlier_handler is not None:
            outliers = list(worker._outlier_handler.disk.peek())
        return {
            "structure": tree.export_structure(),
            "threshold": float(tree.threshold),
            "points": int(tree.points),
            "outliers": outliers,
            "io": worker.stats.state_dict(),
            "telemetry": worker._recorder.state_dict(),
        }
    finally:
        del rows
        close()


def fit_member(task: dict[str, object]) -> dict[str, object]:
    """Fit one forest member over a perturbed view of the shared rows.

    ``task`` carries the member's :class:`~repro.core.config.BirchConfig`
    (already jittered and stripped by the parent), a shard spec covering
    the *whole* batch, and the perturbation: ``shuffle_seed`` permutes
    the rows (the §4.1 order perturbation), ``features`` restricts the
    member to a sorted column subset.  The returned member state is
    compact — centroid/leaf arrays only, never a tree — because the
    forest consensus needs votes and anchors, not topology:

    ``centroids`` / ``threshold`` / ``rebuilds`` / ``leaf_entries``
        the member's final cluster centroids (in its own feature
        subspace) and fit accounting;
    ``entry_ns`` / ``entry_vec`` / ``entry_sq``
        leaf-CF ``(n, mean, SSD)`` component arrays, shipped only when
        the parent asked
        for them (``want_entries`` — the anchor member);
    ``telemetry``
        the member's own additive counters, merged by the parent in
        member order.
    """
    config: BirchConfig = task["config"]  # type: ignore[assignment]
    rows, close = open_shard(task["shard"])  # type: ignore[arg-type]
    try:
        data = np.asarray(rows, dtype=np.float64)
        shuffle_seed = task.get("shuffle_seed")
        if shuffle_seed is not None:
            order = np.random.default_rng(int(shuffle_seed)).permutation(
                data.shape[0]
            )
            data = data[order]
        features = task.get("features")
        if features is not None:
            idx = np.asarray(features, dtype=np.int64)
            data = data[:, idx]
        data = np.ascontiguousarray(data)
        member = Birch(config)
        try:
            result = member.fit(data)
            state: dict[str, object] = {
                "member": int(task.get("member", 0)),  # type: ignore[arg-type]
                "centroids": np.ascontiguousarray(
                    result.centroids, dtype=np.float64
                ),
                "threshold": float(result.final_threshold),
                "rebuilds": int(result.rebuilds),
                "leaf_entries": len(result.subclusters),
                "telemetry": member._recorder.state_dict(),
            }
            if task.get("want_entries"):
                entries = result.subclusters
                state["entry_ns"] = np.array(
                    [cf.n for cf in entries], dtype=np.float64
                )
                state["entry_vec"] = np.stack(
                    [cf.mean for cf in entries]
                ).astype(np.float64)
                state["entry_sq"] = np.array(
                    [cf.ssd for cf in entries], dtype=np.float64
                )
            return state
        finally:
            member.close()
    finally:
        del rows
        close()


def merge_pair(task: dict[str, object]) -> dict[str, object]:
    """Fold two tree states into one (a tournament-reduction round game).

    Both trees are reconstructed bit-for-bit from their structure
    arrays; the left one becomes the accumulator (under the *full*
    parent memory budget — intermediate merged trees must fit where the
    final tree will live) and the right one's leaf entries are folded
    in through :func:`~repro.core.merge.merge_tree_pair` (the batched
    insertion path raw points take), rebuilding coarser whenever the
    budget trips.  The
    returned ``io``/``telemetry`` counters cover only *this fold* — the
    inputs' counters were already banked by the parent.
    """
    config: BirchConfig = task["config"]  # type: ignore[assignment]
    dimensions = int(task["dimensions"])  # type: ignore[arg-type]
    left: dict[str, object] = task["left"]  # type: ignore[assignment]
    right: dict[str, object] = task["right"]  # type: ignore[assignment]

    layout = PageLayout(page_size=config.page_size, dimensions=dimensions)
    stats = IOStats()
    recorder = Recorder(())  # counter-only: state_dict ships the sums
    budget = MemoryBudget(config.memory_bytes, layout)
    policy = ThresholdPolicy(
        expansion_factor=config.expansion_factor,
        total_points_hint=config.total_points_hint,
        mode=config.threshold_mode,
    )

    def restore(
        state: dict[str, object], budget: Optional[MemoryBudget]
    ) -> CFTree:
        return CFTree.from_structure(
            state["structure"],  # type: ignore[arg-type]
            layout=layout,
            threshold=float(state["threshold"]),  # type: ignore[arg-type]
            metric=config.metric,
            threshold_kind=config.threshold_kind,
            points=int(state["points"]),  # type: ignore[arg-type]
            budget=budget,
            stats=stats if budget is not None else None,
            merging_refinement=config.merging_refinement,
            recorder=recorder if budget is not None else None,
        )

    acc = restore(left, budget)
    donor = restore(right, None)
    merged = merge_tree_pair(acc, donor, policy=policy)
    return {
        "structure": merged.export_structure(),
        "threshold": float(merged.threshold),
        "points": int(merged.points),
        "outliers": [],
        "io": stats.state_dict(),
        "telemetry": recorder.state_dict(),
    }
