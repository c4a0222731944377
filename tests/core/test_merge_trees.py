"""Tests for CF-tree merging (the data-parallel Phase 1 pattern)."""

import numpy as np
import pytest

from repro.core.features import CF
from repro.core.merge import merge_trees
from repro.core.tree import CFTree, ThresholdKind
from repro.pagestore.memory import MemoryBudget
from repro.pagestore.page import PageLayout


def build(points, threshold=0.5, budget=None, **kwargs) -> CFTree:
    layout = PageLayout(page_size=256, dimensions=2)
    tree = CFTree(layout, threshold=threshold, budget=budget, **kwargs)
    tree.insert_points(points)
    return tree


class TestMerge:
    def test_merged_summary_is_union(self, rng):
        a_pts = rng.normal(0, 1, size=(150, 2))
        b_pts = rng.normal(10, 1, size=(150, 2))
        merged = merge_trees([build(a_pts), build(b_pts)])
        direct = CF.from_points(np.concatenate([a_pts, b_pts]))
        summary = merged.summary_cf()
        assert summary.n == 300
        assert np.allclose(summary.ls, direct.ls, rtol=1e-9)
        assert summary.ss == pytest.approx(direct.ss, rel=1e-9)

    def test_merged_tree_is_valid(self, rng):
        shards = [
            build(rng.normal(c, 1, size=(100, 2))) for c in (0.0, 5.0, 10.0)
        ]
        merged = merge_trees(shards)
        merged.check_invariants()

    def test_threshold_levels_up(self, rng):
        coarse = build(rng.normal(0, 1, size=(100, 2)), threshold=2.0)
        fine = build(rng.normal(5, 1, size=(100, 2)), threshold=0.2)
        merged = merge_trees([fine, coarse])
        assert merged.threshold >= 2.0
        merged.check_invariants()

    def test_single_tree_is_identity(self, rng):
        tree = build(rng.normal(size=(50, 2)))
        merged = merge_trees([tree])
        assert merged is tree

    def test_sharded_equals_sequential_clustering(self, rng):
        """Sharded build + merge finds the same clusters as one pass."""
        from repro.core.global_clustering import agglomerative_cf

        centers = [(0.0, 0.0), (20.0, 0.0), (0.0, 20.0)]
        points = np.concatenate(
            [rng.normal(c, 0.5, size=(100, 2)) for c in centers]
        )
        perm = rng.permutation(300)
        points = points[perm]

        shards = [build(points[i::3], threshold=0.5) for i in range(3)]
        merged = merge_trees(shards)
        clustering = agglomerative_cf(merged.leaf_entries(), n_clusters=3)
        for c in centers:
            nearest = np.linalg.norm(
                clustering.centroids - np.array(c), axis=1
            ).min()
            assert nearest < 0.5

    def test_memory_budget_triggers_rebuild_during_merge(self, rng):
        layout = PageLayout(page_size=256, dimensions=2)
        # Room for the small accumulator, but not for the donor's
        # entries at the fine threshold: the merge must rebuild coarser.
        budget = MemoryBudget(8 * 256, layout)
        acc = CFTree(layout, threshold=0.2, budget=budget)
        acc.insert_points(rng.normal(0, 2, size=(60, 2)))
        donor = build(rng.normal(10, 4, size=(500, 2)), threshold=0.2)
        merged = merge_trees([acc, donor])
        assert merged.summary_cf().n == 560
        assert merged.threshold > 0.2  # a rebuild coarsened the tree
        assert merged.budget is not None
        assert (
            merged.budget.pages_in_use
            <= merged.budget.capacity_pages + 33
        )


class TestValidation:
    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            merge_trees([])

    def test_dimension_mismatch_rejected(self, rng):
        a = build(rng.normal(size=(10, 2)))
        layout3 = PageLayout(page_size=256, dimensions=3)
        b = CFTree(layout3, threshold=0.5)
        b.insert_point(np.zeros(3))
        with pytest.raises(ValueError, match="dimension"):
            merge_trees([a, b])

    def test_threshold_kind_mismatch_rejected(self, rng):
        a = build(rng.normal(size=(10, 2)))
        b = build(
            rng.normal(size=(10, 2)), threshold_kind=ThresholdKind.RADIUS
        )
        with pytest.raises(ValueError, match="threshold-kind"):
            merge_trees([a, b])


class TestBulkCFMerge:
    """The batched fold behind :func:`merge_tree_pair`."""

    @pytest.mark.parametrize("backend", ["stable"])  # keeps the case ids
    @pytest.mark.parametrize(
        "kind",
        [ThresholdKind.DIAMETER, ThresholdKind.RADIUS],
        ids=["diameter", "radius"],
    )
    def test_pair_summary_exact_both_backends(self, rng, backend, kind):
        from repro.core.merge import merge_tree_pair

        a_pts = rng.normal(0, 1, size=(200, 2))
        b_pts = rng.normal(6, 1, size=(200, 2))
        acc = build(a_pts, threshold_kind=kind)
        donor = build(b_pts, threshold_kind=kind)
        merged = merge_tree_pair(acc, donor)
        merged.check_invariants()
        summary = merged.summary_cf()
        direct = CF.from_points(np.concatenate([a_pts, b_pts]))
        assert summary.n == 400
        assert np.allclose(summary.centroid, direct.centroid, rtol=1e-9)

    def test_pair_merge_is_deterministic(self, rng):
        from repro.core.merge import merge_tree_pair

        a_pts = rng.normal(0, 2, size=(300, 2))
        b_pts = rng.normal(4, 2, size=(300, 2))

        def run():
            merged = merge_tree_pair(build(a_pts), build(b_pts))
            s = merged.export_structure()
            return {k: v.tobytes() for k, v in s.items()}

        assert run() == run()

    @staticmethod
    def _leaf_rows(tree):
        ns = np.concatenate([leaf.ns.copy() for leaf in tree.leaves()])
        vecs = np.concatenate(
            [leaf._vec[: leaf.size].copy() for leaf in tree.leaves()]
        )
        sqs = np.concatenate(
            [leaf._sq[: leaf.size].copy() for leaf in tree.leaves()]
        )
        return ns, vecs, sqs

    def test_bulk_insert_cfs_matches_scalar_summary(self, rng):
        """A donor's leaf entries go in as one batch of CF rows."""
        donor = build(rng.normal(0, 3, size=(400, 2)))
        ns, vecs, sqs = self._leaf_rows(donor)
        tree = build(rng.normal(0, 3, size=(100, 2)))
        consumed = tree.bulk_insert(vecs, ns, sqs)
        assert consumed == ns.shape[0]
        tree.check_invariants()
        assert tree.summary_cf().n == 500

    def test_bulk_insert_cfs_stop_on_alloc_resumes(self, rng):
        """A batch of CF rows paused by splits resumes where it stopped."""
        donor = build(rng.normal(0, 5, size=(600, 2)), threshold=0.1)
        ns, vecs, sqs = self._leaf_rows(donor)
        tree = build(rng.normal(0, 5, size=(50, 2)), threshold=0.1)
        i = 0
        rounds = 0
        while i < ns.shape[0]:
            i += tree.bulk_insert(
                vecs[i:], ns[i:], sqs[i:], stop_on_alloc=True
            )
            rounds += 1
        assert rounds > 1  # splits actually paused the sweep
        tree.check_invariants()
        assert tree.summary_cf().n == 650

    @pytest.mark.parametrize("backend", ["stable"])  # keeps the case ids
    @pytest.mark.parametrize(
        "kind",
        [ThresholdKind.DIAMETER, ThresholdKind.RADIUS],
        ids=["diameter", "radius"],
    )
    def test_pair_merge_equals_sequential_insert_cf_fold(self, backend, kind):
        """The fold goes through bulk_insert, and builds exactly what a
        per-entry insert_cf loop with the same budget checks builds —
        rebuilds, thresholds, ledger and every byte of the tree."""
        from repro.core.merge import merge_tree_pair
        from repro.core.rebuild import rebuild_tree
        from repro.core.threshold import ThresholdPolicy
        from repro.pagestore.iostats import IOStats

        rng = np.random.default_rng(21)
        acc_pts = rng.normal(0, 2, size=(60, 2))
        donor_pts = np.concatenate(
            [rng.normal(c, 1.5, size=(250, 2)) for c in (4.0, 9.0)]
        )
        layout = PageLayout(page_size=256, dimensions=2)

        def trees():
            acc = CFTree(
                layout,
                threshold=0.1,
                budget=MemoryBudget(20 * 256, layout),
                stats=IOStats(),
                threshold_kind=kind,
            )
            acc.insert_points(acc_pts)
            donor = build(donor_pts, threshold=0.3, threshold_kind=kind)
            return acc, donor

        acc, donor = trees()
        merged = merge_tree_pair(acc, donor, policy=ThresholdPolicy())

        acc, donor = trees()
        policy = ThresholdPolicy()
        folded = rebuild_tree(acc, donor.threshold)
        assert not folded.budget.over_budget
        for cf in donor.leaf_entries():
            folded.insert_cf(cf)
            while folded.budget.over_budget:
                folded = rebuild_tree(
                    folded, policy.next_threshold(folded, folded.points)
                )

        assert folded.stats.tree_rebuilds >= 2  # the budget tripped
        assert merged.threshold == folded.threshold
        assert merged.points == folded.points == 560
        assert merged.stats.summary() == folded.stats.summary()
        a, b = merged.export_structure(), folded.export_structure()
        for key in a:
            assert a[key].tobytes() == b[key].tobytes(), key

    @pytest.mark.parametrize(
        "kind",
        [ThresholdKind.DIAMETER, ThresholdKind.RADIUS],
        ids=["diameter", "radius"],
    )
    def test_fold_entered_over_budget_follows_the_bulk_rule(self, kind):
        """An accumulator already over its budget: while over, the fold
        rebuilds only after an entry that did not absorb, exactly as a
        per-entry loop that tries try_absorb_cf first and rebuilds after
        each insert_cf that leaves the tree over budget."""
        from repro.core.merge import merge_tree_pair
        from repro.core.rebuild import rebuild_tree
        from repro.core.threshold import ThresholdPolicy
        from repro.pagestore.iostats import IOStats

        rng = np.random.default_rng(22)
        acc_pts = np.concatenate(
            [rng.normal(c, 1.0, size=(150, 2)) for c in (0.0, 6.0)]
        )
        # Repeats of the accumulator's points absorb; the far cluster
        # needs new entries.
        donor_pts = np.concatenate([acc_pts, rng.normal(12.0, 1.0, (200, 2))])
        layout = PageLayout(page_size=256, dimensions=2)

        def trees():
            acc = CFTree(
                layout,
                threshold=0.4,
                budget=MemoryBudget(64 * 256, layout),
                stats=IOStats(),
                threshold_kind=kind,
            )
            acc.insert_points(acc_pts)
            acc.budget.limit_bytes = (acc.node_count - 3) * 256
            assert acc.budget.over_budget
            donor = build(donor_pts, threshold=0.0, threshold_kind=kind)
            return acc, donor

        acc, donor = trees()
        merged = merge_tree_pair(acc, donor, policy=ThresholdPolicy())

        acc, donor = trees()
        policy = ThresholdPolicy()
        folded = acc
        absorbed_while_over = 0
        for cf in donor.leaf_entries():
            over = folded.budget.over_budget
            if folded.try_absorb_cf(cf):
                absorbed_while_over += over
                continue
            folded.insert_cf(cf)
            while folded.budget.over_budget:
                folded = rebuild_tree(
                    folded, policy.next_threshold(folded, folded.points)
                )

        assert absorbed_while_over > 0  # the rule decided something
        assert folded.stats.tree_rebuilds >= 1
        assert merged.threshold == folded.threshold
        assert merged.points == folded.points == 800
        assert merged.stats.summary() == folded.stats.summary()
        a, b = merged.export_structure(), folded.export_structure()
        for key in a:
            assert a[key].tobytes() == b[key].tobytes(), key
