"""Equivalence suite for the vectorised Phase-1 fast path.

``CFTree.bulk_insert`` promises a tree **byte-identical** to the
per-point ``insert_points`` loop — same structure export, same leaf
chain, same I/O ledger — on both threshold kinds and any chunking of
the input.  These tests are the enforcement of
that promise, plus the sharded ``fit(n_jobs=N)`` parity checks (same
cluster count, deterministic, conservation ledger balanced — sharded
builds change insertion order, so they claim quality parity rather
than byte identity) and the ``insert_points`` ergonomics.
"""

import numpy as np
import pytest

import repro.core.tree as tree_module
from repro.core.birch import Birch
from repro.core.config import BirchConfig
from repro.core.distances import (
    Metric,
    stable_cf_batch_distances,
    stable_distances_core,
    stable_distances_to_set,
    stable_gathered_cf_distances,
    stable_merged_radius_core,
)
from repro.core.features import StableCF
from repro.core.tree import _ROW_DISTANCE, CFTree, ThresholdKind, _merged_stat
from repro.datagen.presets import ds1, ds1o
from repro.observe import ObserveConfig
from repro.observe.recorder import Recorder
from repro.pagestore.iostats import IOStats
from repro.pagestore.memory import MemoryBudget
from repro.pagestore.page import PageLayout

#: Every tree stores (n, mean, SSD); the parameter keeps the case ids.
BACKENDS = ("stable",)
KINDS = (ThresholdKind.DIAMETER, ThresholdKind.RADIUS)
CHUNKS = (1, 7, 4096)


def make_tree(
    *,
    dimensions: int = 2,
    threshold: float = 0.5,
    page_size: int = 128,
    threshold_kind: ThresholdKind = ThresholdKind.DIAMETER,
    recorder: Recorder | None = None,
) -> CFTree:
    layout = PageLayout(page_size=page_size, dimensions=dimensions)
    return CFTree(
        layout,
        threshold=threshold,
        threshold_kind=threshold_kind,
        stats=IOStats(),
        recorder=recorder,
    )


def assert_identical_trees(a: CFTree, b: CFTree) -> None:
    """Byte-for-byte equality: structure, entry floats, chain, ledger."""
    sa, sb = a.export_structure(), b.export_structure()
    assert sa.keys() == sb.keys()
    for key in sa:
        assert np.array_equal(sa[key], sb[key]), f"structure mismatch in {key}"
    assert a.points == b.points
    assert a.stats is not None and b.stats is not None
    assert a.stats.summary() == b.stats.summary()
    chain_a = [[cf.n for cf in leaf.iter_entry_cfs()] for leaf in a.leaves()]
    chain_b = [[cf.n for cf in leaf.iter_entry_cfs()] for leaf in b.leaves()]
    assert chain_a == chain_b


def clustered_points(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """A clustery stream (the regime bulk ingest is built for)."""
    centers = rng.uniform(-10.0, 10.0, size=(max(4, n // 50), d))
    idx = rng.integers(0, centers.shape[0], size=n)
    return centers[idx] + rng.normal(0.0, 0.4, size=(n, d))


class TestBulkByteIdentity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_bulk_equals_scalar_on_clustered_stream(self, backend, kind, chunk):
        rng = np.random.default_rng(hash((backend, kind.value, chunk)) % 2**32)
        points = clustered_points(rng, 600, 2)
        scalar = make_tree(threshold_kind=kind)
        bulk = make_tree(threshold_kind=kind)
        scalar.insert_points(points)
        for start in range(0, points.shape[0], chunk):
            took = 0
            block = points[start : start + chunk]
            while took < block.shape[0]:
                took += bulk.bulk_insert(block[took:])
        assert_identical_trees(scalar, bulk)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("trial", range(3))
    def test_bulk_equals_scalar_random_geometry(self, backend, trial):
        """Random d, threshold and page size (hence random B and L)."""
        rng = np.random.default_rng(1000 * trial + 1)
        d = int(rng.integers(1, 6))
        threshold = float(rng.uniform(0.05, 2.0))
        page_size = int(rng.choice([96, 160, 256, 512]))
        points = clustered_points(rng, 400, d)
        scalar = make_tree(
            dimensions=d,
            threshold=threshold,
            page_size=page_size,
        )
        bulk = make_tree(
            dimensions=d,
            threshold=threshold,
            page_size=page_size,
        )
        scalar.insert_points(points)
        consumed = 0
        while consumed < points.shape[0]:
            consumed += bulk.bulk_insert(points[consumed:])
        assert_identical_trees(scalar, bulk)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("d", (3, 8))
    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_bulk_equals_scalar_pinned_dimension(self, backend, kind, d, chunk):
        """d >= 3 leaves the pure-float replay loop: the einsum replay
        must match ``insert_points`` bit for bit."""
        rng = np.random.default_rng(7919 * d + 31 * chunk + 1)
        points = clustered_points(rng, 500, d)
        scalar = make_tree(
            dimensions=d, threshold=0.8, page_size=256, threshold_kind=kind,
        )
        bulk = make_tree(
            dimensions=d, threshold=0.8, page_size=256, threshold_kind=kind,
        )
        for start in range(0, points.shape[0], chunk):
            block = points[start : start + chunk]
            scalar.insert_points(block)
            took = 0
            while took < block.shape[0]:
                took += bulk.bulk_insert(block[took:])
        assert_identical_trees(scalar, bulk)

    @pytest.mark.parametrize(
        "d, kind, seed",
        [
            (1, ThresholdKind.DIAMETER, 4),
            (1, ThresholdKind.RADIUS, 4),
            (2, ThresholdKind.DIAMETER, 4),
            (2, ThresholdKind.RADIUS, 4),
            (3, ThresholdKind.DIAMETER, 5),
            (3, ThresholdKind.RADIUS, 4),
        ],
    )
    def test_bulk_equals_per_row_on_edge_shapes(self, d, kind, seed):
        """Fractional rows cycling over eight clusters into small pages
        (B = 3 or 4).  Each case reaches a cut inside a nonleaf visit
        that touched at least three children, and a leaf visit that
        touched every entry of its leaf; d = 1 runs the padded
        two-coordinate replay, d = 3 the einsum one."""
        rng = np.random.default_rng(seed)
        centers = rng.uniform(-10.0, 10.0, size=(8, d))
        points = centers[np.arange(600) % 8] + rng.normal(0.0, 0.6, size=(600, d))
        ns = rng.uniform(0.25, 3.0, 600)
        sqs = rng.uniform(0.0, 0.3, 600)
        rec = Recorder()
        per_row = make_tree(
            dimensions=d, threshold=0.6, page_size=160, threshold_kind=kind
        )
        bulk = make_tree(
            dimensions=d,
            threshold=0.6,
            page_size=160,
            threshold_kind=kind,
            recorder=rec,
        )
        for n, vec, sq in zip(ns, points, sqs):
            per_row.insert_cf(StableCF(float(n), vec.copy(), float(sq)))
        consumed = 0
        while consumed < points.shape[0]:
            consumed += bulk.bulk_insert(
                points[consumed:], ns[consumed:], sqs[consumed:]
            )
        assert_identical_trees(per_row, bulk)
        assert rec.counters["bulk.replayed_nonleaf_rows"] > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_routing_flip_resumes_on_bulk_path(self, backend):
        """Two leaf entries at x = 0 and x = 2; rows first pile into the
        left one just short of the bisector, then land just past it.
        Against static states the later rows route right, but the left
        entry has drifted toward them, so their argmin flips inside the
        window.  The flipped rows are repaired inside the one window:
        no window is cut, and none falls back to the scalar path."""
        seeds = np.array([[0.0, 0.0], [2.0, 0.0]])
        stream = np.array([[0.9, 0.0]] * 5 + [[1.05, 0.0]] * 10)
        scalar = make_tree(threshold=1.9)
        rec = Recorder()
        bulk = make_tree(threshold=1.9, recorder=rec)
        for tree in (scalar, bulk):
            tree.insert_points(seeds)
        assert bulk.root.size == 2
        scalar.insert_points(stream)
        assert bulk.bulk_insert(stream) == stream.shape[0]
        assert_identical_trees(scalar, bulk)
        assert rec.counters["bulk.windows"] == 1
        # Each row past the bisector was routed right and re-routed left.
        assert rec.counters.get("bulk.repairs", 0) == 10
        assert rec.counters.get("bulk.flips", 0) == 0
        assert rec.counters.get("bulk.fallback_rows", 0) == 0
        assert rec.counters["bulk.absorbed_rows"] == stream.shape[0]
        # Every row landed in the left entry, the flipped ones included.
        assert [cf.n for cf in bulk.leaf_entries()] == [16, 1]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stop_on_alloc_consumes_prefix_only(self, backend):
        rng = np.random.default_rng(7)
        points = clustered_points(rng, 300, 2)
        tree = make_tree(threshold=0.2)
        took = tree.bulk_insert(points, stop_on_alloc=True)
        assert 0 < took < points.shape[0]
        assert tree.points == took
        # It stopped right after the first insertion that allocated a
        # node (the root leaf split).
        reference = make_tree(threshold=0.2)
        reference.insert_points(points[: took - 1])
        assert reference.node_count == 1
        assert tree.node_count > 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_max_rows_cap(self, backend):
        rng = np.random.default_rng(8)
        points = clustered_points(rng, 200, 2)
        tree = make_tree()
        took = tree.bulk_insert(points, max_rows=57)
        assert took == 57
        assert tree.points == 57


def shuffled_repeat_stream(rng: np.random.Generator, d: int = 2) -> np.ndarray:
    """At T = 0 only exact repeats absorb.  The first 400 rows are half
    fresh points and half repeats, shuffled, so windows commit a row or
    two and the path chooser moves to ever longer scalar runs; the last
    1,200 rows repeat earlier ones only, so a probe window commits
    whole again and the bulk path takes over."""
    fresh = rng.uniform(-10.0, 10.0, size=(200, d))
    mixed = np.concatenate([fresh, fresh[rng.integers(0, 200, size=200)]])
    mixed = mixed[rng.permutation(400)]
    repeats = mixed[rng.integers(0, 400, size=1200)]
    return np.concatenate([mixed, repeats])


class TestPathChooser:
    """``bulk_insert`` picks speculative windows or scalar runs per
    window; both must build the per-point loop's tree."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_scalar_runs_match_insert_points(self, backend, kind, chunk):
        rng = np.random.default_rng(4099 * chunk + 1)
        points = shuffled_repeat_stream(rng)
        scalar = make_tree(threshold=0.0, threshold_kind=kind)
        rec = Recorder()
        bulk = make_tree(
            threshold=0.0, threshold_kind=kind, recorder=rec
        )
        for start in range(0, points.shape[0], chunk):
            block = points[start : start + chunk]
            scalar.insert_points(block)
            took = 0
            while took < block.shape[0]:
                took += bulk.bulk_insert(block[took:], stop_on_alloc=True)
        assert_identical_trees(scalar, bulk)
        c = rec.counters
        assert c.get("bulk.scalar_runs", 0) > 0
        assert c.get("bulk.full_windows", 0) > 0  # probes paid off again
        assert c["bulk.absorbed_rows"] + c["bulk.fallback_rows"] == points.shape[0]
        assert bulk.stats.splits > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_over_budget_caller_rechecks_at_each_new_entry(self, backend):
        """A rebuild that leaves the tree over budget: the caller must
        get control back after the first row that needs a new entry,
        even where the chooser would run scalar and nothing allocates."""
        layout = PageLayout(page_size=256, dimensions=2)
        rng = np.random.default_rng(3)
        base = clustered_points(rng, 120, 2)

        def build(budget=None):
            tree = CFTree(layout, threshold=0.5, budget=budget, stats=IOStats())
            tree.insert_points(base)
            return tree

        # A row that lands next to an entry of a leaf with room: it
        # needs a new entry but no new node.
        probe = build()
        for leaf in probe.leaves():
            if not leaf.is_full:
                new_entry = leaf.entry_cf(0).centroid + 0.6
                break
        nodes, entries = probe.node_count, len(probe.leaf_entries())
        probe.insert_points(new_entry)
        assert probe.node_count == nodes
        assert len(probe.leaf_entries()) == entries + 1

        budget = MemoryBudget(64 * 256, layout)
        tree = build(budget)
        budget.limit_bytes = (tree.node_count - 1) * 256
        assert budget.over_budget
        tree._committed_ema = 0.0  # windows have stopped paying
        stream = np.concatenate([base[:20], new_entry[None, :], base[20:40]])
        reference = build()
        reference.insert_points(stream[:21])
        assert tree.bulk_insert(stream, stop_on_alloc=True) == 21
        assert_identical_trees(reference, tree)


def ordered_cluster_rows(rng: np.random.Generator, d: int, n: int = 360):
    """Fractional rows of twelve clusters, one cluster after another, so
    new clusters start inside windows: appends and re-routed rows
    cascade there."""
    centers = rng.uniform(-10.0, 10.0, size=(12, d))
    labels = np.repeat(np.arange(12), n // 12)
    points = centers[labels] + rng.normal(0.0, 0.5 / np.sqrt(d), size=(n, d))
    ns = rng.uniform(0.25, 3.0, n)
    sqs = rng.uniform(0.0, 0.3, n)
    return ns, points, sqs


def leaf_page(d: int) -> int:
    """A page of four or five leaf entries, so leaves fill up and a row
    that needs a new entry in a full leaf lands inside a window."""
    return 160 if d <= 3 else 48 * (d + 2)


def spy_windows(tree: CFTree) -> list[tuple[int, int, bool]]:
    """Log each window's (rows committed, rows offered, nonleaf flip)."""
    log: list[tuple[int, int, bool]] = []
    run = tree._bulk_run

    def logged(ns, vecs, sqs, start, w, *rest):
        out = run(ns, vecs, sqs, start, w, *rest)
        log.append((out[0], w, out[1]))
        return out

    tree._bulk_run = logged
    return log


class TestLeafRepairsAndAppends:
    """Windows re-route leaf flips and append new entries themselves;
    only a row that needs a new entry in a full leaf (a split) leaves a
    window.  Every case must still build the per-row ``insert_cf``
    loop's tree byte for byte, with windows forced on."""

    @pytest.mark.parametrize("metric", list(Metric), ids=lambda m: m.value)
    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
    @pytest.mark.parametrize("d", (1, 2, 3, 8))
    def test_ordered_clusters_match_per_row_insert_cf(
        self, d, kind, metric, monkeypatch
    ):
        monkeypatch.setattr(tree_module, "_CHOOSER_BREAK_EVEN", 0)
        rng = np.random.default_rng(17 * d + 3)
        ns, points, sqs = ordered_cluster_rows(rng, d)

        def make(recorder=None):
            tree = make_tree(
                dimensions=d,
                threshold=0.6,
                page_size=leaf_page(d),
                threshold_kind=kind,
                recorder=recorder,
            )
            tree.metric = metric
            return tree

        per_row = make()
        split_rows = 0
        for n, vec, sq in zip(ns, points, sqs):
            splits = per_row.stats.splits
            per_row.insert_cf(StableCF(float(n), vec.copy(), float(sq)))
            split_rows += per_row.stats.splits > splits
        repairs, mid_window_splits = 0, 0
        for chunk in CHUNKS:
            rec = Recorder()
            bulk = make(rec)
            log = spy_windows(bulk)
            for lo in range(0, points.shape[0], chunk):
                hi = min(lo + chunk, points.shape[0])
                took = lo
                while took < hi:
                    took += bulk.bulk_insert(
                        points[took:hi], ns[took:hi], sqs[took:hi]
                    )
            assert_identical_trees(per_row, bulk)
            c = rec.counters
            assert c["bulk.absorbed_rows"] + c["bulk.fallback_rows"] == len(ns)
            # Only the rows that split (and the first row, into the
            # empty tree) left the windows.
            assert c["bulk.fallback_rows"] == split_rows + 1
            assert c.get("bulk.appends", 0) > 0
            repairs += c.get("bulk.repairs", 0)
            # Windows that committed rows before a split cut them.
            mid_window_splits += sum(
                0 < got < w and not flip for got, w, flip in log
            )
        assert repairs > 0
        assert mid_window_splits > 0

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
    @pytest.mark.parametrize("d", (1, 2, 3, 8))
    def test_shuffled_stream_at_zero_threshold(self, d, kind, monkeypatch):
        """At T = 0 only exact repeats absorb: every other row is an
        append or a split."""
        monkeypatch.setattr(tree_module, "_CHOOSER_BREAK_EVEN", 0)
        points = shuffled_repeat_stream(np.random.default_rng(40 + d), d)[:900]
        scalar = make_tree(
            dimensions=d, threshold=0.0, page_size=leaf_page(d), threshold_kind=kind
        )
        split_rows = 0
        for point in points:
            splits = scalar.stats.splits
            scalar.insert_points(point)
            split_rows += scalar.stats.splits > splits
        for chunk in CHUNKS:
            rec = Recorder()
            bulk = make_tree(
                dimensions=d,
                threshold=0.0,
                page_size=leaf_page(d),
                threshold_kind=kind,
                recorder=rec,
            )
            for lo in range(0, points.shape[0], chunk):
                block = points[lo : lo + chunk]
                took = 0
                while took < block.shape[0]:
                    took += bulk.bulk_insert(block[took:])
            assert_identical_trees(scalar, bulk)
            c = rec.counters
            assert c.get("bulk.appends", 0) > 0
            assert c["bulk.fallback_rows"] == split_rows + 1

    def test_over_budget_window_returns_after_first_new_entry(self):
        """Over budget, a window appends nothing: it stops at the first
        row that needs a new entry, which the scalar path inserts before
        the call returns.  Under budget the same row is appended inside
        the window and the call goes on."""
        layout = PageLayout(page_size=256, dimensions=2)
        base = clustered_points(np.random.default_rng(3), 120, 2)

        def build(budget=None, recorder=None):
            tree = CFTree(
                layout,
                threshold=0.5,
                budget=budget,
                stats=IOStats(),
                recorder=recorder,
            )
            tree.insert_points(base)
            return tree

        probe = build()
        new_entry = next(
            leaf.entry_cf(0).centroid + 0.6
            for leaf in probe.leaves()
            if not leaf.is_full
        )
        stream = np.concatenate([base[:20], new_entry[None, :], base[20:40]])

        rec = Recorder()
        under = build(recorder=rec)
        assert under.bulk_insert(stream, stop_on_alloc=True) == stream.shape[0]
        reference = build()
        reference.insert_points(stream)
        assert_identical_trees(reference, under)
        assert rec.counters["bulk.appends"] == 1
        assert rec.counters.get("bulk.fallback_rows", 0) == 0

        rec = Recorder()
        budget = MemoryBudget(64 * 256, layout)
        over = build(budget, recorder=rec)
        budget.limit_bytes = (over.node_count - 1) * 256
        assert budget.over_budget
        assert over.bulk_insert(stream, stop_on_alloc=True) == 21
        reference = build()
        reference.insert_points(stream[:21])
        assert_identical_trees(reference, over)
        assert rec.counters.get("bulk.appends", 0) == 0
        assert rec.counters["bulk.fallback_rows"] == 1
        assert rec.counters["bulk.absorbed_rows"] == 20

    @pytest.mark.parametrize("chunk", (7, 128))
    @pytest.mark.parametrize("d", (2, 3))
    def test_repairs_resolve_each_leaf_row_once(self, d, chunk, monkeypatch):
        """A window whose k last rows are all re-routed does leaf work
        that grows with the rows, not with k times the rows: for d <= 2
        each row is resolved once, for d >= 3 at most the rows after
        the first re-routed one are replayed once more.  Each re-routed row
        counts as one repair whatever d and the leaf sub-window
        length."""
        monkeypatch.setattr(tree_module, "_LEAF_CHUNK", chunk)
        for k in (8, 32, 64):
            monkeypatch.setattr(tree_module, "_BULK_MIN_WINDOW", 2 * k)
            seeds = np.zeros((2, d))
            seeds[1, 0] = 2.0
            stream = np.zeros((2 * k, d))
            stream[:k, 0] = 0.9
            stream[k:, 0] = 1.05
            rec = Recorder()
            bulk = make_tree(dimensions=d, threshold=1.9, recorder=rec)
            scalar = make_tree(dimensions=d, threshold=1.9)
            for tree in (scalar, bulk):
                tree.insert_points(seeds)
            scalar.insert_points(stream)
            assert bulk.bulk_insert(stream) == 2 * k
            assert_identical_trees(scalar, bulk)
            c = rec.counters
            assert c["bulk.windows"] == 1
            assert c.get("bulk.flips", 0) == 0
            assert c.get("bulk.fallback_rows", 0) == 0
            assert c["bulk.repairs"] == k
            replayed = c["bulk.replayed_leaf_rows"]
            if d <= 2:
                assert replayed == 2 * k
            else:
                assert 2 * k <= replayed < 3 * k


class TestThresholdSlack:
    """Both threshold tests, ``insert_cf``'s and a window's, allow the
    rounding slack ``64·eps·(v² + eps·n·|mean|²)`` and not a bit more:
    a merge whose ``v² − T²`` lies just past the slack (within four
    times it) must become a new entry on both paths, and one within the
    slack must merge on both."""

    @staticmethod
    def boundary_rows(mean: np.ndarray, threshold: float, radius: bool):
        """One-ulp steps away from a lone point at ``mean``: the first
        row whose merged ``v² − T²`` lies in ``(0, slack]`` and the first
        in ``(slack, 4·slack]``."""
        eps = float(np.finfo(np.float64).eps)
        mean_sq = float(np.einsum("j,j->", mean, mean))
        x = mean.copy()
        x[0] += (2.0 if radius else 1.0) * threshold
        inside = outside = None
        for _ in range(100_000):
            value, n = _merged_stat(1.0, mean, 0.0, 1.0, x, 0.0, radius)
            gap = value * value - threshold**2
            slack = 64.0 * eps * (value * value + eps * n * mean_sq)
            if 0.0 < gap <= slack and inside is None:
                inside = x.copy()
            if slack < gap <= 4.0 * slack:
                outside = x.copy()
                break
            x[0] = np.nextafter(x[0], np.inf)
        assert inside is not None and outside is not None
        return inside, outside

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
    @pytest.mark.parametrize("d", (1, 2, 3))
    @pytest.mark.parametrize(
        "offset, threshold",
        [(0.0, 1.0), (1e8, 1e-6)],
        ids=["relative-slack", "mean-rounding-slack"],
    )
    def test_boundary_rows_on_both_paths(self, kind, d, offset, threshold):
        mean = np.full(d, offset) + np.arange(d) * 0.25
        radius = kind is ThresholdKind.RADIUS
        inside, outside = self.boundary_rows(mean, threshold, radius)
        for row, entries in ((inside, 1), (outside, 2)):
            for path in ("insert_cf", "window"):
                tree = make_tree(
                    dimensions=d, threshold=threshold, threshold_kind=kind
                )
                tree.insert_points(mean)
                if path == "insert_cf":
                    tree.insert_points(row)
                else:
                    assert tree.bulk_insert(row) == 1
                assert len(tree.leaf_entries()) == entries, (path, entries)


class TestGatheredKernels:
    """The validation kernels must be bitwise equal to the scalar ones,
    for unit points and for probes of any weight."""

    @pytest.mark.parametrize("metric", list(Metric))
    def test_stable_gathered_matches_per_probe(self, metric):
        rng = np.random.default_rng(4)
        w, k, d = 17, 5, 3
        pts = rng.normal(size=(w, d))
        # Unit points, then fractional (decayed) counts with SSD > 0.
        unit = np.arange(w) < w // 2
        p_ns = np.where(unit, 1.0, rng.uniform(0.3, 9.0, size=w))
        p_ssds = np.where(unit, 0.0, rng.uniform(0.0, 4.0, size=w))
        ns = rng.integers(1, 20, size=(w, k)).astype(np.float64)
        means = rng.normal(size=(w, k, d))
        ssds = rng.uniform(0.0, 5.0, size=(w, k))
        got = stable_gathered_cf_distances(
            p_ns, pts, p_ssds, ns, means, ssds, metric
        )
        for r in range(w):
            probe = StableCF(p_ns[r], pts[r], float(p_ssds[r]))
            expect = stable_distances_to_set(
                probe, ns[r], means[r], ssds[r], metric
            )
            assert np.array_equal(got[r], expect)


@pytest.mark.numerics
class TestRoutingKernelProperty:
    """What validation relies on to gather only the touched columns:
    an entry's column of the routing matrix equals, bitwise, the
    gathered kernel on its static state broadcast per row, for any
    subset of columns."""

    @pytest.mark.parametrize("metric", list(Metric))
    @pytest.mark.parametrize("d", (2, 3, 8))
    def test_batch_columns_equal_gathered_on_static_states(self, metric, d):
        rng = np.random.default_rng(100 + d)
        m, k = 23, 7
        offset = 1e6 * rng.standard_normal(d)
        p_means = offset + rng.normal(size=(m, d))
        unit = np.arange(m) < m // 2
        p_ns = np.where(unit, 1.0, rng.uniform(0.3, 9.0, size=m))
        p_ssds = np.where(unit, 0.0, rng.uniform(0.0, 4.0, size=m))
        ns = rng.uniform(0.5, 20.0, size=k)
        means = offset + rng.normal(size=(k, d))
        ssds = rng.uniform(0.0, 5.0, size=k)
        batch = stable_cf_batch_distances(
            p_ns, p_means, p_ssds, ns, means, ssds, metric
        )
        for cols in [[c] for c in range(k)] + [[0, 2, 5], list(range(k))]:
            gathered = stable_gathered_cf_distances(
                p_ns,
                p_means,
                p_ssds,
                np.repeat(ns[None, cols], m, axis=0),
                np.repeat(means[None, cols], m, axis=0),
                np.repeat(ssds[None, cols], m, axis=0),
                metric,
            )
            assert np.array_equal(gathered, batch[:, cols]), cols

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("d", (1, 2, 3, 8))
    def test_scalar_threshold_statistic_equals_kernel(self, kind, d):
        """``_fits_threshold`` computes the merged statistic on Python
        floats; it must be the one-row kernel's value, bitwise."""
        rng = np.random.default_rng(7 + d)
        radius = kind is ThresholdKind.RADIUS
        for trial in range(200):
            scale = 10.0 ** rng.integers(-3, 8)
            mean = scale * rng.normal(size=d)
            vec = mean + rng.choice([1e-9, 1e-3, 1.0]) * rng.normal(size=d)
            entry_n = float(rng.choice([1.0, 2.0, rng.uniform(0.1, 50.0)]))
            n = float(rng.choice([1.0, rng.uniform(0.05, 5.0)]))
            entry_sq = float(rng.uniform(0.0, 10.0)) if trial % 3 else 0.0
            sq = float(rng.uniform(0.0, 3.0)) if trial % 2 else 0.0
            one = (np.array([entry_n]), mean[None, :], np.array([entry_sq]))
            if radius:
                expect = stable_merged_radius_core(n, vec, sq, *one)[0]
            else:
                expect = stable_distances_core(
                    n, vec, sq, *one, Metric.D3_AVG_INTRACLUSTER
                )[0]
            value, n_merged = _merged_stat(
                entry_n, mean, entry_sq, n, vec, sq, radius
            )
            assert value == expect
            assert n_merged == entry_n + n


    @pytest.mark.parametrize("metric", list(Metric))
    @pytest.mark.parametrize("d", (1, 2))
    def test_row_distance_equals_kernel(self, metric, d):
        """The d <= 2 leaf step evaluates changed entries on Python
        floats; each must be the one-row kernel's value, bitwise."""
        rng = np.random.default_rng(31 + d)
        for trial in range(300):
            scale = 10.0 ** rng.integers(-3, 8)
            mean = scale * rng.normal(size=d)
            vec = mean + rng.choice([1e-9, 1e-3, 1.0]) * rng.normal(size=d)
            entry_n = float(rng.choice([1.0, 2.0, rng.uniform(0.1, 50.0)]))
            n = float(rng.choice([1.0, rng.uniform(0.05, 5.0)]))
            entry_sq = float(rng.uniform(0.0, 10.0)) if trial % 3 else 0.0
            sq = float(rng.uniform(0.0, 3.0)) if trial % 2 else 0.0
            expect = stable_distances_core(
                n, vec, sq, np.array([entry_n]), mean[None, :],
                np.array([entry_sq]), metric,
            )[0]
            pad = [0.0] * (2 - d)
            entry = [entry_n, *mean.tolist(), *pad, entry_sq]
            got = _ROW_DISTANCE[metric](entry, n, *vec.tolist(), *pad, sq)
            assert got == expect


class TestInsertPointsErgonomics:
    def test_single_point_promoted(self):
        tree = make_tree()
        tree.insert_points(np.array([1.0, 2.0]))
        assert tree.points == 1
        assert np.allclose(tree.leaf_entries()[0].centroid, [1.0, 2.0])

    def test_single_point_promoted_bulk(self):
        tree = make_tree()
        took = tree.bulk_insert(np.array([1.0, 2.0]))
        assert took == 1
        assert tree.points == 1

    def test_dimension_error_names_layout(self):
        tree = make_tree()
        with pytest.raises(ValueError, match="page layout"):
            tree.insert_points(np.zeros((4, 3)))

    def test_shape_error_reports_got_shape(self):
        tree = make_tree()
        with pytest.raises(ValueError, match=r"\(4, 3\)"):
            tree.insert_points(np.zeros((4, 3)))

    def test_wrong_single_point_length_rejected(self):
        tree = make_tree()
        with pytest.raises(ValueError, match=r"\(2,\)"):
            tree.insert_points(np.zeros(3))


class TestShardedFit:
    @pytest.fixture(scope="class")
    def grid(self):
        return ds1(scale=0.03, seed=0).points  # 3,000 points, K=100 grid

    def config(self, **kwargs) -> BirchConfig:
        return BirchConfig(
            n_clusters=100, memory_bytes=256 * 1024, **kwargs
        )

    def test_deterministic_for_fixed_seed_and_jobs(self, grid):
        r1 = Birch(self.config()).fit(grid, n_jobs=2)
        r2 = Birch(self.config()).fit(grid, n_jobs=2)
        assert np.array_equal(r1.centroids, r2.centroids)
        assert r1.io == r2.io
        assert r1.final_threshold == r2.final_threshold

    def test_quality_parity_with_sequential(self, grid):
        seq = Birch(self.config()).fit(grid)
        par = Birch(self.config()).fit(grid, n_jobs=3)
        assert par.n_clusters == seq.n_clusters
        # Each sharded centroid must land near a sequential one (well
        # under the grid spacing of sqrt(2)).
        d = np.linalg.norm(
            seq.centroids[:, None, :] - par.centroids[None, :, :], axis=2
        )
        assert float(d.min(axis=0).max()) < 0.5

    def test_conservation_ledger_balances(self, grid):
        result = Birch(self.config()).fit(grid, n_jobs=4)
        assert result.conservation_ok
        ledger = result.accounting()
        assert ledger["fed"] == grid.shape[0]

    def test_config_n_jobs_used_by_default(self, grid):
        result = Birch(self.config(n_jobs=2)).fit(grid)
        explicit = Birch(self.config()).fit(grid, n_jobs=2)
        assert np.array_equal(result.centroids, explicit.centroids)

    def test_invalid_n_jobs_rejected(self, grid):
        with pytest.raises(ValueError, match="n_jobs"):
            Birch(self.config()).fit(grid, n_jobs=0)
        with pytest.raises(ValueError, match="n_jobs"):
            BirchConfig(n_clusters=2, n_jobs=0)

    def test_phase_timers_populated(self, grid):
        result = Birch(self.config()).fit(grid, n_jobs=2)
        t = result.timings
        assert t.phase1_ingest > 0.0
        assert t.phase1_ingest + t.phase1_rebuilds <= t.phase1 + 1e-6


class TestCheckpointOnBulkPath:
    def test_bulk_built_stream_checkpoints_and_resumes(self, tmp_path):
        """Kill a bulk-ingesting stream mid-scan; resume must continue
        bit-for-bit (the checkpoint cadence caps each bulk call)."""
        rng = np.random.default_rng(11)
        points = clustered_points(rng, 2_000, 2)
        path = tmp_path / "ck.npz"
        config = BirchConfig(
            n_clusters=10,
            memory_bytes=256 * 1024,
            checkpoint_every_points=500,
            checkpoint_path=str(path),
            phase4_passes=0,
        )
        straight = Birch(config)
        straight.partial_fit(points)
        interrupted = Birch(config)
        interrupted.partial_fit(points[:1_000])
        assert path.exists()
        resumed = Birch.resume(path)
        fed = resumed.points_seen
        assert fed % 500 == 0 and 0 < fed <= 1_000
        resumed.partial_fit(points[fed:])
        assert resumed.points_seen == straight.points_seen
        a = straight.tree.export_structure()
        b = resumed.tree.export_structure()
        for key in a:
            assert np.array_equal(a[key], b[key]), key
        assert straight.finalize().n_clusters == resumed.finalize().n_clusters


class TestChooserOnMemoryBoundedStream:
    """The paper's regime: T0 = 0, a small memory budget, rebuilds and
    periodic checkpoints.  Scalar runs span ``bulk_insert`` calls, so
    they cross checkpoint boundaries and return to ``Birch`` only when
    an insertion allocates or frees a node.  Everything the per-point
    path decides must come out the same."""

    @staticmethod
    def config(path, **kwargs) -> BirchConfig:
        return BirchConfig(
            n_clusters=100,
            memory_bytes=24 * 1024,
            page_size=1024,
            initial_threshold=0.0,
            outlier_handling=True,
            checkpoint_every_points=250,
            checkpoint_path=str(path),
            phase4_passes=1,
            **kwargs,
        )

    @staticmethod
    def stream(estimator: Birch, points: np.ndarray) -> None:
        for lo in range(0, points.shape[0], 500):
            estimator.partial_fit(points[lo : lo + 500])

    @staticmethod
    def spy(estimator: Birch) -> dict[str, list]:
        """Log checkpoint and rebuild points, and whether the tree was
        inside a scalar run at the time."""
        log: dict[str, list] = {"checkpoints": [], "in_run": [], "rebuild_in_run": []}
        checkpoint, rebuild = estimator.checkpoint, estimator._rebuild

        def logged_checkpoint(path, **kwargs):
            log["checkpoints"].append(estimator.points_seen)
            log["in_run"].append(estimator.tree._scalar_left > 0)
            checkpoint(path, **kwargs)

        def logged_rebuild():
            log["rebuild_in_run"].append(estimator.tree._scalar_left > 0)
            rebuild()

        estimator.checkpoint = logged_checkpoint
        estimator._rebuild = logged_rebuild
        return log

    @staticmethod
    def per_row(estimator: Birch) -> None:
        """Swap the estimator's ingest loop for the guarded per-row path:
        one ``_insert_one`` per point, a weight-``w`` point as ``w``
        coincident points."""

        def ingest(points, weights):
            w = np.ones(points.shape[0], np.int64) if weights is None else weights
            for row, wt in zip(points, w):
                estimator._insert_one(StableCF(int(wt), row.copy(), 0.0))

        estimator._ingest = ingest

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_per_point_path(self, tmp_path, backend):
        points = ds1o(scale=0.03, seed=5).points
        chosen = Birch(
            self.config(
                tmp_path / "a.ckpt", observe=ObserveConfig()
            )
        )
        oracle = Birch(self.config(tmp_path / "b.ckpt"))
        self.per_row(oracle)
        chosen_log, oracle_log = self.spy(chosen), self.spy(oracle)
        self.stream(chosen, points)
        self.stream(oracle, points)
        assert chosen.rebuild_history == oracle.rebuild_history
        assert len(chosen.rebuild_history) >= 2
        assert chosen_log["checkpoints"] == oracle_log["checkpoints"]
        # A scalar run was cut by a checkpoint boundary and carried on,
        # and a split inside a run pushed the tree over budget.
        assert any(chosen_log["in_run"])
        assert any(chosen_log["rebuild_in_run"])
        a, b = chosen.finalize(), oracle.finalize()
        assert np.array_equal(a.centroids, b.centroids)
        assert a.telemetry.counter("bulk.scalar_runs") > 0

    @pytest.mark.parametrize(
        "backend, mode",
        [("stable", "weighted"), ("stable", "decayed")],
    )
    def test_weighted_and_decayed_match_per_row_path(self, tmp_path, backend, mode):
        """Weighted and decayed batches take the same windows: the tree,
        rebuilds, checkpoints (counted in points, not rows) and the
        ledger are those of the per-row loop."""
        data = ds1o(scale=0.03, seed=5).points
        weights = extra = None
        if mode == "weighted":
            weights = np.random.default_rng(11).integers(1, 4, size=data.shape[0])
        else:
            extra = {"decay_half_life": 3.0, "epoch_buckets": 4}

        def run(path, oracle):
            est = Birch(self.config(path, **(extra or {})))
            if oracle:
                self.per_row(est)
            log = self.spy(est)
            for lo in range(0, data.shape[0], 500):
                est.partial_fit(
                    data[lo : lo + 500],
                    None if weights is None else weights[lo : lo + 500],
                )
            return est, log

        chosen, chosen_log = run(tmp_path / "a.ckpt", oracle=False)
        oracle, oracle_log = run(tmp_path / "b.ckpt", oracle=True)
        assert chosen.rebuild_history == oracle.rebuild_history
        assert len(chosen.rebuild_history) >= 2
        assert chosen_log["checkpoints"] == oracle_log["checkpoints"]
        assert len(chosen_log["checkpoints"]) >= 4
        assert chosen.points_seen == oracle.points_seen
        a = chosen.tree.export_structure()
        b = oracle.tree.export_structure()
        for key in a:
            assert a[key].tobytes() == b[key].tobytes(), key
        assert chosen.tree.points == oracle.tree.points
        ra, rb = chosen.finalize(), oracle.finalize()
        assert np.array_equal(ra.centroids, rb.centroids)
        assert ra.accounting() == rb.accounting()
        # The resumed checkpoint continues the same stream.
        resumed = Birch.resume(tmp_path / "a.ckpt")
        assert resumed.points_seen == chosen_log["checkpoints"][-1]

    def test_resume_mid_run_continues_bit_for_bit(self, tmp_path):
        points = ds1o(scale=0.03, seed=5).points
        path = tmp_path / "ck.ckpt"
        straight = Birch(self.config(tmp_path / "straight.ckpt"))
        self.stream(straight, points)
        interrupted = Birch(self.config(path))
        self.stream(interrupted, points[:1_500])
        resumed = Birch.resume(path)
        fed = resumed.points_seen
        assert fed % 250 == 0 and 0 < fed <= 1_500
        self.stream(resumed, points[fed:])
        assert resumed.rebuild_history == straight.rebuild_history
        assert np.array_equal(
            straight.finalize().centroids, resumed.finalize().centroids
        )
