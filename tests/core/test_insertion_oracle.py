"""The insertion paths against their oracles.

``CFTree.insert_cf`` and the helpers it shares with ``try_absorb_cf``,
``bulk_insert``'s scalar runs and the merging refinement call unchecked kernel
cores on raw ``(n, mean, SSD)`` rows.  Every such core has a public,
validated counterpart that takes CF objects.  The oracle below is a
``CFTree`` whose hot helpers go back through that public API —
``CFNode.closest_entry``, ``stable_merged_diameter`` /
``stable_merged_radius``, ``CFNode.add_to_entry`` and a per-entry
``entry_distances`` loop for the pairwise matrix — and a memory-bounded
stream (small pages, T0 = 0, outlier handling on, so rebuilds, splits,
merges and re-absorption all happen) must build byte-identical trees
and rebuild histories either way.  A helper that hands a core the wrong
row, slice, metric or statistic, or that stops matching its checked
twin by one bit, fails here.

The second oracle is that scalar path itself: ``CFTree.bulk_insert`` on
CF rows of any weight — unit points, integer weights, fractional
(decayed) counts, rows with SSD > 0 — must build the tree a sequential
``insert_cf`` loop over the same rows builds, byte for byte, however
the rows are chunked and whether or not the caller caps or stops the
calls.  With windows forced on, the rows the bulk path sends to the
scalar path are exactly those the loop splits a leaf for, and the
windows append exactly the other rows the loop does not absorb, so a
window threshold test stricter or looser than ``insert_cf``'s is
caught too.  At T = 0
with rows one ulp apart far from the origin, the slack term for the
rounding of the means is what decides absorption.
"""

import numpy as np
import pytest

import repro.core.birch as birch_module
import repro.core.rebuild as rebuild_module
import repro.core.tree as tree_module
from repro.core.birch import Birch
from repro.core.config import BirchConfig
from repro.core.distances import (
    Metric,
    stable_merged_diameter,
    stable_merged_radius,
)
from repro.core.features import StableCF, row_cf
from repro.core.node import CFNode
from repro.core.tree import CFTree, ThresholdKind
from repro.observe.recorder import Recorder
from repro.pagestore.iostats import IOStats
from repro.pagestore.page import PageLayout

EPS = float(np.finfo(np.float64).eps)


class OracleNode(CFNode):
    """A node whose pairwise matrix is the per-entry public loop."""

    __slots__ = ()

    def pairwise_entry_distances(self, metric: Metric) -> np.ndarray:
        k = self.size
        out = np.zeros((k, k), dtype=np.float64)
        for i in range(k):
            out[i] = self.entry_distances(self.entry_cf(i), metric)
            out[i, i] = 0.0
        return out


class OracleTree(CFTree):
    """A CF-tree whose insertion helpers use the validated public API."""

    calls: dict[str, int] = {}

    def _count(self, name: str) -> None:
        OracleTree.calls[name] = OracleTree.calls.get(name, 0) + 1

    def _cf(self, n, vec, sq):
        return StableCF(n, np.array(vec), sq)

    def _new_node(self, is_leaf: bool) -> CFNode:
        node = super()._new_node(is_leaf)
        node.__class__ = OracleNode
        return node

    def _closest(self, node, n, vec, sq):
        self._count("closest")
        return node.closest_entry(self._cf(n, vec, sq), self.metric)

    def _absorb(self, node, index, n, vec, sq):
        self._count("absorb")
        node.add_to_entry(index, self._cf(n, vec, sq))

    def _fits_threshold(self, leaf, index, n, vec, sq):
        self._count("fits")
        cf = self._cf(n, vec, sq)
        ns = leaf.ns[index : index + 1]
        diameter = self.threshold_kind is ThresholdKind.DIAMETER
        means = leaf.means[index : index + 1]
        ssds = leaf.ssds[index : index + 1]
        kernel = stable_merged_diameter if diameter else stable_merged_radius
        value = kernel(cf, ns, means, ssds)[0]
        n_merged = float(ns[0]) + cf.n
        mean_sq = float(np.einsum("j,j->", means[0], means[0]))
        slack_sq = 64.0 * EPS * (value * value + EPS * n_merged * mean_sq)
        return bool(value * value <= self.threshold**2 + slack_sq)


def blobs(dimensions: int, n: int = 900, seed: int = 7) -> np.ndarray:
    """Shuffled Gaussian blobs with a few exact repeats (ties, T = 0)."""
    rng = np.random.default_rng(seed + dimensions)
    centers = rng.uniform(-40.0, 40.0, size=(12, dimensions))
    labels = rng.integers(0, 12, size=n)
    points = centers[labels] + rng.normal(scale=1.5, size=(n, dimensions))
    points[::50] = points[1::50]
    return points


def run_stream(points, config, tree_class, monkeypatch):
    monkeypatch.setattr(birch_module, "CFTree", tree_class)
    monkeypatch.setattr(rebuild_module, "CFTree", tree_class)
    est = Birch(config)
    for lo in range(0, points.shape[0], 150):
        est.partial_fit(points[lo : lo + 150])
    tree = est._tree
    assert type(tree) is tree_class
    return est, tree.export_structure()


CASES = [
    (kind, metric, decay)
    for kind in ThresholdKind
    for metric in Metric
    for decay in (False, True)
]


@pytest.mark.parametrize("dimensions", [1, 2, 8])
@pytest.mark.parametrize(
    "kind, metric, decay",
    CASES,
    ids=[
        f"stable-{k.value}-{m.value}-{'decay' if d else 'plain'}"
        for k, m, d in CASES
    ],
)
def test_insertion_path_matches_public_api_oracle(
    kind, metric, decay, dimensions, monkeypatch
):
    config = BirchConfig(
        n_clusters=12,
        memory_bytes=6 * 1024 if dimensions <= 2 else 12 * 1024,
        page_size=256 if dimensions <= 2 else 512,
        initial_threshold=0.0,
        outlier_handling=True,
        threshold_kind=kind,
        metric=metric,
        decay_half_life=4.0 if decay else None,
    )
    points = blobs(dimensions)
    OracleTree.calls = {}
    oracle, oracle_arrays = run_stream(points, config, OracleTree, monkeypatch)
    plain, plain_arrays = run_stream(points, config, CFTree, monkeypatch)

    # The stream must reach every part of the insertion path.
    assert set(OracleTree.calls) == {"closest", "absorb", "fits"}
    assert plain.stats.splits > 0 and plain.stats.merges > 0
    assert plain.stats.tree_rebuilds > 0

    assert plain.rebuild_history == oracle.rebuild_history
    assert (plain.stats.splits, plain.stats.merges) == (
        oracle.stats.splits,
        oracle.stats.merges,
    )
    assert sorted(plain_arrays) == sorted(oracle_arrays)
    for name, array in plain_arrays.items():
        other = oracle_arrays[name]
        assert array.dtype == other.dtype and array.shape == other.shape, name
        assert array.tobytes() == other.tobytes(), name


def cf_rows(dimensions: int, n: int = 300, seed: int = 5):
    """A mixed row stream: unit points, integer weights, multi-point
    rows with SSD > 0 and fractional counts."""
    rng = np.random.default_rng(seed + 10 * dimensions)
    centers = rng.uniform(-20.0, 20.0, size=(40, dimensions))
    means = centers[rng.integers(0, 40, size=n)] + rng.normal(
        scale=0.45 / np.sqrt(dimensions), size=(n, dimensions)
    )
    kind = rng.integers(0, 4, size=n)  # unit, weighted, spread, fractional
    ns = np.where(kind == 0, 1.0, rng.integers(2, 6, size=n).astype(float))
    ssd = np.where(kind >= 2, rng.uniform(0.0, 0.3, size=n) * ns, 0.0)
    ns = np.where(kind == 3, rng.uniform(0.2, 3.0, size=n), ns)
    return ns, means, ssd


def ulp_rows(dimensions: int, n: int = 300, seed: int = 6):
    """Repeats of 40 points at an offset of 1e4, each coordinate moved
    by at most one ulp, with unit, integer and fractional counts and no
    spread: at T = 0 only the slack for rounded means lets them merge."""
    rng = np.random.default_rng(seed + 10 * dimensions)
    centers = 1e4 + rng.uniform(-20.0, 20.0, size=(40, dimensions))
    means = centers[rng.integers(0, 40, size=n)]
    step = rng.integers(-1, 2, size=(n, dimensions))
    means = np.where(step > 0, np.nextafter(means, np.inf), means)
    means = np.where(step < 0, np.nextafter(means, -np.inf), means)
    kind = rng.integers(0, 3, size=n)  # unit, weighted, fractional
    ns = np.where(kind == 0, 1.0, rng.integers(2, 6, size=n).astype(float))
    ns = np.where(kind == 2, rng.uniform(0.2, 3.0, size=n), ns)
    return ns, means, np.zeros(n)


def oracle_tree(kind, metric, dimensions, threshold, recorder=None) -> CFTree:
    tree = CFTree(
        PageLayout(page_size=64 * (dimensions + 2), dimensions=dimensions),
        threshold=threshold,
        metric=metric,
        threshold_kind=kind,
        stats=IOStats(),
        recorder=recorder,
    )
    tree.set_decay(2.0, 0)
    return tree


def check_rows_against_sequential_insert_cf(
    rows, kind, metric, dimensions, threshold, monkeypatch
):
    ns, vecs, sqs = rows
    epoch = 100  # the trees decay between epochs: fractional entries

    def feed(tree, insert):
        for lo in range(0, ns.shape[0], epoch):
            insert(tree, lo, min(lo + epoch, ns.shape[0]))
            tree.advance_decay_clock()
        return tree

    not_absorbed = split_rows = 0

    def sequential(tree, lo, hi):
        nonlocal not_absorbed, split_rows
        for t in range(lo, hi):
            cf = row_cf(ns[t], vecs[t], sqs[t])
            if not tree.try_absorb_cf(cf):
                splits = tree.stats.splits
                tree.insert_cf(cf)
                not_absorbed += 1
                split_rows += tree.stats.splits > splits

    oracle = feed(oracle_tree(kind, metric, dimensions, threshold), sequential)
    assert oracle.stats.splits > 0
    expect = oracle.export_structure()

    for chunk in (1, 7, 4096):

        def chunked(tree, lo, hi):
            for i in range(lo, hi, chunk):
                j = min(i + chunk, hi)
                assert tree.bulk_insert(vecs[i:j], ns[i:j], sqs[i:j]) == j - i

        def capped(tree, lo, hi):
            # max_rows caps each call, stop_on_alloc ends it after any
            # insertion that allocated or freed a node, and the path
            # chooser never gives up on windows.
            monkeypatch.setattr(tree_module, "_CHOOSER_BREAK_EVEN", 0)
            i = lo
            while i < hi:
                took = tree.bulk_insert(
                    vecs[i:hi], ns[i:hi], sqs[i:hi],
                    max_rows=chunk, stop_on_alloc=True,
                )
                assert 1 <= took <= chunk
                i += took

        for insert in (chunked, capped):
            rec = Recorder()
            tree = feed(
                oracle_tree(kind, metric, dimensions, threshold, rec), insert
            )
            monkeypatch.undo()
            if insert is capped:
                # Only the rows that split (and the first row, into the
                # empty tree) leave the windows; the windows append the
                # other rows the loop does not absorb.
                c = rec.counters
                assert c.get("bulk.fallback_rows", 0) == split_rows + 1
                assert c.get("bulk.appends", 0) == not_absorbed - split_rows - 1
                if chunk > 1:
                    assert rec.counters["bulk.absorbed_rows"] > 0
            got = tree.export_structure()
            for name, array in expect.items():
                assert got[name].tobytes() == array.tobytes(), (chunk, name)
            assert tree.points == oracle.points
            assert type(tree.points) is type(oracle.points)
            assert tree.stats.summary() == oracle.stats.summary()
    return not_absorbed


ROW_CASES = [(kind, metric) for kind in ThresholdKind for metric in Metric]


@pytest.mark.parametrize("dimensions", [2, 3, 8])
@pytest.mark.parametrize(
    "kind, metric",
    ROW_CASES,
    ids=[f"stable-{k.value}-{m.value}" for k, m in ROW_CASES],
)
def test_bulk_insert_rows_match_sequential_insert_cf(
    kind, metric, dimensions, monkeypatch
):
    check_rows_against_sequential_insert_cf(
        cf_rows(dimensions), kind, metric, dimensions, 1.0, monkeypatch
    )


@pytest.mark.parametrize("dimensions", [2, 3, 8])
@pytest.mark.parametrize("kind", list(ThresholdKind), ids=lambda k: k.value)
def test_bulk_insert_ulp_repeats_at_zero_threshold(kind, dimensions, monkeypatch):
    not_absorbed = check_rows_against_sequential_insert_cf(
        ulp_rows(dimensions),
        kind,
        Metric.D2_AVG_INTERCLUSTER,
        dimensions,
        0.0,
        monkeypatch,
    )
    assert not_absorbed < 100  # most repeats merge into their point's entry
