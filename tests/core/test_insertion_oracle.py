"""The scalar insertion path against its checked twin.

``CFTree.insert_cf`` and the helpers it shares with ``try_absorb_cf``,
``bulk_insert_cfs`` and the merging refinement call unchecked kernel
cores on raw ``(n, vector, scalar)`` rows.  Every such core has a
public, validated counterpart that takes CF objects.  The oracle below
is a ``CFTree`` whose hot helpers go back through that public API —
``CFNode.closest_entry``, ``merged_diameter`` / ``merged_radius`` and
their stable twins, ``CFNode.add_to_entry`` and a per-entry
``entry_distances`` loop for the pairwise matrix — and a memory-bounded
stream (small pages, T0 = 0, outlier handling on, so rebuilds, splits,
merges and re-absorption all happen) must build byte-identical trees
and rebuild histories either way.  A helper that hands a core the wrong
row, slice, metric or statistic, or that stops matching its checked
twin by one bit, fails here.
"""

import numpy as np
import pytest

import repro.core.birch as birch_module
import repro.core.rebuild as rebuild_module
from repro.core.birch import Birch
from repro.core.config import BirchConfig
from repro.core.distances import (
    Metric,
    merged_diameter,
    merged_radius,
    stable_merged_diameter,
    stable_merged_radius,
)
from repro.core.features import CF, StableCF
from repro.core.node import CFNode
from repro.core.tree import CFTree, ThresholdKind

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
        if self.cf_backend == "stable":
            return StableCF(n, np.array(vec), sq)
        return CF(n, np.array(vec), sq)

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
        if self.cf_backend == "stable":
            means = leaf.means[index : index + 1]
            ssds = leaf.ssds[index : index + 1]
            kernel = stable_merged_diameter if diameter else stable_merged_radius
            value = kernel(cf, ns, means, ssds)[0]
            n_merged = float(ns[0]) + cf.n
            mean_sq = float(np.einsum("j,j->", means[0], means[0]))
            slack_sq = 64.0 * EPS * (value * value + EPS * n_merged * mean_sq)
        else:
            ls = leaf.ls[index : index + 1]
            ss = leaf.ss[index : index + 1]
            kernel = merged_diameter if diameter else merged_radius
            value = kernel(cf, ns, ls, ss)[0]
            slack_sq = 64.0 * EPS * max(float(ss[0]) + cf.ss, 1.0)
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
    (backend, kind, metric, decay)
    for backend in ("classic", "stable")
    for kind in ThresholdKind
    for metric in Metric
    for decay in ((False, True) if backend == "stable" else (False,))
]


@pytest.mark.parametrize("dimensions", [2, 8])
@pytest.mark.parametrize(
    "backend, kind, metric, decay",
    CASES,
    ids=[f"{b}-{k.value}-{m.value}-{'decay' if d else 'plain'}" for b, k, m, d in CASES],
)
def test_insertion_path_matches_public_api_oracle(
    backend, kind, metric, decay, dimensions, monkeypatch
):
    config = BirchConfig(
        n_clusters=12,
        memory_bytes=6 * 1024 if dimensions == 2 else 12 * 1024,
        page_size=256 if dimensions == 2 else 512,
        initial_threshold=0.0,
        outlier_handling=True,
        cf_backend=backend,
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
