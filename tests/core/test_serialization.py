"""Round-trip tests for CF / tree / result serialisation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.birch import Birch
from repro.core.config import BirchConfig
from repro.core.container import read, sniff
from repro.core.features import CF, StableCF
from repro.core.serialization import (
    load_cfs,
    load_result_arrays,
    load_tree,
    save_cfs,
    save_result,
    save_tree,
)
from repro.core.tree import CFTree, ThresholdKind
from repro.errors import ArchiveError
from repro.pagestore.page import PageLayout


@pytest.fixture
def cf_list(rng):
    return [CF.from_points(rng.normal(size=(k + 1, 3))) for k in range(10)]


class TestCFRoundTrip:
    def test_roundtrip_preserves_everything(self, cf_list, tmp_path):
        path = tmp_path / "cfs.npz"
        save_cfs(path, cf_list)
        loaded = load_cfs(path)
        assert len(loaded) == len(cf_list)
        for original, restored in zip(cf_list, loaded):
            assert restored.allclose(original.to_stable(), rtol=0, atol=0)

    def test_empty_list_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_cfs(tmp_path / "x.npz", [])

    def test_archive_is_a_sealed_cfs_file(self, cf_list, tmp_path):
        path = tmp_path / "cfs.npz"
        save_cfs(path, cf_list)
        assert sniff(path) == "cfs"
        assert set(read(path).arrays) == {"ns", "means", "ssds"}


class TestTreeRoundTrip:
    def _build_tree(self, rng) -> CFTree:
        layout = PageLayout(page_size=256, dimensions=2)
        tree = CFTree(layout, threshold=0.5)
        for p in rng.normal(size=(300, 2)) * 10:
            tree.insert_point(p)
        return tree

    def test_summary_preserved(self, rng, tmp_path):
        tree = self._build_tree(rng)
        path = tmp_path / "tree.npz"
        save_tree(path, tree)
        restored = load_tree(path)
        a, b = tree.summary_cf(), restored.summary_cf()
        assert a.n == b.n
        assert np.allclose(a.ls, b.ls, rtol=1e-9)
        assert a.ss == pytest.approx(b.ss, rel=1e-9)

    def test_parameters_preserved(self, rng, tmp_path):
        layout = PageLayout(page_size=512, dimensions=2)
        tree = CFTree(
            layout,
            threshold=1.25,
            threshold_kind=ThresholdKind.RADIUS,
        )
        for p in rng.normal(size=(50, 2)):
            tree.insert_point(p)
        path = tmp_path / "tree.npz"
        save_tree(path, tree)
        restored = load_tree(path)
        assert restored.threshold == 1.25
        assert restored.threshold_kind is ThresholdKind.RADIUS
        assert restored.layout.page_size == 512

    def test_restored_tree_is_structurally_valid(self, rng, tmp_path):
        tree = self._build_tree(rng)
        path = tmp_path / "tree.npz"
        save_tree(path, tree)
        restored = load_tree(path)
        restored.check_invariants()

    def test_restored_tree_accepts_inserts(self, rng, tmp_path):
        tree = self._build_tree(rng)
        path = tmp_path / "tree.npz"
        save_tree(path, tree)
        restored = load_tree(path)
        before = restored.points
        restored.insert_point(np.array([0.0, 0.0]))
        assert restored.points == before + 1


class TestResultRoundTrip:
    def test_roundtrip(self, rng, tmp_path):
        points = np.concatenate(
            [rng.normal(c, 0.5, size=(80, 2)) for c in ((0, 0), (10, 0))]
        )
        result = Birch(BirchConfig(n_clusters=2)).fit(points)
        path = tmp_path / "result.npz"
        save_result(path, result)
        clusters, centroids, labels, header = load_result_arrays(path)
        assert len(clusters) == 2
        assert np.allclose(centroids, result.centroids)
        assert labels is not None
        assert np.array_equal(labels, result.labels)
        assert header["rebuilds"] == result.rebuilds

    def test_roundtrip_without_labels(self, rng, tmp_path):
        points = rng.normal(size=(100, 2))
        result = Birch(BirchConfig(n_clusters=3, phase4_passes=0)).fit(points)
        path = tmp_path / "result.npz"
        save_result(path, result)
        _, _, labels, _ = load_result_arrays(path)
        assert labels is None


class TestExactPaths:
    """Every ``save_*`` writes the path it is given, suffix or not."""

    def test_suffixless_paths_round_trip(self, cf_list, rng, tmp_path):
        points = rng.normal(size=(200, 2))
        result = Birch(BirchConfig(n_clusters=3)).fit(points)
        tree = CFTree(PageLayout(page_size=256, dimensions=2), threshold=0.5)
        for p in points:
            tree.insert_point(p)
        save_cfs(tmp_path / "cfs.bin", cf_list)
        save_tree(tmp_path / "tree", tree)
        save_result(tmp_path / "res.bin", result)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "cfs.bin", "res.bin", "tree"
        ]
        assert len(load_cfs(tmp_path / "cfs.bin")) == len(cf_list)
        assert load_tree(tmp_path / "tree").points == tree.points
        _, centroids, labels, _ = load_result_arrays(tmp_path / "res.bin")
        np.testing.assert_array_equal(centroids, result.centroids)
        np.testing.assert_array_equal(labels, result.labels)


class TestFractionalMass:
    def test_decayed_stable_counts_survive(self, tmp_path):
        from repro.core.features import StableCF

        cfs = [StableCF(2.5, np.array([1.0, 2.0]), 0.75), StableCF(0.125, np.zeros(2), 0.0)]
        save_cfs(tmp_path / "decayed", cfs)
        assert [cf.n for cf in load_cfs(tmp_path / "decayed")] == [2.5, 0.125]


class TestTruncatedDecayedCounts:
    """Older writers stored stable counts as int64, so the entries of a
    decayed fit that held less than one point read back as 0."""

    @staticmethod
    def legacy_archive(tmp_path):
        from repro.core.container import read as read_container
        from tests.legacy_formats import write_npz_archive

        rng = np.random.default_rng(8)
        est = Birch(
            BirchConfig(n_clusters=3, decay_half_life=2.0)
        )
        for epoch in range(8):
            est.partial_fit(rng.normal(3.0 * epoch, 1.0, size=(40, 2)))
        sealed = tmp_path / "tree.bin"
        save_tree(sealed, est.tree)
        archive = read_container(sealed, "tree")
        arrays = {name: array.copy() for name, array in archive.arrays.items()}
        assert (arrays["ns"] < 1.0).any()  # mass decayed below one point
        arrays["ns"] = arrays["ns"].astype(np.int64)
        legacy = tmp_path / "tree.npz"
        write_npz_archive(legacy, arrays, archive.metadata, 2)
        return legacy

    def test_load_tree_raises_archive_error(self, tmp_path):
        legacy = self.legacy_archive(tmp_path)
        with pytest.raises(ArchiveError, match="truncated integers") as info:
            load_tree(legacy)
        assert "tree.npz" in str(info.value)
        assert "first: 0" in str(info.value)

    def test_cli_exits_4(self, tmp_path, capsys):
        from repro.cli import EXIT_ARCHIVE, main

        legacy = self.legacy_archive(tmp_path)
        assert main(["inspect", str(legacy)]) == EXIT_ARCHIVE
        assert "truncated integers" in capsys.readouterr().err


class TestVersioning:
    def test_future_version_rejected(self, cf_list, tmp_path):
        path = tmp_path / "cfs.npz"
        arrays = {
            "ns": np.array([1]),
            "ls": np.zeros((1, 2)),
            "ss": np.zeros(1),
        }
        np.savez_compressed(path, version=99, **arrays)
        with pytest.raises(ValueError, match="version"):
            load_cfs(path)


class TestPropertyRoundTrip:
    @given(
        ns=st.lists(st.integers(1, 1000), min_size=1, max_size=20),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_any_cf_list_roundtrips(self, ns, seed, tmp_path_factory):
        rng = np.random.default_rng(seed)
        cfs = [
            StableCF(n, rng.normal(size=3), float(abs(rng.normal()) * n))
            for n in ns
        ]
        path = tmp_path_factory.mktemp("ser") / "cfs.npz"
        save_cfs(path, cfs)
        loaded = load_cfs(path)
        for original, restored in zip(cfs, loaded):
            assert restored.n == original.n
            assert np.array_equal(restored.mean, original.mean)
            assert restored.ssd == original.ssd


class TestArchiveErrors:
    """Corrupt, truncated or foreign archives fail loudly with the path."""

    @pytest.fixture(params=[load_cfs, load_tree, load_result_arrays])
    def loader(self, request):
        return request.param

    def test_missing_file(self, loader, tmp_path):
        target = tmp_path / "never-written.npz"
        with pytest.raises(ArchiveError, match="never-written"):
            loader(target)

    def test_not_an_npz(self, loader, tmp_path):
        target = tmp_path / "garbage.npz"
        target.write_bytes(b"this is not a zip archive at all")
        with pytest.raises(ArchiveError, match="garbage"):
            loader(target)

    def test_truncated_archive(self, loader, cf_list, tmp_path):
        target = tmp_path / "cut.npz"
        save_cfs(target, cf_list)
        raw = target.read_bytes()
        target.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ArchiveError, match="cut"):
            loader(target)

    def test_foreign_npz_missing_keys(self, loader, tmp_path):
        target = tmp_path / "foreign.npz"
        np.savez(target, version=1, unrelated=np.arange(3))
        with pytest.raises(ArchiveError, match="foreign"):
            loader(target)

    def test_archive_error_is_a_value_error(self, tmp_path):
        target = tmp_path / "bad.npz"
        target.write_bytes(b"nope")
        with pytest.raises(ValueError):
            load_cfs(target)
