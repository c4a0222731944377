"""The tamper matrix: every archive kind, current and legacy, fails loudly.

One set of inputs — a file of each kind the container writes, plus the
legacy ``BIRCHCKP`` v1/v2 checkpoints, v1/v2 ``.npz`` archives and a
``BIRCHFRZ`` v1 model that still carries the retired ``index_*``
arrays — runs through one set of cases: flipped header and payload
bytes (``ChecksumMismatchError``, exit 5), bad magic, truncation and
unknown versions (``ArchiveError``, exit 4), lazy frozen loads, and
injected write faults.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np
import pytest

from repro.cli import EXIT_ARCHIVE, EXIT_CHECKSUM, main
from repro.core import container
from repro.core.birch import Birch
from repro.core.checkpoint import load_checkpoint, write_checkpoint
from repro.core.config import BirchConfig
from repro.core.serialization import (
    load_cfs,
    load_result_arrays,
    load_tree,
    save_cfs,
    save_result,
    save_tree,
)
from repro.errors import (
    ArchiveError,
    ChecksumMismatchError,
    PermanentIOError,
)
from repro.pagestore.faults import FaultInjector
from repro.serve import FrozenModel
from tests.legacy_formats import (
    birchckp_bytes,
    checkpoint_state,
    classic_npz_copy,
    npz_copy,
    v1_checkpoint_bytes,
    write_birchfrz_v1,
    write_npz_archive,
)

SEALED = ("checkpoint", "result", "tree", "cfs", "frozen-model")
LEGACY = (
    "birchckp-v1",
    "birchckp-v2",
    "npz-result-v1",
    "npz-result-v2",
    "npz-tree",
    "npz-cfs",
    "birchfrz-v1-indexed",
)

LOADERS = {
    "checkpoint": load_checkpoint,
    "result": load_result_arrays,
    "tree": load_tree,
    "cfs": load_cfs,
    "frozen-model": lambda path: FrozenModel.load(path, verify=True),
}


def _fit() -> Birch:
    rng = np.random.default_rng(7)
    centers = ((0, 0), (8, 0), (0, 8), (8, 8))
    points = np.concatenate([rng.normal(c, 0.5, size=(60, 2)) for c in centers])
    est = Birch(BirchConfig(n_clusters=4, memory_bytes=8 * 1024))
    est.fit(points)
    return est


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict[str, tuple[Path, str]]:
    """``name -> (path, kind)`` for every sealed kind and legacy input."""
    root = tmp_path_factory.mktemp("archives")
    stable = _fit()
    files = {name: root / name for name in SEALED + LEGACY}
    stable.checkpoint(files["checkpoint"])
    save_result(files["result"], stable.result)
    save_tree(files["tree"], stable.tree)
    save_cfs(files["cfs"], stable.tree.leaf_entries())
    FrozenModel.from_estimator(stable).save(files["frozen-model"])

    files["birchckp-v1"].write_bytes(v1_checkpoint_bytes(files["checkpoint"]))
    meta, arrays = checkpoint_state(files["checkpoint"])
    files["birchckp-v2"].write_bytes(birchckp_bytes(meta, arrays, 2))
    classic_npz_copy(files["result"], files["npz-result-v1"])
    npz_copy(files["result"], files["npz-result-v2"])
    npz_copy(files["tree"], files["npz-tree"])
    npz_copy(files["cfs"], files["npz-cfs"])
    model = FrozenModel.from_estimator(stable)
    write_birchfrz_v1(
        files["birchfrz-v1-indexed"],
        {
            "centroids": model.centroids,
            "centroid_sq_norms": model.centroid_sq_norms,
            "radii": model.radii,
            "weights": model.weights,
            "label_remap": model.label_remap,
            "index_centers": model.centroids[:2].copy(),
            "index_perm": np.arange(model.n_clusters, dtype=np.int64),
        },
        {**model.metadata, "index": "pruned-groups"},
    )
    kinds = {
        "birchckp-v1": "checkpoint",
        "birchckp-v2": "checkpoint",
        "npz-result-v1": "result",
        "npz-result-v2": "result",
        "npz-tree": "tree",
        "npz-cfs": "cfs",
        "birchfrz-v1-indexed": "frozen-model",
    }
    return {
        name: (path, kinds.get(name, name)) for name, path in files.items()
    }


def _flipped(path: Path, target: Path, offset: int, bit: int) -> Path:
    raw = bytearray(path.read_bytes())
    raw[offset] ^= 1 << bit
    target.write_bytes(bytes(raw))
    return target


def _payload_start(path: Path) -> int:
    return container.read_header(path).payload_start


class TestEveryInputLoads:
    @pytest.mark.parametrize("name", SEALED + LEGACY)
    def test_sniff_and_load(self, inputs, name):
        path, kind = inputs[name]
        assert container.sniff(path) == kind
        LOADERS[kind](path)

    @pytest.mark.parametrize("name", ["birchckp-v1", "birchckp-v2"])
    def test_legacy_checkpoints_resume_like_the_current_one(self, inputs, name):
        current = load_checkpoint(inputs["checkpoint"][0]).finalize()
        legacy = load_checkpoint(inputs[name][0]).finalize()
        np.testing.assert_array_equal(legacy.centroids, current.centroids)

    @pytest.mark.parametrize("name", ["npz-result-v2", "npz-tree", "npz-cfs"])
    def test_legacy_npz_reads_the_same_arrays(self, inputs, name):
        legacy = container.read(inputs[name][0])
        sealed = container.read(inputs[legacy.kind][0])
        assert legacy.metadata == sealed.metadata
        assert legacy.arrays.keys() == sealed.arrays.keys()
        for key in sealed.arrays:
            np.testing.assert_array_equal(legacy[key], sealed[key])

    def test_indexed_birchfrz_serves_like_the_current_model(self, inputs):
        points = np.random.default_rng(3).normal(4, 4, size=(500, 2))
        legacy = FrozenModel.load(inputs["birchfrz-v1-indexed"][0], verify=True)
        current = FrozenModel.load(inputs["frozen-model"][0], verify=True)
        assert "index" not in legacy.metadata
        assert np.array_equal(legacy.predict(points), current.predict(points))
        assert (
            legacy.metadata["artifact"]["payload_sha256"]
            != current.metadata["artifact"]["payload_sha256"]
        )  # the index arrays are part of the legacy payload


class TestFlippedBytes:
    def test_every_bit_of_a_result_archive(self, inputs, tmp_path):
        path = inputs["result"][0]
        size = path.stat().st_size
        target = tmp_path / "flip"
        for offset in range(size):
            for bit in range(8):
                _flipped(path, target, offset, bit)
                expected = ArchiveError if offset < 8 else ChecksumMismatchError
                with pytest.raises(expected):
                    load_result_arrays(target)

    @pytest.mark.parametrize(
        "name", ["checkpoint", "tree", "cfs", "frozen-model", "birchfrz-v1-indexed"]
    )
    def test_every_header_byte(self, inputs, name, tmp_path):
        path, kind = inputs[name]
        target = tmp_path / "flip"
        for offset in range(_payload_start(path)):
            _flipped(path, target, offset, offset % 8)
            expected = ArchiveError if offset < 8 else ChecksumMismatchError
            with pytest.raises(expected):
                LOADERS[kind](target)

    @pytest.mark.parametrize(
        "name", ["checkpoint", "tree", "cfs", "frozen-model", "birchfrz-v1-indexed"]
    )
    def test_sampled_payload_bytes(self, inputs, name, tmp_path):
        path, kind = inputs[name]
        start, end = _payload_start(path), path.stat().st_size
        target = tmp_path / "flip"
        for offset in np.linspace(start, end - 1, 25).astype(int):
            _flipped(path, target, int(offset), int(offset) % 8)
            with pytest.raises(ChecksumMismatchError):
                LOADERS[kind](target)

    @pytest.mark.parametrize("name", ["birchckp-v1", "birchckp-v2"])
    def test_legacy_checkpoint_bytes(self, inputs, name, tmp_path):
        path = inputs[name][0]
        target = tmp_path / "flip"
        for offset in np.linspace(8, path.stat().st_size - 1, 40).astype(int):
            _flipped(path, target, int(offset), int(offset) % 8)
            with pytest.raises(ChecksumMismatchError):
                load_checkpoint(target)

    @pytest.mark.parametrize("name", SEALED)
    def test_cli_exit_5(self, inputs, name, tmp_path, capsys):
        path = inputs[name][0]
        target = _flipped(path, tmp_path / "flip", 60, 0)
        assert main(["inspect", str(target)]) == EXIT_CHECKSUM
        assert "integrity" in capsys.readouterr().err


class TestForeignTruncatedAndUnknown:
    @pytest.mark.parametrize("name", SEALED + LEGACY)
    def test_bad_magic(self, inputs, name, tmp_path):
        path, kind = inputs[name]
        last = 3 if name.startswith("npz") else 7  # zip's magic is 4 bytes
        for offset in (0, last):  # the magic's first and last byte
            target = _flipped(path, tmp_path / "flip", offset, 1)
            with pytest.raises(ArchiveError, match="magic") as info:
                LOADERS[kind](target)
            assert type(info.value) is ArchiveError

    @pytest.mark.parametrize("name", SEALED + ("birchfrz-v1-indexed",))
    def test_truncation(self, inputs, name, tmp_path, capsys):
        path, kind = inputs[name]
        raw = path.read_bytes()
        target = tmp_path / "cut"
        start = _payload_start(path)
        for keep in (0, 7, 30, 52, start // 2, start, len(raw) - 1):
            target.write_bytes(raw[:keep])
            with pytest.raises(ArchiveError) as info:
                LOADERS[kind](target)
            assert type(info.value) is ArchiveError
        assert main(["inspect", str(target)]) == EXIT_ARCHIVE

    @pytest.mark.parametrize("name", ["birchckp-v2", "npz-result-v2", "npz-cfs"])
    def test_legacy_truncation(self, inputs, name, tmp_path):
        path, kind = inputs[name]
        raw = path.read_bytes()
        target = tmp_path / "cut"
        for keep in (0, 30, len(raw) // 2, len(raw) - 1):
            target.write_bytes(raw[:keep])
            with pytest.raises(ArchiveError):
                LOADERS[kind](target)

    @pytest.mark.parametrize("name", SEALED)
    def test_unknown_version(self, inputs, name, tmp_path):
        path, kind = inputs[name]
        raw = path.read_bytes()
        (header_len,) = struct.unpack_from("<Q", raw, 44)
        version = container.VERSION + 1
        digest = container._header_digest(version, raw[52 : 52 + header_len])
        target = tmp_path / "future"
        target.write_bytes(raw[:8] + struct.pack("<I", version) + digest + raw[44:])
        with pytest.raises(ArchiveError, match="version") as info:
            LOADERS[kind](target)
        assert type(info.value) is ArchiveError

    def test_unknown_legacy_versions(self, inputs, tmp_path):
        meta, arrays = checkpoint_state(inputs["checkpoint"][0])
        target = tmp_path / "v3.ckpt"
        target.write_bytes(birchckp_bytes(meta, arrays, 3))
        with pytest.raises(ArchiveError, match="version"):
            load_checkpoint(target)
        archive = container.read(inputs["npz-cfs"][0])
        write_npz_archive(target, dict(archive.arrays), None, 3)
        with pytest.raises(ArchiveError, match="version"):
            load_cfs(target)

    @pytest.mark.parametrize("name", SEALED + LEGACY)
    def test_wrong_kind(self, inputs, name):
        path, kind = inputs[name]
        other = "cfs" if kind != "cfs" else "result"
        with pytest.raises(ArchiveError, match=f"not a {other}"):
            container.read(path, other)

    def test_garbage_and_missing(self, tmp_path):
        junk = tmp_path / "junk"
        junk.write_bytes(b"no archive of any kind, current or legacy")
        for path in (junk, tmp_path / "missing"):
            with pytest.raises(ArchiveError):
                container.sniff(path)
            assert main(["inspect", str(path)]) == EXIT_ARCHIVE


class TestLazyFrozenLoad:
    @pytest.mark.parametrize("name", ["frozen-model", "birchfrz-v1-indexed"])
    def test_unverified_mmap_load_skips_the_payload(
        self, inputs, name, tmp_path, monkeypatch
    ):
        path = inputs[name][0]
        target = _flipped(path, tmp_path / "flip", path.stat().st_size - 1, 0)
        reads = []
        original = container._read_payload
        monkeypatch.setattr(
            container,
            "_read_payload",
            lambda *args: reads.append(args) or original(*args),
        )
        model = FrozenModel.load(target)  # serving load: header digest only
        assert not model.centroids.flags.writeable
        assert reads == []
        with pytest.raises(ChecksumMismatchError):
            FrozenModel.load(target, verify=True)
        with pytest.raises(ChecksumMismatchError):
            FrozenModel.load(target, mmap=False, verify=True)


@pytest.mark.faults
class TestWriteFaults:
    """Seeded write faults for every kind (``--fault-seed`` varies them)."""

    @pytest.mark.parametrize("name", SEALED)
    def test_permanent_fault_keeps_the_previous_file(
        self, inputs, name, tmp_path, fault_seed
    ):
        path, kind = inputs[name]
        target = tmp_path / name
        good = path.read_bytes()
        target.write_bytes(good)
        archive = container.read(path)
        rng = np.random.default_rng(fault_seed)
        injector = FaultInjector(
            kind="permanent", fail_at_byte=int(rng.integers(len(good)))
        )
        with pytest.raises(PermanentIOError):
            container.write(
                target, kind, archive.arrays, archive.metadata, injector=injector
            )
        assert target.read_bytes() == good
        assert not target.with_name(target.name + ".tmp").exists()
        LOADERS[kind](target)

    @pytest.mark.parametrize("name", SEALED)
    def test_transient_faults_heal_to_the_same_bytes(
        self, inputs, name, tmp_path, fault_seed
    ):
        path, kind = inputs[name]
        archive = container.read(path)
        injector = FaultInjector(
            fail_probability=0.5, seed=fault_seed, max_faults=2
        )
        naps: list[float] = []
        target = tmp_path / name
        container.write(
            target,
            kind,
            archive.arrays,
            archive.metadata,
            injector=injector,
            attempts=3,
            sleep=naps.append,
        )
        assert target.read_bytes() == path.read_bytes()
        assert len(naps) == injector.faults_injected

    def test_checkpoint_writer_retries_through_the_container(
        self, inputs, tmp_path, fault_seed
    ):
        est = load_checkpoint(inputs["checkpoint"][0])
        target = tmp_path / "c.ckpt"
        injector = FaultInjector(fail_probability=0.5, seed=fault_seed, max_faults=1)
        write_checkpoint(
            target, est, injector=injector, attempts=2, sleep=lambda _: None
        )
        assert load_checkpoint(target).points_seen == est.points_seen
