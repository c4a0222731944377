"""Files of the retired classic trees load, convert, resume and serve.

Before every tree stored ``(n, mean, SSD)``, a ``cf_backend="classic"``
fit wrote the paper's ``(N, LS, SS)`` rows: v1 ``.npz`` archives,
``BIRCHCKP`` checkpoints and sealed ``BIRCHARC`` checkpoints whose
stored config names that backend, and frozen models that carry the key
in their metadata.  Each kind goes through its loader, ``Birch.resume``,
``compile_model`` and ``repro inspect``: the rows are converted once on
read, the run continues and serves as the stored one would, and a
damaged copy still fails with exit code 4 or 5.  Converting the rows
moves floats by a few ulps, so continuations are pinned on quality.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.cli import EXIT_ARCHIVE, EXIT_CHECKSUM, main
from repro.core import container
from repro.core.birch import Birch
from repro.core.features import StableCF
from repro.core.serialization import (
    load_cfs,
    load_result_arrays,
    load_tree,
    save_cfs,
    save_result,
    save_tree,
)
from repro.datagen.presets import ds1o
from repro.evaluation.labels import adjusted_rand_index
from repro.serve import FrozenModel
from repro.serve.frozen import compile_model
from repro.workloads.base import base_birch_config
from tests.legacy_formats import (
    birchckp_bytes,
    classic_checkpoint_state,
    classic_npz_copy,
    write_birchfrz_v1,
)

CHECKPOINTS = ("birchckp", "bircharc")
ARCHIVES = ("npz-cfs", "npz-tree", "npz-result")
MODELS = ("frozen-model", "birchfrz-v1")
LOADERS = {
    "npz-cfs": load_cfs,
    "npz-tree": load_tree,
    "npz-result": load_result_arrays,
}


@pytest.fixture(scope="module")
def points() -> np.ndarray:
    """DS1O with far noise, so the checkpoint holds outlier records."""
    data = ds1o(scale=0.05, seed=5).points
    rng = np.random.default_rng(9)
    noise = rng.uniform(data.min(0) - 50, data.max(0) + 50, size=(100, 2))
    mixed = np.concatenate([data, noise])
    return mixed[rng.permutation(mixed.shape[0])]


@pytest.fixture(scope="module")
def files(tmp_path_factory, points) -> dict[str, Path]:
    """The stable originals and their classic counterparts."""
    root = tmp_path_factory.mktemp("legacy")
    est = Birch(
        base_birch_config(n_clusters=100, memory_bytes=24 * 1024)
    )
    est.partial_fit(points[: points.shape[0] // 2])
    assert est.rebuilds > 0
    out = {"checkpoint": root / "stable.ckpt"}
    est.checkpoint(out["checkpoint"])
    result = est.finalize()
    for kind, save, obj in (
        ("cfs", save_cfs, est.tree.leaf_entries()),
        ("tree", save_tree, est.tree),
        ("result", save_result, result),
    ):
        out[kind] = root / kind
        save(out[kind], obj)
        out[f"npz-{kind}"] = root / f"old-{kind}.npz"
        classic_npz_copy(out[kind], out[f"npz-{kind}"])

    meta, arrays = classic_checkpoint_state(out["checkpoint"])
    assert meta["outliers"] is not None and arrays["outlier_ns"].size > 0
    out["birchckp"] = root / "old-birchckp.ckpt"
    out["birchckp"].write_bytes(birchckp_bytes(meta, arrays, 2))
    out["bircharc"] = root / "old-bircharc.ckpt"
    container.write(out["bircharc"], "checkpoint", arrays, meta)

    model = FrozenModel.from_result(result)
    out["model"] = root / "stable.frz"
    model.save(out["model"])
    current = container.read(out["model"], "frozen-model")
    tagged = {**current.metadata, "cf_backend": "classic"}
    out["frozen-model"] = root / "old.frz"
    container.write(out["frozen-model"], "frozen-model", current.arrays, tagged)
    out["birchfrz-v1"] = root / "old-v1.frz"
    write_birchfrz_v1(out["birchfrz-v1"], dict(current.arrays), tagged)
    return out


def _continue(path: Path, points: np.ndarray) -> tuple[Birch, np.ndarray]:
    est = Birch.resume(path)
    est.partial_fit(points[points.shape[0] // 2 :])
    est.finalize()
    return est, est.predict(points)


class TestClassicCheckpoints:
    @pytest.mark.parametrize("name", CHECKPOINTS)
    def test_resumes_converted_and_continues_on_quality(
        self, files, points, name, tmp_path
    ):
        assert container.sniff(files[name]) == "checkpoint"
        stored = container.read(files[name], "checkpoint").metadata["config"]
        assert stored["cf_backend"] == "classic"
        est, labels = _continue(files[name], points)
        est.tree.check_invariants()
        assert all(isinstance(cf, StableCF) for cf in est.tree.leaf_entries())
        assert est.result.conservation_ok
        _, reference = _continue(files["checkpoint"], points)
        assert adjusted_rand_index(labels, reference) >= 0.999
        # What the resumed run writes names no representation.
        est.checkpoint(tmp_path / "again.ckpt")
        again = container.read(tmp_path / "again.ckpt", "checkpoint")
        assert "cf_backend" not in again.metadata["config"]

    @pytest.mark.parametrize("name", CHECKPOINTS)
    def test_compiles_and_serves(self, files, points, name):
        served = compile_model(files[name]).predict(points)
        reference = compile_model(files["checkpoint"]).predict(points)
        assert adjusted_rand_index(served, reference) >= 0.999


class TestClassicArchives:
    @pytest.mark.parametrize("name", ARCHIVES)
    def test_load_converts_rows(self, files, name):
        kind = name.removeprefix("npz-")
        assert container.sniff(files[name]) == kind
        loaded, stored = LOADERS[name](files[name]), LOADERS[name](files[kind])
        if kind == "tree":
            assert loaded.points == stored.points
            loaded.check_invariants()
            loaded, stored = loaded.leaf_entries(), stored.leaf_entries()
        elif kind == "result":
            np.testing.assert_array_equal(loaded[1], stored[1])
            np.testing.assert_array_equal(loaded[2], stored[2])
            loaded, stored = loaded[0], stored[0]
        assert len(loaded) == len(stored)
        for got, want in zip(loaded, stored):
            assert isinstance(got, StableCF)
            assert got.allclose(want, rtol=1e-9, atol=1e-9)

    def test_result_compiles_and_serves(self, files, points):
        served = compile_model(files["npz-result"]).predict(points)
        reference = compile_model(files["result"]).predict(points)
        np.testing.assert_array_equal(served, reference)


class TestClassicFrozenModels:
    @pytest.mark.parametrize("name", MODELS)
    def test_loads_and_serves(self, files, points, name):
        model = FrozenModel.load(files[name], verify=True)
        reference = FrozenModel.load(files["model"], verify=True)
        np.testing.assert_array_equal(
            model.predict(points), reference.predict(points)
        )


class TestInspect:
    @pytest.mark.parametrize("name", CHECKPOINTS + ARCHIVES + MODELS)
    def test_inspect_reads_every_kind(self, files, name, capsys):
        assert main(["inspect", str(files[name])]) == 0
        assert "classic" not in capsys.readouterr().out

    @pytest.mark.parametrize("name", CHECKPOINTS + ARCHIVES + MODELS)
    def test_damaged_copies_exit_4_or_5(self, files, name, tmp_path):
        raw = files[name].read_bytes()
        target = tmp_path / "damaged"
        target.write_bytes(raw[: len(raw) // 2])
        assert main(["inspect", str(target)]) in (EXIT_ARCHIVE, EXIT_CHECKSUM)
        # Sealed files: a byte past the preamble breaks a digest.  The
        # unsealed .npz archives: a byte of the zip magic.
        offset, code = (0, EXIT_ARCHIVE) if name in ARCHIVES else (60, EXIT_CHECKSUM)
        flipped = bytearray(raw)
        flipped[offset] ^= 1
        target.write_bytes(bytes(flipped))
        assert main(["inspect", str(target)]) == code
