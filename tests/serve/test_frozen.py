"""FrozenModel parity with the live estimator, compile paths, mmap sharing."""

from __future__ import annotations

import hashlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.birch import Birch
from repro.core.config import BirchConfig
from repro.core.serialization import save_result
from repro.datagen.presets import ds1, ds2
from repro.errors import ArchiveError, NotFittedError
from repro.serve import FrozenModel, compile_model
from tests.legacy_formats import classic_npz_copy, v1_checkpoint_bytes

pytestmark = pytest.mark.serve

_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _config(**overrides) -> BirchConfig:
    defaults = dict(
        n_clusters=8,
        memory_bytes=256 * 1024,
        initial_threshold=1.0,
        phase4_passes=0,
    )
    defaults.update(overrides)
    return BirchConfig(**defaults)


def _fitted(points: np.ndarray, **overrides) -> Birch:
    estimator = Birch(_config(**overrides))
    estimator.fit(points)
    return estimator


@pytest.fixture
def small_fit(rng):
    points = np.concatenate(
        [rng.normal(c, 0.5, size=(150, 2)) for c in
         ((0, 0), (8, 0), (0, 8), (8, 8), (4, 4), (12, 4), (4, 12), (-4, 4))]
    )
    return points


class TestParityWithEstimator:
    @pytest.mark.parametrize("preset", [ds1, ds2])
    # "classic": compiled from the .npz result archive a classic fit wrote.
    @pytest.mark.parametrize("backend", ["classic", "stable"])
    def test_preset_parity(self, preset, backend, tmp_path):
        dataset = preset(scale=0.02)
        estimator = _fitted(
            dataset.points, n_clusters=100, memory_bytes=4 << 20
        )
        frozen = FrozenModel.from_estimator(estimator)
        if backend == "classic":
            save_result(tmp_path / "result", estimator.result)
            classic_npz_copy(tmp_path / "result", tmp_path / "classic.npz")
            frozen = compile_model(tmp_path / "classic.npz")
        queries = dataset.points[::3]
        expected = estimator.predict(queries)
        assert np.array_equal(frozen.predict(queries), expected)
        # Chunking only blocks the flat scan; labels never depend on it.
        assert np.array_equal(frozen.predict(queries, chunk=7), expected)
        estimator.close()

    def test_save_load_round_trip(self, small_fit, tmp_path):
        estimator = _fitted(small_fit)
        frozen = FrozenModel.from_estimator(estimator)
        digest = frozen.save(tmp_path / "m.frz")
        loaded = FrozenModel.load(tmp_path / "m.frz")
        assert loaded.metadata["artifact"]["payload_sha256"] == digest
        queries = small_fit[::2]
        assert np.array_equal(
            loaded.predict(queries), estimator.predict(queries)
        )
        estimator.close()

    def test_loaded_arrays_are_read_only_views(self, small_fit, tmp_path):
        estimator = _fitted(small_fit)
        FrozenModel.from_estimator(estimator).save(tmp_path / "m.frz")
        estimator.close()
        loaded = FrozenModel.load(tmp_path / "m.frz")
        # np.asarray strips the memmap subclass but keeps the zero-copy
        # read-only view: nothing here may be writable or own its data.
        for name in ("centroids", "centroid_sq_norms", "radii", "weights"):
            arr = getattr(loaded, name)
            assert not arr.flags.writeable
            assert arr.base is not None

    def test_transform_and_score(self, small_fit):
        estimator = _fitted(small_fit)
        frozen = FrozenModel.from_estimator(estimator)
        queries = small_fit[:50]
        distances = frozen.transform(queries)
        assert distances.shape == (50, frozen.n_clusters)
        assert np.array_equal(
            frozen.label_remap[np.argmin(distances, axis=1)],
            frozen.predict(queries),
        )
        assert frozen.score(queries) <= 0.0
        estimator.close()

    def test_unfitted_estimator_raises(self):
        with pytest.raises(NotFittedError):
            FrozenModel.from_estimator(Birch(_config()))


class TestCompileSources:
    def test_compile_from_checkpoint_matches_finalize(
        self, small_fit, tmp_path
    ):
        estimator = Birch(_config())
        estimator.partial_fit(small_fit)
        ckpt = tmp_path / "fit.ckpt"
        estimator.checkpoint(ckpt)

        model = compile_model(ckpt)
        resumed = Birch.resume(ckpt)
        resumed.finalize()
        expected = resumed.predict(small_fit[::2])
        assert np.array_equal(model.predict(small_fit[::2]), expected)
        assert model.metadata["source"]["kind"] == "checkpoint"
        assert model.metadata["source"]["sha256"] == hashlib.sha256(
            ckpt.read_bytes()
        ).hexdigest()
        resumed.close()
        estimator.close()

    def test_compile_from_v1_checkpoint(self, small_fit, tmp_path):
        # Forge a genuine version-1 archive (no evolve payload) from a
        # v2 snapshot, same as the checkpoint compatibility tests.
        estimator = Birch(_config())
        estimator.partial_fit(small_fit)
        ckpt = tmp_path / "v1.ckpt"
        estimator.checkpoint(ckpt)
        ckpt.write_bytes(v1_checkpoint_bytes(ckpt))

        model = compile_model(ckpt)
        resumed = Birch.resume(ckpt)
        resumed.finalize()
        assert np.array_equal(
            model.predict(small_fit[::2]), resumed.predict(small_fit[::2])
        )
        resumed.close()
        estimator.close()

    def test_compile_from_result_archive(self, small_fit, tmp_path):
        estimator = _fitted(small_fit)
        archive = tmp_path / "result.npz"
        save_result(archive, estimator.result)
        model = compile_model(archive)
        assert model.metadata["source"]["kind"] == "result-archive"
        assert np.array_equal(
            model.predict(small_fit[::2]), estimator.predict(small_fit[::2])
        )
        estimator.close()

    def test_compile_of_frozen_artifact_is_rejected(
        self, small_fit, tmp_path
    ):
        estimator = _fitted(small_fit)
        frz = tmp_path / "m.frz"
        FrozenModel.from_estimator(estimator).save(frz)
        estimator.close()
        with pytest.raises(ArchiveError, match="already a frozen-model"):
            compile_model(frz)

    def test_compile_of_garbage_is_archive_error(self, tmp_path):
        bogus = tmp_path / "bogus.bin"
        bogus.write_bytes(b"not a model at all")
        with pytest.raises(ArchiveError):
            compile_model(bogus)


class TestEvolvedModels:
    def test_predict_after_decay_and_forget(self, rng, tmp_path):
        config = BirchConfig(
            n_clusters=4,
            memory_bytes=256 * 1024,
            initial_threshold=1.0,
            phase4_passes=0,
            decay_half_life=3.0,
            epoch_buckets=4,
        )
        estimator = Birch(config)
        for i in range(6):
            estimator.partial_fit(
                rng.normal((i % 3 * 6, 0), 0.4, size=(120, 2))
            )
        estimator.forget_before(2)
        estimator.finalize()
        frozen = FrozenModel.from_estimator(estimator)
        # Decayed stable CFs carry fractional mass; it must survive
        # compilation as-is.
        assert np.all(frozen.weights > 0)
        assert not np.allclose(frozen.weights, np.round(frozen.weights))
        queries = rng.normal((6, 0), 2.0, size=(200, 2))
        assert np.array_equal(
            frozen.predict(queries), estimator.predict(queries)
        )
        path = tmp_path / "evolved.frz"
        frozen.save(path)
        assert np.array_equal(
            FrozenModel.load(path).predict(queries),
            estimator.predict(queries),
        )
        estimator.close()


class TestMultiProcessSharing:
    def test_two_processes_serve_one_artifact(self, small_fit, tmp_path):
        estimator = _fitted(small_fit)
        frozen = FrozenModel.from_estimator(estimator)
        path = tmp_path / "shared.frz"
        frozen.save(path)
        queries = small_fit[::2]
        qpath = tmp_path / "queries.npy"
        np.save(qpath, queries)
        expected = frozen.predict(queries)
        estimator.close()

        script = (
            "import sys, numpy as np\n"
            "from repro.serve import FrozenModel\n"
            "m = FrozenModel.load(sys.argv[1])\n"
            "# mmap'd read path: views, never private copies\n"
            "assert not m.centroids.flags.writeable\n"
            "assert m.centroids.base is not None\n"
            "labels = m.predict(np.load(sys.argv[2]))\n"
            "sys.stdout.write(','.join(map(str, labels)))\n"
        )
        outputs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-c", script, str(path), str(qpath)],
                capture_output=True,
                text=True,
                env={"PYTHONPATH": _SRC},
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0] == ",".join(map(str, expected))
