"""The ``serve`` subcommand and frozen-artifact ``inspect`` support."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.birch import Birch
from repro.core.config import BirchConfig
from repro.serve import (
    FrozenModel,
    compile_model,
    read_artifact_header,
    write_artifact,
)

pytestmark = pytest.mark.serve


@pytest.fixture
def checkpoint(tmp_path, rng):
    points = np.concatenate(
        [rng.normal(c, 0.4, size=(200, 2)) for c in ((0, 0), (10, 0), (0, 10))]
    )
    estimator = Birch(
        BirchConfig(n_clusters=3, memory_bytes=256 * 1024, phase4_passes=0)
    )
    estimator.partial_fit(points)
    path = tmp_path / "fit.ckpt"
    estimator.checkpoint(path)
    estimator.close()
    return path, points


@pytest.fixture
def artifact(checkpoint, tmp_path):
    ckpt, points = checkpoint
    out = tmp_path / "model.frz"
    assert main(["serve", "compile", str(ckpt), str(out)]) == 0
    return out, points


class TestServeCompile:
    def test_compile_reports_model_shape(self, checkpoint, tmp_path, capsys):
        ckpt, _ = checkpoint
        out = tmp_path / "model.frz"
        assert main(["serve", "compile", str(ckpt), str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "3 centroids" in stdout
        assert "payload sha256" in stdout
        assert out.exists()

    def test_compile_writes_only_core_arrays(self, checkpoint, tmp_path):
        ckpt, _ = checkpoint
        out = tmp_path / "flat.frz"
        assert main(["serve", "compile", str(ckpt), str(out)]) == 0
        header = read_artifact_header(out)
        assert sorted(entry["name"] for entry in header["arrays"]) == sorted(
            ["centroids", "centroid_sq_norms", "radii", "weights", "label_remap"]
        )
        assert "index" not in header["metadata"]

    def test_unreadable_source_exits_4(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.bin"
        bogus.write_bytes(b"garbage")
        code = main(
            ["serve", "compile", str(bogus), str(tmp_path / "out.frz")]
        )
        assert code == 4

    def test_trace_writes_serve_events(self, checkpoint, tmp_path):
        ckpt, _ = checkpoint
        trace = tmp_path / "trace.jsonl"
        assert main(
            ["serve", "compile", str(ckpt), str(tmp_path / "m.frz"),
             "--trace", str(trace)]
        ) == 0
        names = [
            json.loads(line).get("event") or json.loads(line).get("span")
            for line in trace.read_text().splitlines()
        ]
        assert any(n and n.startswith("serve.compile") for n in names)


class TestServeQuery:
    def test_query_writes_labels(self, artifact, tmp_path, capsys):
        frz, points = artifact
        queries = tmp_path / "queries.csv"
        np.savetxt(queries, points[::5], delimiter=",")
        labels_out = tmp_path / "labels.csv"
        code = main(
            ["serve", "query", str(frz), str(queries), "--out", str(labels_out)]
        )
        assert code == 0
        labels = np.loadtxt(labels_out, dtype=np.int64)
        expected = FrozenModel.load(frz).predict(points[::5])
        assert np.array_equal(labels, expected)

    def test_brute_matches_default(self, artifact, tmp_path):
        # The default query path against a naive brute-force argmin over
        # the full (n, K, d) difference tensor.
        frz, points = artifact
        queries = tmp_path / "queries.csv"
        np.savetxt(queries, points[::5], delimiter=",")
        out = tmp_path / "labels.csv"
        assert main(["serve", "query", str(frz), str(queries), "--out", str(out)]) == 0
        model = FrozenModel.load(frz)
        diff = points[::5, None, :] - np.asarray(model.centroids)[None, :, :]
        brute = model.label_remap[np.argmin((diff**2).sum(axis=2), axis=1)]
        assert np.array_equal(np.loadtxt(out, dtype=np.int64), brute)

    def test_corrupt_artifact_exits_5_with_verify(self, artifact, tmp_path):
        frz, points = artifact
        raw = bytearray(frz.read_bytes())
        raw[-1] ^= 0xFF
        frz.write_bytes(bytes(raw))
        queries = tmp_path / "queries.csv"
        np.savetxt(queries, points[:10], delimiter=",")
        assert main(["serve", "query", str(frz), str(queries), "--verify"]) == 5


@pytest.fixture
def indexed_artifact(checkpoint, tmp_path):
    """An artifact laid out as ``serve compile`` wrote it with a pruned index.

    Until the two-level index was removed, every default compile also
    stored ``index_*`` arrays (group centers, their norms and radii, a
    member permutation and group starts) and named the index in the
    metadata.  Such files are still valid artifacts of the same version.
    """
    ckpt, points = checkpoint
    model = compile_model(ckpt)
    k = model.n_clusters
    groups = np.array_split(np.arange(k), 2)
    centers = np.stack([model.centroids[g].mean(axis=0) for g in groups])
    arrays = {
        "centroids": model.centroids,
        "centroid_sq_norms": model.centroid_sq_norms,
        "radii": model.radii,
        "weights": model.weights,
        "label_remap": model.label_remap,
        "index_centers": centers,
        "index_center_sq_norms": np.einsum("ij,ij->i", centers, centers),
        "index_radii": np.ones(len(groups)),
        "index_perm": np.arange(k, dtype=np.int64),
        "index_starts": np.array([0, groups[0].size, k], dtype=np.int64),
    }
    path = tmp_path / "indexed.frz"
    write_artifact(path, arrays, {**model.metadata, "index": "pruned-groups"})
    return path, model, points


class TestIndexedArtifacts:
    def test_loads_with_verify_and_predicts_like_a_fresh_compile(
        self, indexed_artifact
    ):
        path, fresh, points = indexed_artifact
        loaded = FrozenModel.load(path, verify=True)
        assert "index" not in loaded.metadata
        assert np.array_equal(loaded.predict(points), fresh.predict(points))

    def test_query_and_inspect_exit_0(self, indexed_artifact, tmp_path):
        path, fresh, points = indexed_artifact
        queries = tmp_path / "queries.csv"
        np.savetxt(queries, points, delimiter=",")
        out = tmp_path / "labels.csv"
        assert main(
            ["serve", "query", str(path), str(queries), "--verify", "--out", str(out)]
        ) == 0
        assert np.array_equal(
            np.loadtxt(out, dtype=np.int64), fresh.predict(points)
        )
        assert main(["inspect", str(path)]) == 0


class TestServeBench:
    def test_bench_prints_qps(self, artifact, capsys):
        frz, _ = artifact
        code = main(
            ["serve", "bench", str(frz), "--queries", "2000",
             "--batch-size", "512", "--repeats", "1"]
        )
        assert code == 0
        assert "QPS" in capsys.readouterr().out


class TestInspectFrozen:
    def test_inspect_recognises_frozen_artifact(self, artifact, capsys):
        frz, _ = artifact
        assert main(["inspect", str(frz)]) == 0
        stdout = capsys.readouterr().out
        assert "frozen model" in stdout
        assert "3 centroids" in stdout
        assert "d=2" in stdout
        assert "compiled from checkpoint" in stdout

    def test_inspect_unreadable_exits_4(self, tmp_path):
        missing = tmp_path / "absent.frz"
        assert main(["inspect", str(missing)]) == 4

    def test_inspect_truncated_exits_4(self, artifact, tmp_path):
        frz, _ = artifact
        stub = tmp_path / "stub.frz"
        stub.write_bytes(frz.read_bytes()[:10])
        assert main(["inspect", str(stub)]) == 4
