"""Tests for the ``python -m repro`` command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


@pytest.fixture
def csv_points(tmp_path, rng):
    points = np.concatenate(
        [rng.normal(c, 0.4, size=(60, 2)) for c in ((0, 0), (10, 0), (0, 10))]
    )
    path = tmp_path / "points.csv"
    np.savetxt(path, points, delimiter=",")
    return path


@pytest.fixture
def csv_with_truth(tmp_path, rng):
    points = np.concatenate(
        [rng.normal(c, 0.4, size=(60, 2)) for c in ((0, 0), (10, 0))]
    )
    labels = np.repeat([0, 1], 60)
    path = tmp_path / "labelled.csv"
    np.savetxt(path, np.column_stack([points, labels]), delimiter=",")
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_cluster_requires_k(self, csv_points):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster", str(csv_points)])

    def test_generate_rejects_unknown_preset(self, tmp_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "ds9", str(tmp_path / "x.csv")])


class TestGenerate:
    @pytest.mark.parametrize("preset", ["ds1", "ds2", "ds3"])
    def test_presets(self, preset, tmp_path, capsys):
        out = tmp_path / "data.csv"
        code = main(["generate", preset, str(out), "--scale", "0.01"])
        assert code == 0
        data = np.loadtxt(out, delimiter=",")
        assert data.shape[1] == 3  # x, y, label
        assert "wrote" in capsys.readouterr().out

    def test_mixture(self, tmp_path, capsys):
        out = tmp_path / "mix.csv"
        code = main(
            [
                "generate",
                "mixture",
                str(out),
                "--dimensions",
                "5",
                "--components",
                "3",
                "--points",
                "20",
            ]
        )
        assert code == 0
        data = np.loadtxt(out, delimiter=",")
        assert data.shape == (60, 6)  # 5 dims + label

    def test_shuffle_flag(self, tmp_path):
        ordered = tmp_path / "o.csv"
        shuffled = tmp_path / "s.csv"
        main(["generate", "ds1", str(ordered), "--scale", "0.01"])
        main(["generate", "ds1", str(shuffled), "--scale", "0.01", "--shuffle"])
        a = np.loadtxt(ordered, delimiter=",")
        b = np.loadtxt(shuffled, delimiter=",")
        assert not np.array_equal(a, b)


class TestCluster:
    def test_basic_run(self, csv_points, capsys):
        code = main(["cluster", str(csv_points), "-k", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "3 clusters" in out
        assert "weighted average diameter" in out

    def test_truth_scoring(self, csv_with_truth, capsys):
        code = main(["cluster", str(csv_with_truth), "-k", "2", "--truth-column"])
        assert code == 0
        out = capsys.readouterr().out
        assert "purity=" in out
        assert "ARI=" in out

    def test_save_labels(self, csv_points, tmp_path, capsys):
        labels_path = tmp_path / "labels.txt"
        code = main(
            ["cluster", str(csv_points), "-k", "3", "--save-labels", str(labels_path)]
        )
        assert code == 0
        labels = np.loadtxt(labels_path)
        assert labels.shape == (180,)
        assert set(np.unique(labels)) <= {0.0, 1.0, 2.0}

    def test_save_result_archive(self, csv_points, tmp_path):
        result_path = tmp_path / "result.npz"
        code = main(
            ["cluster", str(csv_points), "-k", "3", "--save-result", str(result_path)]
        )
        assert code == 0
        from repro.core.serialization import load_result_arrays

        clusters, centroids, labels, header = load_result_arrays(result_path)
        assert len(clusters) == 3
        assert centroids.shape == (3, 2)

    def test_metric_option(self, csv_points, capsys):
        code = main(["cluster", str(csv_points), "-k", "3", "--metric", "d4"])
        assert code == 0

    def test_truth_column_on_single_column_rejected(self, tmp_path):
        path = tmp_path / "one.csv"
        np.savetxt(path, np.arange(10.0), delimiter=",")
        with pytest.raises(SystemExit):
            main(["cluster", str(path), "-k", "2", "--truth-column"])


class TestCompare:
    def test_compare_runs(self, csv_points, capsys):
        code = main(
            [
                "compare",
                str(csv_points),
                "-k",
                "3",
                "--maxneighbor",
                "30",
                "--numlocal",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "BIRCH" in out
        assert "CLARANS" in out
        assert "speedup" in out


class TestExperiment:
    def test_order_experiment(self, capsys):
        code = main(["experiment", "order", "--scale", "0.01"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Order-sensitivity" in out
        assert "spread" in out

    def test_compression_experiment(self, capsys):
        code = main(["experiment", "compression", "--scale", "0.01"])
        assert code == 0
        out = capsys.readouterr().out
        assert "compression" in out.lower()

    def test_table4_experiment(self, capsys):
        code = main(["experiment", "table4", "--scale", "0.005"])
        assert code == 0
        assert "Table 4" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "table9"])


class TestResume:
    def test_checkpoint_then_resume(self, csv_points, tmp_path, capsys):
        ckpt = tmp_path / "run.ckpt"
        code = main(
            [
                "cluster",
                str(csv_points),
                "-k",
                "3",
                "--checkpoint",
                str(ckpt),
                "--checkpoint-every",
                "50",
            ]
        )
        assert code == 0
        assert ckpt.exists()
        capsys.readouterr()

        out_npz = tmp_path / "resumed.npz"
        code = main(["resume", str(ckpt), "--save-result", str(out_npz)])
        assert code == 0
        assert out_npz.exists()
        output = capsys.readouterr().out
        assert "resumed from" in output
        assert "clusters" in output

    def test_resume_with_more_points(self, csv_points, tmp_path, capsys):
        ckpt = tmp_path / "run.ckpt"
        main(
            [
                "cluster",
                str(csv_points),
                "-k",
                "3",
                "--checkpoint",
                str(ckpt),
                "--checkpoint-every",
                "50",
            ]
        )
        capsys.readouterr()
        code = main(["resume", str(ckpt), "--input", str(csv_points)])
        assert code == 0
        output = capsys.readouterr().out
        assert "more points" in output

    def test_resume_missing_checkpoint_fails_loudly(self, tmp_path, capsys):
        from repro.cli import EXIT_ARCHIVE

        code = main(["resume", str(tmp_path / "no-such.ckpt")])
        assert code == EXIT_ARCHIVE
        err = capsys.readouterr().err
        assert "error:" in err
        assert "does not exist" in err


@pytest.fixture
def dirty_csv(tmp_path, rng):
    points = np.concatenate(
        [rng.normal(c, 0.4, size=(60, 2)) for c in ((0, 0), (10, 0))]
    )
    points[7, 0] = np.nan
    path = tmp_path / "dirty.csv"
    np.savetxt(path, points, delimiter=",")
    return path


class TestErrorExitCodes:
    """Operator-facing failures map to short messages + distinct codes."""

    def test_invalid_point_exits_3(self, dirty_csv, capsys):
        from repro.cli import EXIT_INVALID_POINT

        code = main(["cluster", str(dirty_csv), "-k", "2"])
        assert code == EXIT_INVALID_POINT == 3
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "row 7" in err
        assert "Traceback" not in err

    def test_missing_checkpoint_exits_4(self, tmp_path, capsys):
        from repro.cli import EXIT_ARCHIVE

        code = main(["resume", str(tmp_path / "gone.ckpt")])
        assert code == EXIT_ARCHIVE == 4

    def test_corrupt_checkpoint_exits_5(self, csv_points, tmp_path, capsys):
        from repro.cli import EXIT_CHECKSUM

        ckpt = tmp_path / "run.ckpt"
        main(
            [
                "cluster",
                str(csv_points),
                "-k",
                "3",
                "--checkpoint",
                str(ckpt),
                "--checkpoint-every",
                "50",
            ]
        )
        blob = bytearray(ckpt.read_bytes())
        blob[60] ^= 0xFF  # flip one payload byte
        ckpt.write_bytes(bytes(blob))
        capsys.readouterr()

        code = main(["resume", str(ckpt)])
        assert code == EXIT_CHECKSUM == 5
        assert "integrity" in capsys.readouterr().err

    def test_bad_points_skip_recovers_with_warning(self, dirty_csv, capsys):
        code = main(["cluster", str(dirty_csv), "-k", "2", "--bad-points", "skip"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 clusters" in out
        assert "1 dropped by validation" in out

    def test_bad_points_quarantine_recovers(self, dirty_csv, capsys):
        code = main(
            ["cluster", str(dirty_csv), "-k", "2", "--bad-points", "quarantine"]
        )
        assert code == 0
        assert "quarantined" in capsys.readouterr().out


class TestSupervised:
    def test_supervised_prints_run_report(self, csv_points, capsys):
        code = main(["cluster", str(csv_points), "-k", "3", "--supervised"])
        assert code == 0
        out = capsys.readouterr().out
        assert "run status: ok" in out
        assert "phase3" in out
        assert "conservation=ok" in out

    def test_supervised_handles_dirty_input(self, dirty_csv, capsys):
        code = main(
            [
                "cluster",
                str(dirty_csv),
                "-k",
                "2",
                "--supervised",
                "--bad-points",
                "quarantine",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "run status: degraded" in out

    def test_supervised_save_labels_uses_nearest_centroid(
        self, csv_points, tmp_path
    ):
        labels_path = tmp_path / "labels.txt"
        code = main(
            [
                "cluster",
                str(csv_points),
                "-k",
                "3",
                "--supervised",
                "--save-labels",
                str(labels_path),
            ]
        )
        assert code == 0
        labels = np.loadtxt(labels_path)
        assert labels.shape == (180,)


class TestTelemetryFlags:
    def test_trace_writes_journal(self, csv_points, tmp_path, capsys):
        from repro.observe import read_jsonl

        trace = tmp_path / "trace.jsonl"
        code = main(
            ["cluster", str(csv_points), "-k", "3", "--trace", str(trace)]
        )
        assert code == 0
        names = [r["event"] for r in read_jsonl(trace)]
        assert "run.start" in names and "run.end" in names
        out = capsys.readouterr().out
        assert "telemetry journal appended" in out
        assert "telemetry:" in out

    def test_metrics_writes_textfile(self, csv_points, tmp_path, capsys):
        metrics = tmp_path / "metrics.prom"
        code = main(
            ["cluster", str(csv_points), "-k", "3", "--metrics", str(metrics)]
        )
        assert code == 0
        assert "# TYPE birch_bulk_windows counter" in metrics.read_text()
        assert "metrics textfile written" in capsys.readouterr().out

    def test_no_flags_means_no_telemetry_output(self, csv_points, capsys):
        code = main(["cluster", str(csv_points), "-k", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "telemetry" not in out

    def test_supervised_report_includes_telemetry(
        self, csv_points, tmp_path, capsys
    ):
        trace = tmp_path / "trace.jsonl"
        code = main(
            [
                "cluster",
                str(csv_points),
                "-k",
                "3",
                "--supervised",
                "--trace",
                str(trace),
            ]
        )
        assert code == 0
        assert "telemetry:" in capsys.readouterr().out


class TestInspect:
    def test_inspect_checkpoint(self, csv_points, tmp_path, capsys):
        ckpt = tmp_path / "run.ckpt"
        main(
            [
                "cluster",
                str(csv_points),
                "-k",
                "3",
                "--checkpoint",
                str(ckpt),
                "--checkpoint-every",
                "50",
            ]
        )
        capsys.readouterr()
        code = main(["inspect", str(ckpt)])
        assert code == 0
        out = capsys.readouterr().out
        assert "checkpoint" in out
        assert "points seen" in out
        assert "height" in out
        assert "leaf[" in out or "node[" in out

    def test_inspect_tree_archive(self, csv_points, tmp_path, capsys):
        from repro.core.birch import Birch
        from repro.core.config import BirchConfig
        from repro.core.serialization import save_tree

        points = np.loadtxt(csv_points, delimiter=",", ndmin=2)
        birch = Birch(BirchConfig(n_clusters=3))
        birch.partial_fit(points)
        archive = tmp_path / "tree.npz"
        save_tree(archive, birch.tree)
        code = main(["inspect", str(archive), "--max-depth", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tree archive" in out
        assert "threshold T =" in out

    def test_inspect_missing_file_exits_4(self, tmp_path, capsys):
        from repro.cli import EXIT_ARCHIVE

        code = main(["inspect", str(tmp_path / "no-such.bin")])
        assert code == EXIT_ARCHIVE
        assert "error:" in capsys.readouterr().err

    def test_inspect_garbage_file_exits_4(self, tmp_path, capsys):
        from repro.cli import EXIT_ARCHIVE

        junk = tmp_path / "junk.bin"
        junk.write_bytes(b"definitely not an archive of any kind")
        code = main(["inspect", str(junk)])
        assert code == EXIT_ARCHIVE
        assert "error:" in capsys.readouterr().err

    def test_inspect_result_archive(self, csv_points, tmp_path, capsys):
        archive = tmp_path / "out.bin"
        assert main(
            ["cluster", str(csv_points), "-k", "3", "--save-result", str(archive)]
        ) == 0
        assert f"result archive written to {archive}" in capsys.readouterr().out
        assert archive.exists()
        assert main(["inspect", str(archive)]) == 0
        out = capsys.readouterr().out
        assert f"result archive {archive}: 3 clusters, d=2, 180 points" in out
        assert "final T=" in out
        assert "rebuilds" in out

    def test_inspect_legacy_result_archive(self, csv_points, tmp_path, capsys):
        from tests.legacy_formats import npz_copy

        archive = tmp_path / "out.bin"
        main(["cluster", str(csv_points), "-k", "3", "--save-result", str(archive)])
        legacy = tmp_path / "legacy.npz"
        npz_copy(archive, legacy)
        capsys.readouterr()
        assert main(["inspect", str(legacy)]) == 0
        assert "3 clusters" in capsys.readouterr().out

    def test_inspect_cf_archive(self, tmp_path, rng, capsys):
        from repro.core.features import CF
        from repro.core.serialization import save_cfs

        archive = tmp_path / "summary.cfs"
        save_cfs(archive, [CF.from_points(rng.normal(size=(4, 3)))] * 5)
        assert main(["inspect", str(archive)]) == 0
        out = capsys.readouterr().out
        assert f"CF archive {archive}: 5 CF entries, d=3, 20 points" in out

    def test_inspect_flipped_result_byte_exits_5(
        self, csv_points, tmp_path, capsys
    ):
        from repro.cli import EXIT_CHECKSUM

        archive = tmp_path / "out.bin"
        main(["cluster", str(csv_points), "-k", "3", "--save-result", str(archive)])
        raw = bytearray(archive.read_bytes())
        raw[-1] ^= 0x01
        archive.write_bytes(bytes(raw))
        capsys.readouterr()
        assert main(["inspect", str(archive)]) == EXIT_CHECKSUM
        assert "integrity" in capsys.readouterr().err
