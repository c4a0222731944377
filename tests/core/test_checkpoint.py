"""Checkpoint container integrity and kill/resume equivalence."""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path

import numpy as np
import pytest

from repro.core.birch import Birch, BirchResult
from repro.core.checkpoint import (
    CHECKPOINT_VERSION,
    load_checkpoint,
    write_checkpoint,
)
from repro.core.config import BirchConfig
from repro.datagen.presets import ds1o
from repro.errors import (
    ArchiveError,
    ChecksumMismatchError,
    NotFittedError,
    PermanentIOError,
    TransientIOError,
)
from repro.evaluation.labels import adjusted_rand_index
from repro.pagestore.faults import FaultInjector
from repro.serve.kernel import nearest_centroids
from tests.legacy_formats import (
    checkpoint_state,
    rewrite_as_classic_checkpoint,
    v1_checkpoint_bytes,
)


def _stream(n: int = 1200, d: int = 2) -> np.ndarray:
    rng = np.random.default_rng(42)
    centers = rng.uniform(0.0, 20.0, size=(6, d))
    return np.concatenate(
        [rng.normal(c, 0.4, size=(n // 6, d)) for c in centers]
    )


def _config(**overrides) -> BirchConfig:
    defaults = dict(
        n_clusters=6,
        memory_bytes=12 * 1024,
        total_points_hint=1200,
    )
    defaults.update(overrides)
    return BirchConfig(**defaults)


def _assert_results_identical(a: BirchResult, b: BirchResult) -> None:
    np.testing.assert_array_equal(a.centroids, b.centroids)
    np.testing.assert_array_equal(a.entry_labels, b.entry_labels)
    assert a.final_threshold == b.final_threshold
    assert a.rebuilds == b.rebuilds
    assert a.tree_stats == b.tree_stats
    assert len(a.outliers) == len(b.outliers)
    for x, y in zip(a.outliers, b.outliers):
        assert x.n == y.n
        np.testing.assert_array_equal(x.centroid, y.centroid)


def _assert_continuation(
    expected: BirchResult, actual: BirchResult, backend: str, points
) -> None:
    """A stable checkpoint continues bit for bit.  A classic one stores
    (N, LS, SS) rows that convert on read, a few ulps from the stable
    ones, so its continuation is pinned on quality: the stream labelled
    by either run's centroids."""
    if backend == "stable":
        _assert_results_identical(expected, actual)
        return
    assert actual.conservation_ok
    assert actual.tree_stats["points"] == expected.tree_stats["points"]
    labels = [nearest_centroids(points, r.centroids) for r in (actual, expected)]
    assert adjusted_rand_index(*labels) >= 0.999


class TestKillResumeEquivalence:
    """The acceptance criterion: resumed == uninterrupted, bit for bit."""

    # "classic": the checkpoint is rewritten as a classic fit wrote it.
    @pytest.mark.parametrize("backend", ["classic", "stable"])
    @pytest.mark.parametrize("cut", [1, 17, 300, 600, 1199])
    def test_resume_matches_uninterrupted(
        self, tmp_path: Path, backend: str, cut: int
    ) -> None:
        points = _stream()

        baseline = Birch(_config())
        baseline.partial_fit(points)
        expected = baseline.finalize()

        interrupted = Birch(_config())
        interrupted.partial_fit(points[:cut])
        ckpt = tmp_path / "phase1.ckpt"
        interrupted.checkpoint(ckpt)
        del interrupted  # the "crash"
        if backend == "classic":
            rewrite_as_classic_checkpoint(ckpt)

        resumed = Birch.resume(ckpt)
        assert resumed.points_seen == cut
        resumed.partial_fit(points[cut:])
        actual = resumed.finalize()

        _assert_continuation(expected, actual, backend, points)

    @pytest.mark.parametrize("backend", ["classic", "stable"])
    def test_resume_with_delay_split(self, tmp_path: Path, backend: str) -> None:
        points = _stream()
        config = _config(delay_split=True)

        baseline = Birch(config)
        baseline.partial_fit(points)
        expected = baseline.finalize()

        interrupted = Birch(config)
        interrupted.partial_fit(points[:700])
        ckpt = tmp_path / "phase1.ckpt"
        interrupted.checkpoint(ckpt)
        if backend == "classic":
            rewrite_as_classic_checkpoint(ckpt)
        resumed = Birch.resume(ckpt)
        resumed.partial_fit(points[700:])
        _assert_continuation(expected, resumed.finalize(), backend, points)

    def test_resume_restores_stream_accounting(self, tmp_path: Path) -> None:
        points = _stream()
        est = Birch(_config())
        est.partial_fit(points[:800])
        ckpt = tmp_path / "phase1.ckpt"
        est.checkpoint(ckpt)

        resumed = Birch.resume(ckpt)
        assert resumed.points_seen == est.points_seen
        assert resumed.rebuilds == est.rebuilds
        assert resumed.rebuild_history == est.rebuild_history
        assert resumed.stats.summary() == est.stats.summary()
        assert resumed.tree.threshold == est.tree.threshold
        assert resumed.config == est.config

    def test_checkpoint_before_any_data_raises(self, tmp_path: Path) -> None:
        est = Birch(_config())
        with pytest.raises(NotFittedError):
            est.checkpoint(tmp_path / "nothing.ckpt")


class TestResumedTimings:
    """A resumed stream's Phase 1 time covers the scan before the
    checkpoint too."""

    def test_resumed_ingest_includes_time_before_checkpoint(
        self, tmp_path: Path
    ) -> None:
        points = ds1o(scale=0.03, seed=2).points
        ckpt = tmp_path / "ds1o.ckpt"
        streamer = Birch(
            BirchConfig(
                n_clusters=100,
                checkpoint_every_points=2_000,
                checkpoint_path=str(ckpt),
            )
        )
        # One batch that "dies" past the checkpoint: the checkpoint is
        # written mid-batch and carries that batch's ingest so far.
        streamer.partial_fit(points[:2_500])
        ingest, rebuilds = checkpoint_state(ckpt)[1]["phase1_seconds"].tolist()
        assert ingest > 0.0
        assert rebuilds <= streamer._rebuild_seconds

        resumed = Birch.resume(ckpt)
        assert resumed.points_seen == 2_000
        assert (resumed._ingest_seconds, resumed._rebuild_seconds) == (
            ingest,
            rebuilds,
        )
        resumed.partial_fit(points[2_000:])
        timings = resumed.finalize().timings
        assert timings.phase1_ingest >= ingest
        assert timings.phase1_rebuilds >= rebuilds
        assert timings.phase1 >= ingest + rebuilds


class TestAutomaticCheckpoints:
    def test_periodic_checkpoints_are_written(self, tmp_path: Path) -> None:
        ckpt = tmp_path / "auto.ckpt"
        config = _config(
            checkpoint_every_points=400,
            checkpoint_path=str(ckpt),
        )
        points = _stream()
        est = Birch(config)
        est.partial_fit(points[:300])
        assert not ckpt.exists()  # below the first trigger
        est.partial_fit(points[300:500])
        assert ckpt.exists()

        resumed = Birch.resume(ckpt)
        assert resumed.points_seen == 400

    def test_auto_checkpoint_then_resume_matches(self, tmp_path: Path) -> None:
        ckpt = tmp_path / "auto.ckpt"
        points = _stream()

        baseline = Birch(_config())
        baseline.partial_fit(points)
        expected = baseline.finalize()

        config = _config(
            checkpoint_every_points=500,
            checkpoint_path=str(ckpt),
        )
        streamer = Birch(config)
        streamer.partial_fit(points[:740])  # dies at point 740

        resumed = Birch.resume(ckpt)
        assert resumed.points_seen == 500  # the last periodic snapshot
        resumed.config.checkpoint_every_points = None  # plain finish
        resumed.partial_fit(points[500:])
        _assert_results_identical(expected, resumed.finalize())

    def test_config_requires_path_with_period(self) -> None:
        with pytest.raises(ValueError, match="checkpoint_path"):
            BirchConfig(n_clusters=2, checkpoint_every_points=100)


class TestContainerIntegrity:
    def _checkpoint_bytes(self, tmp_path: Path) -> tuple[Path, bytes]:
        est = Birch(_config())
        est.partial_fit(_stream()[:400])
        ckpt = tmp_path / "c.ckpt"
        est.checkpoint(ckpt)
        return ckpt, ckpt.read_bytes()

    def test_every_protected_byte_is_covered(self, tmp_path: Path) -> None:
        ckpt, raw = self._checkpoint_bytes(tmp_path)
        # Sample the version field, the digest itself, the length field
        # and payload bytes from start, middle and end.
        offsets = [8, 11, 12, 43, 44, 51, 52, len(raw) // 2, len(raw) - 1]
        for offset in offsets:
            corrupt = bytearray(raw)
            corrupt[offset] ^= 0x01
            ckpt.write_bytes(bytes(corrupt))
            with pytest.raises(ChecksumMismatchError):
                load_checkpoint(ckpt)

    def test_flipped_magic_is_an_archive_error(self, tmp_path: Path) -> None:
        ckpt, raw = self._checkpoint_bytes(tmp_path)
        for offset in (0, 7):
            corrupt = bytearray(raw)
            corrupt[offset] ^= 0x01
            ckpt.write_bytes(bytes(corrupt))
            with pytest.raises(ArchiveError, match="magic"):
                load_checkpoint(ckpt)

    def test_truncation_is_loud(self, tmp_path: Path) -> None:
        ckpt, raw = self._checkpoint_bytes(tmp_path)
        for keep in (0, 10, 51, len(raw) - 1):
            ckpt.write_bytes(raw[:keep])
            with pytest.raises((ArchiveError, ChecksumMismatchError)):
                load_checkpoint(ckpt)

    def test_unknown_version_is_an_archive_error(self, tmp_path: Path) -> None:
        ckpt, raw = self._checkpoint_bytes(tmp_path)
        payload = raw[52:]
        version = struct.pack("<I", CHECKPOINT_VERSION + 1)
        length = struct.pack("<Q", len(payload))
        digest = hashlib.sha256(version + length + payload).digest()
        ckpt.write_bytes(b"BIRCHCKP" + version + digest + length + payload)
        with pytest.raises(ArchiveError, match="version"):
            load_checkpoint(ckpt)

    def test_missing_file_is_an_archive_error(self, tmp_path: Path) -> None:
        with pytest.raises(ArchiveError, match="exist"):
            load_checkpoint(tmp_path / "never-written.ckpt")

    def test_checksum_error_is_a_value_error(self, tmp_path: Path) -> None:
        ckpt, raw = self._checkpoint_bytes(tmp_path)
        corrupt = bytearray(raw)
        corrupt[-1] ^= 0xFF
        ckpt.write_bytes(bytes(corrupt))
        with pytest.raises(ValueError):
            load_checkpoint(ckpt)


class TestAtomicity:
    def test_failed_write_preserves_previous_checkpoint(
        self, tmp_path: Path
    ) -> None:
        points = _stream()
        est = Birch(_config())
        est.partial_fit(points[:400])
        ckpt = tmp_path / "c.ckpt"
        est.checkpoint(ckpt)
        good = ckpt.read_bytes()

        est.partial_fit(points[400:800])
        injector = FaultInjector(kind="permanent", fail_every=1)
        with pytest.raises(PermanentIOError):
            write_checkpoint(ckpt, est, injector=injector)
        assert ckpt.read_bytes() == good
        assert not ckpt.with_name(ckpt.name + ".tmp").exists()

        resumed = Birch.resume(ckpt)
        assert resumed.points_seen == 400

    def test_transient_write_faults_heal(self, tmp_path: Path) -> None:
        est = Birch(_config())
        est.partial_fit(_stream()[:400])
        ckpt = tmp_path / "c.ckpt"
        naps: list[float] = []
        injector = FaultInjector(fail_every=1, max_faults=1)
        write_checkpoint(
            ckpt, est, injector=injector, attempts=4, sleep=naps.append
        )
        assert injector.faults_injected == 1
        assert naps  # at least one backoff happened
        resumed = Birch.resume(ckpt)
        assert resumed.points_seen == 400

    def test_unhealed_transient_write_propagates(self, tmp_path: Path) -> None:
        est = Birch(_config())
        est.partial_fit(_stream()[:400])
        ckpt = tmp_path / "c.ckpt"
        injector = FaultInjector(fail_every=1)
        with pytest.raises(TransientIOError):
            write_checkpoint(
                ckpt, est, injector=injector, attempts=3, sleep=lambda _: None
            )
        assert not ckpt.exists()
        assert not ckpt.with_name(ckpt.name + ".tmp").exists()


@pytest.mark.evolve
class TestEvolveArchiveCompat:
    """Archive minor version 2: evolve state rides along; v1 still loads."""

    def _evolve_config(self) -> BirchConfig:
        return BirchConfig(
            n_clusters=3,
            decay_half_life=3.0,
            epoch_buckets=4,
            drift_policy="alarm",
        )

    def _stream_epoch(self, i: int) -> np.ndarray:
        rng = np.random.default_rng(100 + i)
        return rng.normal((i % 5, i % 5), 0.3, (120, 2))

    def test_v1_archive_loads_with_zeroed_evolve_state(
        self, tmp_path: Path
    ) -> None:
        # A genuine version-1 BIRCHCKP file: the state of a plain
        # (non-evolving) run without the evolve payload the old writer
        # never produced.
        est = Birch(_config())
        est.partial_fit(_stream()[:400])
        ckpt = tmp_path / "v1.ckpt"
        est.checkpoint(ckpt)
        assert "evolve" in checkpoint_state(ckpt)[0]
        ckpt.write_bytes(v1_checkpoint_bytes(ckpt))

        resumed = load_checkpoint(ckpt)
        assert resumed.epoch == 0
        assert resumed.points_forgotten == 0
        assert resumed.tree.decay_clock == 0
        assert resumed._epoch_buckets is None
        # It carries no Phase 1 seconds; the resumed stream starts at 0.
        assert (resumed._ingest_seconds, resumed._rebuild_seconds) == (0.0, 0.0)
        # The tree itself is intact.
        assert resumed.points_seen == 400
        resumed.tree.check_invariants()

    def test_v2_round_trips_epoch_buckets_bit_for_bit(
        self, tmp_path: Path
    ) -> None:
        est = Birch(self._evolve_config())
        for i in range(6):
            est.partial_fit(self._stream_epoch(i))
        ckpt = tmp_path / "v2.ckpt"
        write_checkpoint(ckpt, est)

        resumed = load_checkpoint(ckpt)
        assert resumed.epoch == est.epoch
        assert resumed.tree.decay_clock == est.tree.decay_clock
        assert resumed.points_forgotten == est.points_forgotten
        original = est._epoch_buckets
        clone = resumed._epoch_buckets
        assert clone.epochs() == original.epochs()
        assert clone.max_buckets == original.max_buckets
        assert clone.max_entries == original.max_entries
        for a, b in zip(clone.buckets, original.buckets):
            assert a.epoch == b.epoch
            for (na, ma, sa), (nb, mb, sb) in zip(
                a.iter_deltas(), b.iter_deltas()
            ):
                assert na == nb and sa == sb
                np.testing.assert_array_equal(ma, mb)
        # Drift monitor state survives byte-for-byte too.
        assert (
            resumed._drift_monitor.state_dict()
            == est._drift_monitor.state_dict()
        )

    def test_both_versions_are_supported(self) -> None:
        from repro.core.checkpoint import _SUPPORTED_VERSIONS

        assert CHECKPOINT_VERSION == 2
        assert _SUPPORTED_VERSIONS == frozenset({1, 2})
