"""Evolving-stream robustness: CF decay, window forgetting, drift.

Decay and forgetting leave fractional mass in the tree, which its
``(n, mean, SSD)`` entries carry.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core.birch import Birch
from repro.core.checkpoint import load_checkpoint, write_checkpoint
from repro.core.config import BirchConfig
from repro.core.evolve import DriftMonitor, EpochBuckets
from repro.core.features import StableCF
from repro.errors import TransientIOError
from repro.pagestore.faults import FaultInjector

pytestmark = pytest.mark.evolve


def _batch(center, n=200, d=2, seed=0, std=0.3):
    rng = np.random.default_rng(seed)
    return rng.normal(center, std, (n, d))


class TestCFDecay:
    def test_decay_halves_weighted_mass_per_half_life(self):
        birch = Birch(BirchConfig(n_clusters=2, decay_half_life=2.0))
        birch.partial_fit(_batch((0.0, 0.0), n=400))
        tree = birch._tree
        before = float(tree.summary_cf().n)
        tree.advance_decay_clock(2)  # one half-life
        after = float(tree.summary_cf().n)
        assert after == pytest.approx(before / 2.0, rel=1e-9)

    def test_decay_preserves_centroids(self):
        # Decay scales every weight uniformly, so means — and therefore
        # the routing geometry — are invariant.
        birch = Birch(BirchConfig(n_clusters=2, decay_half_life=3.0))
        birch.partial_fit(_batch((5.0, -1.0), n=300))
        tree = birch._tree
        before = tree.summary_cf().centroid.copy()
        tree.advance_decay_clock(4)
        np.testing.assert_allclose(
            tree.summary_cf().centroid, before, rtol=0, atol=1e-12
        )

    def test_decay_requires_sequential_stream(self):
        with pytest.raises(ValueError, match="n_jobs"):
            BirchConfig(n_clusters=2, decay_half_life=1.0, n_jobs=4)

    def test_decay_run_conserves_raw_points(self):
        birch = Birch(BirchConfig(n_clusters=3, decay_half_life=2.0))
        for i in range(5):
            birch.partial_fit(_batch((i, i), seed=i))
        result = birch.finalize()
        ledger = result.accounting()
        assert result.conservation_ok
        assert ledger["clustered"] == ledger["fed"] == 1000
        assert ledger["forgotten"] == 0
        # Weighted mass has faded; the gap is reported separately.
        assert result.decayed_mass > 0
        birch.tree.check_invariants()


class TestWindowForgetting:
    def test_forget_before_balances_ledger(self):
        birch = Birch(BirchConfig(n_clusters=2, epoch_buckets=5))
        for i in range(5):
            birch.partial_fit(_batch((4.0 * i, 0.0), seed=i))
        stats = birch.forget_before(3)
        assert stats["buckets_retired"] == 3
        assert stats["forgotten_points"] > 0
        result = birch.finalize()
        ledger = result.accounting()
        assert result.conservation_ok
        assert ledger["forgotten"] == result.forgotten_points
        assert ledger["clustered"] + ledger["forgotten"] == ledger["fed"]

    def test_forget_before_removes_stale_territory(self):
        # Old cluster A, then new cluster B far away; forgetting A's
        # epochs must leave the model describing B.
        birch = Birch(BirchConfig(n_clusters=1, epoch_buckets=4))
        for i in range(2):
            birch.partial_fit(_batch((0.0, 0.0), seed=i))
        for i in range(2, 4):
            birch.partial_fit(_batch((50.0, 50.0), seed=i))
        birch.forget_before(2)
        result = birch.finalize()
        assert result.conservation_ok
        # Bucket deltas are bounded summaries, so the subtraction is
        # approximate — but the centroid must land decisively in B's
        # territory, not between the two.
        centroid = result.centroids[0]
        to_b = np.linalg.norm(centroid - np.array([50.0, 50.0]))
        to_a = np.linalg.norm(centroid)
        assert to_b < 10.0
        assert to_a > 4 * to_b

    def test_window_overflow_retires_oldest_bucket(self):
        birch = Birch(BirchConfig(n_clusters=2, epoch_buckets=2))
        for i in range(4):
            birch.partial_fit(_batch((3.0 * i, 0.0), seed=i))
        # Two buckets live, two evicted and retired automatically.
        assert birch.points_forgotten > 0
        assert birch._epoch_buckets.size == 2
        result = birch.finalize()
        assert result.conservation_ok
        birch.tree.check_invariants()

    def test_forget_requires_epoch_buckets(self):
        birch = Birch(BirchConfig(n_clusters=2))
        birch.partial_fit(_batch((0.0, 0.0)))
        with pytest.raises(ValueError, match="epoch_buckets"):
            birch.forget_before(1)

    def test_forget_with_decay_converts_weighted_to_raw(self):
        birch = Birch(
            BirchConfig(n_clusters=2, decay_half_life=2.0, epoch_buckets=6)
        )
        for i in range(4):
            birch.partial_fit(_batch((i, 0.0), seed=i))
        stats = birch.forget_before(2)
        # Raw points forgotten never exceed the raw mass the retired
        # buckets tagged, despite the decayed weights involved.
        assert 0 < stats["forgotten_points"] <= stats["requested_points"]
        result = birch.finalize()
        assert result.conservation_ok


class TestSubtractCF:
    def test_subtraction_never_exceeds_request(self):
        # A delta whose geometry matches no entry (far-off mean) must
        # fall back to pro-rata withdrawal, not whole-entry removal:
        # over-forgetting amplified through the decay factor is how a
        # single retirement can hollow out the tree.
        birch = Birch(BirchConfig(n_clusters=2, epoch_buckets=8))
        birch.partial_fit(_batch((0.0, 0.0), n=500))
        tree = birch.tree
        request = 50.0
        delta = StableCF(request, np.array([30.0, -30.0]), 1.0)
        stats = tree.subtract_cf(delta)
        assert stats["subtracted_n"] <= request + 1e-6
        tree.check_invariants()


class TestDriftDetection:
    def _run(self, policy, jump=True, **config):
        birch = Birch(
            BirchConfig(
                n_clusters=2,
                epoch_buckets=8,
                drift_policy=policy,
                drift_window=4,
                **config,
            )
        )
        for i in range(12):
            center = (40.0, 40.0) if (jump and i >= 8) else (0.0, 0.0)
            birch.partial_fit(_batch(center, seed=i))
        return birch, birch.finalize()

    def test_alarm_fires_on_centroid_jump(self):
        _, result = self._run("alarm")
        assert result.drift is not None
        assert result.drift["alarms"] >= 1
        assert "centroid_velocity" in result.drift["last_alarm_reasons"]

    def test_stationary_stream_stays_quiet(self):
        _, result = self._run("alarm", jump=False)
        assert result.drift is not None
        assert result.drift["alarms"] == 0

    def test_auto_decay_policy_ages_the_clock(self):
        birch, result = self._run("auto_decay", decay_half_life=3.0)
        assert result.drift["alarms"] >= 1
        # One extra clock tick per alarm on top of the per-epoch tick.
        assert birch.tree.decay_clock == birch.epoch + result.drift["alarms"]
        assert result.conservation_ok

    def test_recondense_policy_keeps_conservation(self):
        birch, result = self._run("recondense")
        assert result.drift["alarms"] >= 1
        assert result.conservation_ok
        birch.tree.check_invariants()

    def test_auto_decay_requires_half_life(self):
        with pytest.raises(ValueError, match="auto_decay"):
            BirchConfig(n_clusters=2, drift_policy="auto_decay")

    def test_monitor_state_roundtrip(self):
        monitor = DriftMonitor(window=4)
        rng = np.random.default_rng(0)
        for epoch in range(6):
            monitor.observe_epoch(epoch, rng.normal(size=2), epoch)
        clone = DriftMonitor(window=4)
        clone.load_state(monitor.state_dict())
        assert clone.state_dict() == monitor.state_dict()
        assert clone.summary() == monitor.summary()


class TestEpochBuckets:
    def test_record_and_retire(self):
        buckets = EpochBuckets(max_buckets=3, max_entries=4)
        rng = np.random.default_rng(1)
        for epoch in range(3):
            for _ in range(10):
                buckets.record(epoch, 1.0, rng.normal(size=2), 0.0)
        assert buckets.size == 3
        assert buckets.points == pytest.approx(30.0)
        retired = buckets.retire_before(2)
        assert [b.epoch for b in retired] == [0, 1]
        assert buckets.epochs() == [2]

    def test_clock_cannot_rewind(self):
        buckets = EpochBuckets(max_buckets=3, max_entries=4)
        buckets.record(5, 1.0, np.zeros(2), 0.0)
        with pytest.raises(ValueError, match="rewind"):
            buckets.record(4, 1.0, np.zeros(2), 0.0)

    def test_entry_cap_merges_not_drops(self):
        buckets = EpochBuckets(max_buckets=2, max_entries=3)
        rng = np.random.default_rng(2)
        for _ in range(20):
            buckets.record(0, 1.0, rng.normal(size=2), 0.0)
        (bucket,) = buckets.buckets
        assert bucket.size <= 3
        assert bucket.points == pytest.approx(20.0)

    def test_array_roundtrip(self):
        buckets = EpochBuckets(max_buckets=4, max_entries=8)
        rng = np.random.default_rng(3)
        for epoch in range(3):
            for _ in range(5):
                buckets.record(epoch, rng.uniform(0.5, 2.0), rng.normal(size=3), rng.uniform())
        arrays = buckets.to_arrays(3)
        clone = EpochBuckets.from_arrays(arrays, max_buckets=4, max_entries=8)
        assert clone.epochs() == buckets.epochs()
        assert clone.points == pytest.approx(buckets.points)
        for a, b in zip(clone.buckets, buckets.buckets):
            for (na, ma, sa), (nb, mb, sb) in zip(
                a.iter_deltas(), b.iter_deltas()
            ):
                assert na == nb and sa == sb
                np.testing.assert_array_equal(ma, mb)


def _evolve_stream(i: int) -> np.ndarray:
    rng = np.random.default_rng(100 + i)
    return rng.normal((i % 5, i % 5), 0.3, (120, 2))


def _evolve_config() -> BirchConfig:
    return BirchConfig(
        n_clusters=3,
        decay_half_life=3.0,
        epoch_buckets=4,
        drift_policy="alarm",
    )


class TestKillResumeAcrossForget:
    def test_resume_across_forget_boundary_is_bit_identical(
        self, tmp_path: Path
    ):
        ckpt = tmp_path / "evolve.ckpt"

        straight = Birch(_evolve_config())
        for i in range(8):
            straight.partial_fit(_evolve_stream(i))
            if i == 4:
                straight.forget_before(3)
                write_checkpoint(ckpt, straight)
        expected = straight.finalize()

        resumed = load_checkpoint(ckpt)
        assert resumed.epoch == 5
        assert resumed.tree.decay_clock == 5
        # Bucket state at the checkpoint: epochs 0-2 were retired by
        # the forget_before, leaving the 3..4 window live.
        assert resumed._epoch_buckets.epochs() == [3, 4]
        for i in range(5, 8):
            resumed.partial_fit(_evolve_stream(i))
        actual = resumed.finalize()

        np.testing.assert_array_equal(expected.centroids, actual.centroids)
        assert expected.accounting() == actual.accounting()
        assert expected.conservation_ok and actual.conservation_ok
        for a, b in zip(expected.subclusters, actual.subclusters):
            assert a.n == b.n
            np.testing.assert_array_equal(a.centroid, b.centroid)

    def test_periodic_checkpointing_never_perturbs_results(
        self, tmp_path: Path
    ):
        """Checkpoint cadence must not leak into the clustering output.

        Decay settles eagerly at every clock advance, so the snapshot's
        settle is a no-op and periodic archives are pure observation —
        a run writing a checkpoint every 150 points is bit-identical to
        one writing none.  (Regression: the snapshot used to settle
        pending lazy decay on the live tree, so *when* checkpoints
        fired chunked the decay factors differently and shifted results
        at the last bit.)
        """
        plain = Birch(_evolve_config())
        observed_cfg = _evolve_config()
        observed_cfg.checkpoint_path = str(tmp_path / "periodic.ckpt")
        observed_cfg.checkpoint_every_points = 150
        observed = Birch(observed_cfg)
        for i in range(8):
            plain.partial_fit(_evolve_stream(i))
            observed.partial_fit(_evolve_stream(i))
            if i == 4:
                plain.forget_before(3)
                observed.forget_before(3)
        expected, actual = plain.finalize(), observed.finalize()
        np.testing.assert_array_equal(expected.centroids, actual.centroids)
        assert expected.accounting() == actual.accounting()
        assert plain.tree.threshold == observed.tree.threshold

    def test_checkpoint_write_faults_after_forget_are_survivable(
        self, tmp_path: Path
    ):
        ckpt = tmp_path / "faulty.ckpt"
        birch = Birch(_evolve_config())
        for i in range(5):
            birch.partial_fit(_evolve_stream(i))
        birch.forget_before(3)

        # A transient fault on every write fails a 1-attempt call...
        with pytest.raises(TransientIOError):
            write_checkpoint(
                ckpt,
                birch,
                injector=FaultInjector(fail_every=1),
                attempts=1,
                sleep=lambda _: None,
            )
        assert not ckpt.exists()

        # ...and heals under retry; the resumed state matches exactly.
        injector = FaultInjector(fail_every=1, max_faults=1)
        write_checkpoint(
            ckpt, birch, injector=injector, attempts=4, sleep=lambda _: None
        )
        assert injector.faults_injected == 1
        resumed = load_checkpoint(ckpt)
        assert resumed.epoch == birch.epoch
        assert resumed.points_forgotten == birch.points_forgotten
        np.testing.assert_array_equal(
            resumed.tree.summary_cf().centroid,
            birch.tree.summary_cf().centroid,
        )
