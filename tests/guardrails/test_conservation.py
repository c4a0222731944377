"""The conservation identity: clustered + outliers + quarantined + dropped
== fed, across bad-point policies, fault injection and
checkpoint/resume."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core.birch import Birch
from repro.core.config import BirchConfig
from repro.errors import InvalidPointError
from repro.pagestore.faults import FaultInjector
from tests.legacy_formats import rewrite_as_classic_checkpoint

pytestmark = pytest.mark.guardrails

#: Trees store (n, mean, SSD); the parameter keeps the case ids.
BACKENDS = ["stable"]
#: "classic": the checkpoint is rewritten as a classic fit wrote it.
CHECKPOINT_KINDS = ["classic", "stable"]
_N = 1200


def _dirty_rows(n: int = _N, d: int = 3) -> list[list[float]]:
    """A ragged stream exercising every rejection reason."""
    rng = np.random.default_rng(99)
    centers = rng.uniform(0.0, 25.0, size=(4, d))
    rows = [
        list(rng.normal(centers[i % 4], 0.6, size=d)) for i in range(n)
    ]
    rows[10] = [np.nan] * d
    rows[11] = [np.inf, 0.0, 0.0]
    rows[400] = [1.0, 2.0]  # dimension mismatch
    rows[401] = ["not", "a", "point"]  # non-castable
    rows[999] = [0.0, -np.inf, 0.0]
    return rows


def _config(**overrides) -> BirchConfig:
    defaults = dict(
        n_clusters=4,
        memory_bytes=10 * 1024,
        total_points_hint=_N,
        phase4_passes=0,
    )
    defaults.update(overrides)
    return BirchConfig(**defaults)


def _no_sleep(_delay: float) -> None:
    pass


def _assert_conserved(result, fed: int) -> None:
    ledger = result.accounting()
    assert ledger["fed"] == fed
    assert (
        ledger["clustered"]
        + ledger["outliers"]
        + ledger["quarantined"]
        + ledger["dropped"]
        == fed
    ), ledger
    assert result.conservation_ok


class TestPolicies:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_clean_run_ledger_balances(self, backend, blob_points):
        result = Birch(
            BirchConfig(n_clusters=3)
        ).fit(blob_points)
        _assert_conserved(result, blob_points.shape[0])
        assert result.quarantined_points == 0
        assert result.invalid_dropped_points == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_skip_policy_drops_are_exact(self, backend):
        config = _config(bad_point_policy="skip")
        result = Birch(config).fit(_dirty_rows())
        _assert_conserved(result, _N)
        assert result.invalid_dropped_points == 5
        assert result.quarantined_points == 0
        assert result.invalid_by_reason == {
            "nan": 1, "inf": 2, "dimension": 1, "non_numeric": 1,
        }

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_quarantine_policy_captures_instead_of_dropping(self, backend):
        config = _config(bad_point_policy="quarantine")
        result = Birch(config).fit(_dirty_rows())
        _assert_conserved(result, _N)
        assert result.quarantined_points == 5
        assert result.invalid_dropped_points == 0
        assert result.quarantined_by_reason == {
            "nan": 1, "inf": 2, "dimension": 1, "non_numeric": 1,
        }

    def test_weighted_stream_conserves_point_units(self):
        rng = np.random.default_rng(3)
        points = rng.normal(0.0, 10.0, (200, 2))
        points[7, 0] = np.nan
        weights = rng.integers(1, 6, size=200)
        est = Birch(_config(bad_point_policy="skip", n_clusters=2))
        est.partial_fit(points, weights=weights)
        result = est.finalize()
        _assert_conserved(result, int(weights.sum()))
        assert result.invalid_dropped_points == int(weights[7])


class TestRepeatedResolution:
    """End-of-scan outlier resolution is idempotent: it drains the outlier
    disk, so a second ``_finish_phase1`` used to find it empty and report
    no outliers, unbalancing the ledger."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fit_then_finalize(self, backend):
        estimator = Birch(_config(bad_point_policy="skip"))
        fitted = estimator.fit(_dirty_rows())
        assert fitted.accounting()["outliers"] > 0
        finalized = estimator.finalize()
        _assert_conserved(finalized, _N)
        assert finalized.accounting() == fitted.accounting()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_finalize_then_finalize(self, backend):
        estimator = Birch(_config(bad_point_policy="skip"))
        estimator.partial_fit(_dirty_rows())
        first = estimator.finalize()
        assert first.accounting()["outliers"] > 0
        second = estimator.finalize()
        _assert_conserved(second, _N)
        assert second.accounting() == first.accounting()
        assert np.array_equal(second.centroids, first.centroids)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_more_data_after_finalize(self, backend):
        """Resolved outliers return to the disk when the scan reopens."""
        rows = _dirty_rows()
        estimator = Birch(_config(bad_point_policy="skip"))
        estimator.partial_fit(rows[:1000])
        assert estimator.finalize().accounting()["outliers"] > 0
        estimator.partial_fit(rows[1000:])
        _assert_conserved(estimator.finalize(), _N)

    @pytest.mark.parametrize("backend", CHECKPOINT_KINDS)
    def test_checkpoint_after_finalize(self, tmp_path: Path, backend):
        estimator = Birch(_config(bad_point_policy="skip"))
        estimator.partial_fit(_dirty_rows())
        assert estimator.finalize().accounting()["outliers"] > 0
        ckpt = tmp_path / "finished.ckpt"
        estimator.checkpoint(ckpt)
        if backend == "classic":
            rewrite_as_classic_checkpoint(ckpt)
        _assert_conserved(Birch.resume(ckpt).finalize(), _N)


class TestImproveScreening:
    """``improve`` screens its re-scan like ``fit``; one NaN row used to
    turn a refined centroid into NaN."""

    def test_raise_policy_rejects_a_bad_rescan(self):
        clean = np.random.default_rng(5).normal(0.0, 4.0, (400, 3))
        estimator = Birch(_config(phase4_passes=1))
        before = estimator.fit(clean)
        poisoned = clean.copy()
        poisoned[3, 0] = np.nan
        with pytest.raises(InvalidPointError) as info:
            estimator.improve(poisoned)
        assert (info.value.row, info.value.reason) == (3, "nan")
        assert estimator.result is before

    @pytest.mark.parametrize("policy", ["skip", "quarantine"])
    def test_bad_rows_left_out_and_ledger_unchanged(self, policy):
        estimator = Birch(_config(bad_point_policy=policy, phase4_passes=1))
        before = estimator.fit(_dirty_rows())
        after = estimator.improve(_dirty_rows(), passes=2)
        assert np.isfinite(after.centroids).all()
        assert after.labels.shape == (_N - 5,)
        assert after.accounting() == before.accounting()
        _assert_conserved(after, _N)


class TestQuarantineFaults:
    def _run(self, injector: FaultInjector):
        est = Birch(
            _config(bad_point_policy="quarantine"),
            quarantine_injector=injector,
            sleep=_no_sleep,
        )
        return est.fit(_dirty_rows())

    def test_transient_quarantine_faults_heal(self):
        injector = FaultInjector(kind="transient", fail_every=2)
        result = self._run(injector)
        _assert_conserved(result, _N)
        assert result.quarantined_points == 5
        assert injector.faults_injected > 0

    def test_permanent_quarantine_fault_still_balances(self, fault_seed):
        injector = FaultInjector(
            kind="permanent",
            fail_probability=0.5,
            seed=fault_seed,
        )
        result = self._run(injector)
        # Records lost to the dead device move from "quarantined" to
        # "dropped"; the identity must survive regardless of the seed.
        _assert_conserved(result, _N)
        assert result.quarantined_points + result.invalid_dropped_points == 5

    def test_outlier_disk_drop_policy_composes_with_quarantine(self):
        injector = FaultInjector(kind="permanent", fail_every=4)
        est = Birch(
            _config(
                bad_point_policy="quarantine",
                outlier_fault_policy="drop",
            ),
            outlier_injector=injector,
            sleep=_no_sleep,
        )
        result = est.fit(_dirty_rows())
        assert result.outlier_disk_degraded
        assert result.dropped_outlier_points > 0
        _assert_conserved(result, _N)


class TestCheckpointResume:
    @pytest.mark.parametrize("backend", CHECKPOINT_KINDS)
    def test_mid_stream_resume_preserves_ledger(
        self, tmp_path: Path, backend: str
    ) -> None:
        rows = _dirty_rows()
        config = _config(bad_point_policy="quarantine")

        baseline = Birch(_config(bad_point_policy="quarantine"))
        baseline.partial_fit(rows)
        expected = baseline.finalize()

        interrupted = Birch(config)
        interrupted.partial_fit(rows[:500])  # includes rows 10/11/400/401
        ckpt = tmp_path / "guard.ckpt"
        interrupted.checkpoint(ckpt)
        del interrupted  # the "crash"
        if backend == "classic":
            rewrite_as_classic_checkpoint(ckpt)

        resumed = Birch.resume(ckpt)
        resumed.partial_fit(rows[500:])
        actual = resumed.finalize()

        _assert_conserved(actual, _N)
        if backend == "stable":
            assert actual.accounting() == expected.accounting()
        assert actual.quarantined_by_reason == expected.quarantined_by_reason
        assert actual.invalid_by_reason == expected.invalid_by_reason

    def test_quarantine_records_survive_resume(self, tmp_path: Path) -> None:
        rows = _dirty_rows()
        est = Birch(_config(bad_point_policy="quarantine"))
        est.partial_fit(rows[:500])
        ckpt = tmp_path / "guard.ckpt"
        est.checkpoint(ckpt)

        resumed = Birch.resume(ckpt)
        records = list(resumed._ensure_quarantine().records())
        assert [r.row for r in records] == [10, 11, 400, 401]
        assert records[0].reason == "nan"
        assert records[2].reason == "dimension"
        assert records[3].values is None  # non-castable rows keep no values

    def test_resume_under_continued_faults(
        self, tmp_path: Path, fault_seed: int
    ) -> None:
        rows = _dirty_rows()
        injector = FaultInjector(
            kind="permanent",
            fail_probability=0.4,
            seed=fault_seed,
        )
        est = Birch(
            _config(bad_point_policy="quarantine"),
            quarantine_injector=injector,
            sleep=_no_sleep,
        )
        est.partial_fit(rows[:600])
        ckpt = tmp_path / "guard.ckpt"
        est.checkpoint(ckpt)

        fresh_injector = FaultInjector(
            kind="permanent",
            fail_probability=0.4,
            seed=fault_seed + 1,
        )
        resumed = Birch.resume(
            ckpt, quarantine_injector=fresh_injector, sleep=_no_sleep
        )
        resumed.partial_fit(rows[600:])
        result = resumed.finalize()
        _assert_conserved(result, _N)
        assert result.quarantined_points + result.invalid_dropped_points == 5

    def test_pre_guardrails_checkpoints_still_load(
        self, tmp_path: Path
    ) -> None:
        """Checkpoints written without the guardrails block resume with
        zeroed accounting instead of failing."""
        from tests.legacy_formats import birchckp_bytes, checkpoint_state

        points = np.random.default_rng(1).normal(0, 5, (300, 2))
        est = Birch(_config(n_clusters=2))
        est.partial_fit(points)
        ckpt = tmp_path / "old.ckpt"
        est.checkpoint(ckpt)

        # Strip the guardrails metadata to mimic an old-format file.
        meta, arrays = checkpoint_state(ckpt)
        assert meta.pop("guardrails", None) is not None
        ckpt.write_bytes(birchckp_bytes(meta, arrays, 2))

        resumed = Birch.resume(ckpt)
        assert resumed.points_seen == 300
        resumed.partial_fit(points)
        result = resumed.finalize()
        # Accounting restarts at zero for the rows fed before the
        # old-format snapshot; only the post-resume rows are counted.
        assert result.points_fed == 300
