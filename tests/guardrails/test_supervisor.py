"""Tests for :func:`run_supervised`: budgets, fallbacks, byte-identity."""

import numpy as np
import pytest

from repro.core import Birch, BirchConfig
from repro.core.global_clustering import agglomerative_cf
from repro.core.refinement import refine
from repro.errors import PhaseTimeoutError
from repro.guardrails import PhaseBudgets, run_supervised

pytestmark = pytest.mark.guardrails


class TestByteIdentity:
    """Acceptance: clean input + no budget trips == plain ``fit``."""

    @pytest.mark.parametrize("backend", ["stable"])  # keeps the case ids
    def test_unbudgeted_supervised_equals_fit(self, blob_points, backend):
        config = BirchConfig(n_clusters=3)
        plain = Birch(BirchConfig(n_clusters=3)).fit(
            blob_points
        )
        run = run_supervised(blob_points, config)
        assert run.report.status == "ok"
        supervised = run.result
        assert supervised.centroids.tobytes() == plain.centroids.tobytes()
        assert np.array_equal(supervised.labels, plain.labels)
        assert np.array_equal(supervised.entry_labels, plain.entry_labels)
        assert supervised.final_threshold == plain.final_threshold
        assert supervised.accounting() == plain.accounting()

    def test_generous_budgets_also_identical(self, blob_points):
        plain = Birch(BirchConfig(n_clusters=3)).fit(blob_points)
        run = run_supervised(
            blob_points,
            BirchConfig(n_clusters=3),
            PhaseBudgets(
                phase2_seconds=60.0,
                phase3_seconds=60.0,
                phase4_seconds=60.0,
            ),
        )
        assert run.report.status == "ok"
        assert run.result.centroids.tobytes() == plain.centroids.tobytes()
        assert np.array_equal(run.result.labels, plain.labels)


class TestPhase3Fallback:
    def test_deadline_raises_timeout_in_kernel(self, blob_points):
        from repro.core.features import CF

        entries = [CF.from_point(p) for p in blob_points]
        with pytest.raises(PhaseTimeoutError, match="deadline"):
            agglomerative_cf(entries, n_clusters=3, deadline=0.0)

    def test_supervisor_falls_back_to_kmeans(self, blob_points):
        run = run_supervised(
            blob_points,
            BirchConfig(n_clusters=3),
            PhaseBudgets(phase3_seconds=1e-9),
        )
        outcome = run.report.phase("phase3")
        assert outcome.status == "fallback"
        assert "CF-k-means" in outcome.notes[0]
        assert run.result is not None
        assert run.result.n_clusters == 3
        assert run.report.status in ("fallback", "degraded")
        assert run.result.conservation_ok

    def test_untimed_phase3_has_no_deadline_overhead_path(self, blob_points):
        # deadline=None must leave results identical (covered by
        # byte-identity) and never raise.
        run = run_supervised(blob_points, BirchConfig(n_clusters=3))
        assert run.report.phase("phase3").status == "ok"


class TestPhase4Budgets:
    def test_deadline_hits_between_passes_reported_not_raised(self, blob_points):
        centroids = np.array([[0.0, 0.0], [10.0, 0.0], [5.0, 9.0]])
        result = refine(blob_points, centroids, passes=5, deadline=0.0)
        assert result.deadline_hit
        assert result.passes_run == 0
        assert result.labels.shape == (blob_points.shape[0],)

    def test_supervisor_degrades_on_phase4_deadline(self, blob_points):
        run = run_supervised(
            blob_points,
            BirchConfig(n_clusters=3, phase4_passes=5),
            PhaseBudgets(phase4_seconds=1e-9),
        )
        outcome = run.report.phase("phase4")
        assert outcome.status == "degraded"
        assert run.result is not None
        assert run.result.labels is not None

    def test_max_passes_caps_refinement(self, blob_points):
        run = run_supervised(
            blob_points,
            BirchConfig(n_clusters=3, phase4_passes=10),
            PhaseBudgets(phase4_max_passes=1),
        )
        assert run.result.refinement.passes_run <= 1

    def test_zero_max_passes_skips_phase4(self, blob_points):
        run = run_supervised(
            blob_points,
            BirchConfig(n_clusters=3, phase4_passes=3),
            PhaseBudgets(phase4_max_passes=0),
        )
        assert run.result.refinement is None
        assert run.result.labels is None


class TestPhase1Budget:
    def test_scan_deadline_truncates_with_accounting(self, rng):
        points = rng.normal(0, 1.0, (5000, 2))
        run = run_supervised(
            points,
            BirchConfig(n_clusters=2),
            PhaseBudgets(phase1_seconds=1e-9),
        )
        assert run.report.phase("phase1").status == "degraded"
        assert run.report.rows_not_fed > 0
        assert run.result is not None
        # Conservation holds over the rows that were actually fed.
        assert run.result.conservation_ok
        assert run.result.points_fed == 5000 - run.report.rows_not_fed


class TestFailedRuns:
    def test_all_rows_invalid_fails_phase1_with_report(self):
        points = np.full((10, 2), np.nan)
        run = run_supervised(
            points, BirchConfig(n_clusters=2, bad_point_policy="skip")
        )
        assert run.result is None
        assert run.report.status == "failed"
        outcome = run.report.phase("phase1")
        assert outcome.status == "failed"
        assert "rejected every" in outcome.error
        assert run.report.invalid_dropped_points == 10

    def test_raise_policy_failure_is_reported_not_raised(self, blob_points):
        poisoned = blob_points.copy()
        poisoned[3, 0] = np.nan
        run = run_supervised(poisoned, BirchConfig(n_clusters=3))
        assert run.result is None
        assert run.report.phase("phase1").status == "failed"
        assert "row 3" in run.report.phase("phase1").error


class TestRunReport:
    def test_acceptance_scenario_degraded_with_exact_accounting(self, rng):
        """NaN rows + a dimension-mismatched row + tight memory =>
        the run completes, reports ``degraded``, and conserves points."""
        rows = [list(r) for r in rng.normal(0.0, 30.0, (800, 4))]
        rows[5] = [np.nan, 0.0, 0.0, 0.0]
        rows[17] = [0.0, np.nan, 0.0, 0.0]
        rows[99] = [1.0, 2.0]  # wrong dimensionality
        config = BirchConfig(
            n_clusters=3,
            bad_point_policy="quarantine",
            memory_bytes=400,
            page_size=512,
            rebuild_escalation_limit=3,
            # Default capacity is 10% of M = 40 bytes (nothing fits);
            # give the quarantine its own budget so bad rows are kept.
            quarantine_bytes=4096,
        )
        run = run_supervised(rows, config)
        assert run.report.status == "degraded"
        result = run.result
        assert result is not None
        assert result.memory_degraded
        assert result.quarantined_points == 3
        assert result.quarantined_by_reason == {"nan": 2, "dimension": 1}
        assert result.conservation_ok
        ledger = result.accounting()
        assert ledger["fed"] == 800
        assert (
            ledger["clustered"] + ledger["outliers"]
            + ledger["quarantined"] + ledger["dropped"] == 800
        )

    def test_summary_mentions_every_phase(self, blob_points):
        run = run_supervised(blob_points, BirchConfig(n_clusters=3))
        text = run.report.summary()
        for phase in ("phase1", "phase2", "phase3", "phase4"):
            assert phase in text
        assert "conservation=ok" in text

    def test_phase_lookup_raises_on_unknown(self, blob_points):
        run = run_supervised(blob_points, BirchConfig(n_clusters=3))
        with pytest.raises(KeyError):
            run.report.phase("phase9")

    def test_budget_validation(self):
        with pytest.raises(ValueError, match="phase3_seconds"):
            PhaseBudgets(phase3_seconds=-1.0)
        with pytest.raises(ValueError, match="phase4_max_passes"):
            PhaseBudgets(phase4_max_passes=-1)
