"""Tests for the :class:`MemoryWatchdog` rebuild circuit breaker."""

import numpy as np
import pytest

from repro.core import Birch, BirchConfig
from repro.guardrails.watchdog import MemoryWatchdog

pytestmark = pytest.mark.guardrails


class TestEscalation:
    def test_trips_after_consecutive_ineffective_rebuilds(self):
        wd = MemoryWatchdog(escalation_limit=3)
        wd.observe_rebuild(pages_after=10, capacity_pages=5)
        wd.observe_rebuild(pages_after=9, capacity_pages=5)
        assert not wd.degraded
        wd.observe_rebuild(pages_after=8, capacity_pages=5)
        assert wd.degraded

    def test_effective_rebuild_resets_the_streak(self):
        wd = MemoryWatchdog(escalation_limit=2)
        wd.observe_rebuild(10, 5)
        wd.observe_rebuild(4, 5)  # fits: streak resets
        wd.observe_rebuild(10, 5)
        assert not wd.degraded
        wd.observe_rebuild(10, 5)
        assert wd.degraded

    def test_report_counts_lifetime_ineffective_rebuilds(self):
        wd = MemoryWatchdog(escalation_limit=10)
        for _ in range(4):
            wd.observe_rebuild(10, 5)
        report = wd.report()
        assert report.ineffective_rebuilds == 4
        assert not report.degraded
        assert report.escalation_limit == 10

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_non_positive_limit(self, bad):
        with pytest.raises(ValueError, match="escalation_limit"):
            MemoryWatchdog(escalation_limit=bad)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            MemoryWatchdog(mode="panic")


class TestRecoarsenSchedule:
    def test_never_fires_before_tripping(self):
        wd = MemoryWatchdog(escalation_limit=2)
        assert not wd.should_recoarsen(pages_in_use=100, capacity_pages=5)

    def _tripped(self):
        wd = MemoryWatchdog(escalation_limit=1)
        wd.observe_rebuild(pages_after=10, capacity_pages=5)
        assert wd.degraded
        return wd

    def test_fires_on_doubling_since_last_rebuild(self):
        wd = self._tripped()
        assert not wd.should_recoarsen(pages_in_use=15, capacity_pages=5)
        assert wd.should_recoarsen(pages_in_use=20, capacity_pages=5)

    def test_fires_before_the_hard_cap(self):
        wd = self._tripped()
        margin = MemoryWatchdog.HARD_MARGIN
        assert wd.should_recoarsen(pages_in_use=5 + margin, capacity_pages=5)

    def test_never_fires_while_under_budget(self):
        wd = self._tripped()
        assert not wd.should_recoarsen(pages_in_use=4, capacity_pages=5)

    def test_coarsen_factor_doubles_per_forced_rebuild(self):
        wd = self._tripped()
        start = wd.coarsen_factor
        wd.note_coarsen_rebuild(pages_after=8)
        assert wd.coarsen_factor == 2 * start
        assert wd.report().coarsen_rebuilds == 1


class TestStateRoundTrip:
    def test_counters_and_breaker_survive(self):
        wd = MemoryWatchdog(escalation_limit=2, mode="spill")
        wd.observe_rebuild(10, 5)
        wd.observe_rebuild(10, 5)
        wd.note_coarsen_rebuild(8)
        fresh = MemoryWatchdog(escalation_limit=2, mode="spill")
        fresh.load_state(wd.state_dict())
        assert fresh.degraded
        assert fresh.coarsen_factor == wd.coarsen_factor
        assert fresh.report() == wd.report()


class TestDegradedEndToEnd:
    """The watchdog inside Phase 1, on a budget no rebuild can meet."""

    @pytest.mark.parametrize("mode", ["coarsen", "spill"])
    @pytest.mark.parametrize("backend", ["stable"])  # keeps the case ids
    def test_pathological_budget_completes_degraded(self, mode, backend, rng):
        points = rng.normal(0.0, 50.0, (1500, 8))
        config = BirchConfig(
            n_clusters=3,
            memory_bytes=400,  # below one 512-byte page: nothing ever fits
            page_size=512,
            rebuild_escalation_limit=3,
            degraded_mode=mode,
        )
        result = Birch(config).fit(points)
        assert result.memory_degraded
        assert result.watchdog.degraded
        assert result.watchdog.mode == mode
        assert result.watchdog.coarsen_rebuilds >= 1
        assert result.conservation_ok
        # Degraded, not looping: rebuild count stays far below per-point.
        assert result.rebuilds < 50

    def test_healthy_budget_never_degrades(self, blob_points):
        result = Birch(BirchConfig(n_clusters=3)).fit(blob_points)
        assert not result.memory_degraded
        assert result.watchdog is not None
        assert not result.watchdog.degraded
        assert result.watchdog.coarsen_rebuilds == 0
