"""The per-phase timing record: JSON round trip, and what each driver puts in it."""

import json

import numpy as np
import pytest

from repro.core.birch import Birch, PhaseTimings
from repro.core.config import BirchConfig
from repro.guardrails.supervisor import run_supervised


class TestPhaseTimings:
    def test_to_dict_lists_every_field(self):
        timings = PhaseTimings(
            phase1=1.5,
            phase2=0.25,
            phase3=0.75,
            phase4=0.5,
            phase1_ingest=1.0,
            phase1_rebuilds=0.5,
        )
        assert timings.to_dict() == {
            "phase1": 1.5,
            "phase2": 0.25,
            "phase3": 0.75,
            "phase4": 0.5,
            "phase1_ingest": 1.0,
            "phase1_rebuilds": 0.5,
        }

    def test_round_trip_through_json(self):
        timings = PhaseTimings(
            phase1=2.0,
            phase2=0.1,
            phase3=0.4,
            phase4=0.3,
            phase1_ingest=1.6,
            phase1_rebuilds=0.4,
        )
        restored = PhaseTimings.from_dict(
            json.loads(json.dumps(timings.to_dict()))
        )
        assert restored == timings
        assert restored.phase1_ingest == 1.6
        assert restored.phase1_rebuilds == 0.4

    def test_from_dict_tolerates_pre_split_payloads(self):
        # Bench JSON written before the ingest/rebuild split has only
        # the four phase fields; the split components default to zero.
        restored = PhaseTimings.from_dict(
            {"phase1": 1.0, "phase2": 0.5, "phase3": 0.25, "phase4": 0.125}
        )
        assert restored.phase1 == 1.0
        assert restored.phase1_ingest == 0.0
        assert restored.phase1_rebuilds == 0.0

    def test_total_ignores_split_components(self):
        timings = PhaseTimings(
            phase1=1.0, phase2=1.0, phase3=1.0, phase4=1.0,
            phase1_ingest=0.7, phase1_rebuilds=0.3,
        )
        assert timings.total == 4.0
        assert timings.phases_1_3 == 3.0


def _fit(config, points):
    return Birch(config).fit(points)


def _finalize(config, points):
    estimator = Birch(config)
    for lo in range(0, points.shape[0], 500):
        estimator.partial_fit(points[lo : lo + 500])
    return estimator.finalize()


def _improve(config, points):
    estimator = Birch(config)
    estimator.fit(points)
    return estimator.improve(points, 1)


def _supervised(config, points):
    return run_supervised(points, config).result


class TestDriverTimings:
    @pytest.mark.parametrize(
        "driver", [_fit, _finalize, _improve, _supervised],
        ids=["fit", "finalize", "improve", "run_supervised"],
    )
    def test_phase1_split_and_totals_are_consistent(self, driver):
        rng = np.random.default_rng(3)
        centres = rng.uniform(-20.0, 20.0, size=(12, 2))
        points = np.concatenate(
            [rng.normal(c, 0.5, size=(125, 2)) for c in centres]
        )[rng.permutation(1500)]
        # A small memory budget, so the scan rebuilds the tree.
        config = BirchConfig(n_clusters=12, memory_bytes=8 * 1024)
        result = driver(config, points)
        t = result.timings
        assert result.rebuilds > 0
        assert t.phase1_ingest > 0.0 and t.phase1_rebuilds > 0.0
        assert t.phase1_ingest + t.phase1_rebuilds <= t.phase1
        assert t.total >= t.phases_1_3
