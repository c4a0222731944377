"""The sharded determinism contract, enforced as a matrix.

Two distinct promises, tested separately:

* **byte identity across execution modes** — the persistent pool and
  the in-process serial fallback run the *same* sharded algorithm, so
  for any fixed ``(config, n_jobs)`` they must produce byte-identical
  results (structure arrays, centroids, ledger and all).  Worker
  processes may only buy wall-clock, never change a float.
* **quality parity and exact conservation across n_jobs** — different
  shard counts legitimately change insertion order, so across
  ``n_jobs`` the contract is cluster-count equality, centroid
  agreement and an exactly balanced conservation ledger, on both
  threshold kinds, outlier-heavy data included.
"""

import numpy as np
import pytest

from repro.core.birch import Birch
from repro.core.config import BirchConfig
from repro.core.tree import ThresholdKind
from repro.datagen.presets import ds1, ds1o
from repro.observe import ObserveConfig
from repro.parallel.pool import FORCE_SERIAL_ENV

pytestmark = pytest.mark.parallel

#: Trees store (n, mean, SSD); the parameter keeps the case ids.
BACKENDS = ("stable",)
KINDS = (ThresholdKind.DIAMETER, ThresholdKind.RADIUS)
JOBS = (1, 2, 4, 8)


@pytest.fixture(scope="module")
def grid_points():
    return ds1(scale=0.03, seed=0).points


@pytest.fixture(scope="module")
def outlier_points():
    """An outlier-heavy stream (ds1o scatters noise between clusters)."""
    return ds1o(scale=0.03, seed=3).points


def _config(**overrides) -> BirchConfig:
    base = dict(
        n_clusters=100,
        memory_bytes=256 * 1024,
        total_points_hint=3000,
        random_seed=7,
    )
    base.update(overrides)
    return BirchConfig(**base)


def _fingerprint(estimator: Birch) -> tuple:
    """Everything clustering-relevant, byte-exact, tree included."""
    result = estimator.result
    structure = estimator.tree.export_structure()
    return (
        tuple((k, structure[k].tobytes()) for k in sorted(structure)),
        result.centroids.tobytes(),
        None if result.labels is None else result.labels.tobytes(),
        result.final_threshold,
        tuple(sorted(result.accounting().items())),
        tuple((cf.n, cf.centroid.tobytes()) for cf in result.clusters),
    )


class TestPoolVsSerialByteIdentity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kind", KINDS, ids=["diameter", "radius"])
    @pytest.mark.parametrize("jobs", JOBS)
    def test_matrix(self, grid_points, backend, kind, jobs, monkeypatch):
        config = _config(threshold_kind=kind)

        monkeypatch.delenv(FORCE_SERIAL_ENV, raising=False)
        with Birch(config) as pooled:
            pooled.fit(grid_points, n_jobs=jobs)
            pooled_print = _fingerprint(pooled)

        monkeypatch.setenv(FORCE_SERIAL_ENV, "1")
        with Birch(config) as serial:
            serial.fit(grid_points, n_jobs=jobs)
            assert _fingerprint(serial) == pooled_print


class TestCrossJobsParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_quality_parity_across_jobs(self, grid_points, backend):
        results = [
            Birch(_config()).fit(grid_points, n_jobs=j)
            for j in JOBS
        ]
        reference = results[0]
        for result in results[1:]:
            assert result.n_clusters == reference.n_clusters
            # Every reference centroid has a close sharded counterpart.
            d = np.linalg.norm(
                reference.centroids[:, None] - result.centroids[None], axis=2
            )
            assert d.min(axis=0).max() < 0.5
            assert result.conservation_ok

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("jobs", (2, 4))
    def test_outlier_heavy_conservation(self, outlier_points, backend, jobs):
        # Shard workers spill potential outliers to their own disks; the
        # parent re-resolves all of them against the merged tree.  The
        # ledger must balance exactly — every noise point either
        # clustered or still held as an outlier.
        result = Birch(
            _config(disk_bytes=64 * 1024)
        ).fit(outlier_points, n_jobs=jobs)
        assert result.conservation_ok
        ledger = result.accounting()
        assert ledger["fed"] == outlier_points.shape[0]

    def test_deterministic_for_fixed_jobs(self, grid_points):
        a = Birch(_config()).fit(grid_points, n_jobs=4)
        b = Birch(_config()).fit(grid_points, n_jobs=4)
        assert a.centroids.tobytes() == b.centroids.tobytes()
        assert a.final_threshold == b.final_threshold


class TestEdgeShapes:
    def test_fewer_points_than_shards(self, grid_points):
        # Regression: n < n_jobs used to reach max(initial, *()) — a
        # TypeError — once the empty shards were filtered out.
        result = Birch(_config()).fit(grid_points[:3], n_jobs=8)
        assert result.conservation_ok
        assert result.points_fed == 3

    def test_single_point_many_shards(self, grid_points):
        result = Birch(_config()).fit(grid_points[:1], n_jobs=4)
        assert result.points_fed == 1
        assert result.conservation_ok

    def test_pool_clamp_emits_telemetry(self, grid_points):
        import os

        jobs = (os.cpu_count() or 1) + 2  # always over the machine size
        with Birch(_config(observe=ObserveConfig())) as estimator:
            result = estimator.fit(grid_points, n_jobs=jobs)
        events = result.telemetry.events_named("pool.clamped")
        assert events, "clamping past cpu_count must be recorded"
        assert events[0]["requested"] == jobs
        assert events[0]["effective"] <= (os.cpu_count() or 1)
        assert result.conservation_ok


class TestPersistentPool:
    def test_pool_reused_across_fits(self, grid_points):
        with Birch(_config()) as estimator:
            estimator.fit(grid_points, n_jobs=2)
            pool_after_first = estimator._pool
            assert pool_after_first is not None
            estimator.fit(grid_points, n_jobs=2)
            assert estimator._pool is pool_after_first
        assert not estimator._pool.alive

    def test_close_without_fit_is_noop(self):
        with Birch(_config()):
            pass
