"""Crash-safety across the sharded build: checkpoint, kill, resume."""

import numpy as np
import pytest

from repro.core.birch import Birch
from repro.core.config import BirchConfig
from repro.datagen.presets import ds1
from repro.parallel.chaos import ChaosInjector
from repro.parallel.config import ParallelConfig

pytestmark = pytest.mark.parallel


@pytest.fixture(scope="module")
def grid_points():
    return ds1(scale=0.03, seed=0).points


def _config(path, **overrides) -> BirchConfig:
    base = dict(
        n_clusters=100,
        memory_bytes=256 * 1024,
        checkpoint_every_points=500,
        checkpoint_path=str(path),
        phase4_passes=0,
        random_seed=7,
    )
    base.update(overrides)
    return BirchConfig(**base)


class TestShardedCheckpointResume:
    def test_killed_sharded_fit_resumes_to_a_balanced_ledger(
        self, grid_points, tmp_path
    ):
        """A sharded fit checkpoints after adopting the merged tree; a
        process killed there must resume from disk and finish the
        stream with the conservation ledger still exact."""
        path = tmp_path / "sharded.npz"
        half = grid_points.shape[0] // 2

        with Birch(_config(path)) as interrupted:
            interrupted.fit(grid_points[:half], n_jobs=4)
            assert interrupted._pool is not None  # the pool it would reuse
        assert path.exists()

        resumed = Birch.resume(path)
        fed = resumed.points_seen
        assert 0 < fed <= half
        # The checkpointed tree is the adopted merge result (or a later
        # outlier-resolution step): feeding the not-yet-covered rows
        # must finish cleanly.
        resumed.partial_fit(grid_points[fed:])
        result = resumed.finalize()
        assert result.conservation_ok
        assert resumed.points_seen == grid_points.shape[0]
        assert result.n_clusters > 0

    def test_checkpoint_written_during_sharded_fit_is_loadable(
        self, grid_points, tmp_path
    ):
        path = tmp_path / "mid.npz"
        with Birch(_config(path)) as estimator:
            estimator.fit(grid_points, n_jobs=2)
        resumed = Birch.resume(path)
        assert resumed.points_seen > 0
        # The restored tree must satisfy its own invariants.
        resumed.tree.check_invariants()

    @pytest.mark.chaos
    @pytest.mark.parametrize("cf_backend", ["stable"])  # keeps the case ids
    def test_worker_sigkill_then_resume_is_bit_identical(
        self, grid_points, tmp_path, cf_backend
    ):
        """The double crash: a worker is SIGKILLed *during* the first
        (checkpointing) fit, the supervised ladder heals it, and then
        the whole process "dies" and resumes from the checkpoint.  The
        continuation must be bit-for-bit the run that never saw either
        failure, with the conservation ledger balanced."""
        half = grid_points.shape[0] // 2
        fast = dict(
            retry_backoff_seconds=0.0, supervise_interval_seconds=0.02
        )

        def run(path, chaos):
            config = _config(
                path,
                parallel=ParallelConfig(**fast),
            )
            with Birch(config, chaos_injector=chaos) as interrupted:
                result = interrupted.fit(grid_points[:half], n_jobs=2)
                incidents = list(result.parallel_incidents)
            resumed = Birch.resume(path)
            fed = resumed.points_seen
            resumed.partial_fit(grid_points[fed:])
            final = resumed.finalize()
            return final, incidents

        chaos = ChaosInjector(mode="kill", fail_on_task=0)
        killed, incidents = run(tmp_path / "killed.npz", chaos)
        clean, no_incidents = run(tmp_path / "clean.npz", None)

        assert chaos.faults_injected == 1
        assert any(i["kind"] == "worker.death" for i in incidents)
        assert no_incidents == []
        assert killed.centroids.tobytes() == clean.centroids.tobytes()
        assert killed.final_threshold == clean.final_threshold
        assert killed.accounting() == clean.accounting()
        assert killed.conservation_ok and clean.conservation_ok

    def test_pool_survives_checkpointed_refits(self, grid_points, tmp_path):
        path = tmp_path / "refit.npz"
        with Birch(_config(path)) as estimator:
            estimator.fit(grid_points, n_jobs=2)
            first_pool = estimator._pool
            estimator.fit(grid_points, n_jobs=2)
            assert estimator._pool is first_pool
            a = estimator.result.centroids.tobytes()
        with Birch(_config(path)) as fresh:
            fresh.fit(grid_points, n_jobs=2)
            assert fresh.result.centroids.tobytes() == a
